package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one sweep share Sweep; Parent
// links a span to the span that caused it (0 for a root).
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Rung   string            `json:"rung,omitempty"`
	Sweep  string            `json:"sweep,omitempty"`
	Start  int64             `json:"start_ns"` // since the recorder's epoch
	End    int64             `json:"end_ns"`
	Count  int64             `json:"count,omitempty"` // work units: accesses, jobs, bytes
	Attr   map[string]string `json:"attr,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced runs call the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span; end closes it. Both are no-ops on a nil recorder.
func (r *recorder) start(name, rung, sweep string, parent *span) *span {
	if r == nil {
		return nil
	}
	s := &span{Name: name, Rung: rung, Sweep: sweep, Start: int64(time.Since(r.epoch))}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

func (r *recorder) end(s *span) {
	if r == nil || s == nil {
		return
	}
	e := int64(time.Since(r.epoch))
	r.mu.Lock()
	s.End = e
	r.mu.Unlock()
}

// child records a span of duration d that starts with parent.
func (r *recorder) child(parent *span, name string, d time.Duration) {
	if r == nil || parent == nil {
		return
	}
	s := &span{Name: name, Rung: parent.Rung, Sweep: parent.Sweep, Parent: parent.ID, Start: parent.Start, End: parent.Start + int64(d)}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// set attaches a work count and attributes to a span.
func (s *span) set(count int64, kv ...string) *span {
	if s == nil {
		return nil
	}
	s.Count = count
	if len(kv) > 0 && s.Attr == nil {
		s.Attr = make(map[string]string, len(kv)/2)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		s.Attr[kv[i]] = kv[i+1]
	}
	return s
}

// find returns the closed spans with the given name, on the given rung
// when rung is not empty, that match every attribute in kv.
func (r *recorder) find(name, rung string, kv ...string) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
outer:
	for _, s := range r.spans {
		if s.Name != name || s.End == 0 || (rung != "" && s.Rung != rung) {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Attr[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		out = append(out, s)
	}
	return out
}

// durationsMs returns the spans' durations in milliseconds, sorted.
func durationsMs(spans []*span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur().Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// write saves every span as one JSON document, with the run's provenance.
func (r *recorder) write(path string, prov map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	doc := map[string]any{"provenance": prov, "spans": r.spans}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
