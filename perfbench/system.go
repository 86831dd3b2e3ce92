package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/cluster"
	"nbticache/internal/engine"
	"nbticache/internal/httpapi"
	"nbticache/internal/workload"
)

// The rungs of the ladder, bottom up. core calls the kernel directly;
// the others are real systems whose hop over the rung below is the gap
// between their per-sweep times.
const (
	rungCore    = "core"
	rungEngine  = "engine"
	rungHTTP    = "httpapi"
	rungCluster = "cluster"
)

var rungs = []string{rungCore, rungEngine, rungHTTP, rungCluster}

// deployedRung is the topology a workload's untraced run measures.
func deployedRung(wl string) string {
	switch wl {
	case streamTiny:
		return rungCluster
	case uploadMix:
		return rungHTTP
	}
	return rungEngine
}

// workers is the total worker count of every rung: one engine with two
// workers, or two cluster nodes with one each, so every rung has the
// same compute.
const workers = 2

// sysConfig is what a workload asks of every system it runs on.
type sysConfig struct {
	persistent bool
	gen        func(cache.Geometry) workload.GenParams
	warm       []string // benchmarks whose traces each engine generates at set-up
}

// configFor is a workload's system configuration. stream-tiny's nodes
// run without data directories: with one, each new job result is a file
// written behind, and on a 2-vCPU virtual machine the disk's throttling
// set the throughput (back-to-back identical runs fell from 3500 to 2300
// sweeps). Its persistence layer is priced by the cas probes instead,
// and upload-mix keeps a data directory.
func configFor(wl string) sysConfig {
	if wl == uploadMix {
		return sysConfig{persistent: true, gen: genFor(wl)}
	}
	return sysConfig{gen: genFor(wl), warm: workload.Names()}
}

// system is one fresh deployment of a rung: its engines, loopback
// servers and the target a client drives it through.
type system struct {
	rung    string
	dir     string // data directories live under it; removed by close
	engines []*engine.Engine
	nodes   []*loopServer
	coord   *cluster.Coordinator
	front   *loopServer // the coordinator's server on the cluster rung
	target  target
	hc      *http.Client
}

// newSystem builds a rung's system. It characterises the aging model
// afresh, as a new process would, and generates cfg.warm into every
// engine, so the first timed sweep finds traces warm.
func newSystem(ctx context.Context, rung string, cfg sysConfig, dir string) (*system, error) {
	model, err := aging.New(aging.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &system{rung: rung, dir: dir}
	nodes := 1
	if rung == rungCluster {
		nodes = 2
	}
	for i := 0; i < nodes; i++ {
		o := engine.Options{Workers: workers / nodes, Model: model, Gen: cfg.gen}
		if cfg.persistent {
			o.DataDir = filepath.Join(dir, fmt.Sprintf("node%d", i))
		}
		e, err := engine.New(o)
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines = append(s.engines, e)
		for _, b := range cfg.warm {
			if _, err := e.Trace(ctx, b, geom); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	if rung == rungEngine {
		s.target = &engineTarget{eng: s.engines[0]}
		return s, nil
	}
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	var urls []string
	for _, e := range s.engines {
		ls, err := serve(httpapi.NewServer(e, httpapi.Config{}).Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, ls)
		urls = append(urls, ls.url)
	}
	if rung == rungHTTP {
		s.target = &httpTarget{base: urls[0], hc: s.hc, canDelete: true}
		return s, nil
	}
	s.coord, err = cluster.New(cluster.Options{Peers: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front, err = serve(cluster.NewServer(s.coord, cluster.ServerConfig{}).Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	// The coordinator surface has no trace deletion: uploads stay
	// resident on the cluster rung.
	s.target = &httpTarget{base: s.front.url, hc: s.hc}
	return s, nil
}

// resetRuns empties every engine's result and run caches.
func (s *system) resetRuns() {
	for _, e := range s.engines {
		e.ResetRuns()
	}
}

// engineStats sums the engines' counters.
func (s *system) engineStats() engine.Stats {
	var t engine.Stats
	for _, e := range s.engines {
		e.Drain()
		st := e.Stats()
		t.JobsSubmitted += st.JobsSubmitted
		t.JobsCompleted += st.JobsCompleted
		t.JobsFailed += st.JobsFailed
		t.CacheHits += st.CacheHits
		t.CacheMisses += st.CacheMisses
		t.RunsExecuted += st.RunsExecuted
		t.RunsShared += st.RunsShared
		t.TracesUploaded += st.TracesUploaded
		t.PersistWrites += st.PersistWrites
		t.PersistWriteFailures += st.PersistWriteFailures
	}
	return t
}

// scrape sums the named counters over the /metrics expositions of every
// node and the coordinator (nil on the engine rung).
func (s *system) scrape(ctx context.Context) (map[string]float64, error) {
	if s.hc == nil {
		return nil, nil
	}
	out := make(map[string]float64)
	urls := make([]string, 0, len(s.nodes)+1)
	for _, n := range s.nodes {
		urls = append(urls, n.url)
	}
	if s.front != nil {
		urls = append(urls, s.front.url)
	}
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.hc.Do(req)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			// name{labels} value, or name value
			name, rest, _ := strings.Cut(line, " ")
			if i := strings.IndexByte(line, '{'); i >= 0 {
				name, rest = line[:i], line[strings.LastIndexByte(line, '}')+1:]
			}
			if f := strings.Fields(rest); len(f) > 0 {
				if v, err := strconv.ParseFloat(f[0], 64); err == nil {
					out[name] += v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *system) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, n := range s.nodes {
		n.close()
	}
	for _, e := range s.engines {
		e.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// loopServer serves a handler on a loopback listener in this process.
type loopServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *loopServer) close() {
	_ = s.srv.Close()
	<-s.done
}

// sweepOut is what a client observed of one sweep.
type sweepOut struct {
	JobIDs     []string // IDs the submission acknowledged, in order
	Results    map[string]*engine.JobResult
	Status     engine.SweepStatus
	Events     int
	Submit     time.Duration // submission round trip
	FirstEvent time.Duration // submit -> first job event
	Total      time.Duration // submit -> done
}

// target is a rung's public surface as a client uses it.
type target interface {
	upload(ctx context.Context, up *upload) (info engine.TraceInfo, created bool, err error)
	sweep(ctx context.Context, spec engine.SweepSpec) (*sweepOut, error)
	job(ctx context.Context, id string) (*engine.JobResult, error)
	deleteTrace(ctx context.Context, id string) error
}

// engineTarget drives an in-process engine through its Go API.
type engineTarget struct{ eng *engine.Engine }

func (t *engineTarget) upload(_ context.Context, up *upload) (engine.TraceInfo, bool, error) {
	info, existed, err := t.eng.AddTrace(up.Trace)
	return info, !existed, err
}

func (t *engineTarget) sweep(ctx context.Context, spec engine.SweepSpec) (*sweepOut, error) {
	t0 := time.Now()
	h, err := t.eng.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := &sweepOut{Submit: time.Since(t0), Results: make(map[string]*engine.JobResult)}
	for _, j := range h.Jobs() {
		out.JobIDs = append(out.JobIDs, j.ID())
	}
	backlog, live, cancel := h.EventsFrom(0)
	defer cancel()
	note := func(ev engine.SweepEvent) {
		if out.Events == 0 {
			out.FirstEvent = time.Since(t0)
		}
		out.Events++
		out.Results[ev.Job.ID] = ev.Job
	}
	for _, ev := range backlog {
		note(ev)
	}
	for ev := range live {
		note(ev)
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return nil, err
	}
	out.Total = time.Since(t0)
	out.Status = res.Status
	return out, nil
}

func (t *engineTarget) job(_ context.Context, id string) (*engine.JobResult, error) {
	r, ok := t.eng.Job(id)
	if !ok {
		return nil, fmt.Errorf("job %s not found", id)
	}
	return r, nil
}

func (t *engineTarget) deleteTrace(_ context.Context, id string) error {
	if !t.eng.RemoveTrace(id) {
		return fmt.Errorf("trace %s not found", id)
	}
	return nil
}

// httpTarget drives a node or a coordinator over HTTP and SSE.
type httpTarget struct {
	base      string
	hc        *http.Client
	canDelete bool
}

// call performs one request and decodes a JSON answer into out. It
// returns the status code, which must be one of want.
func (t *httpTarget) call(ctx context.Context, method, path, ctype string, body []byte, out any, want ...int) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	for _, w := range want {
		if resp.StatusCode == w {
			if out != nil {
				return resp.StatusCode, json.Unmarshal(b, out)
			}
			return resp.StatusCode, nil
		}
	}
	return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
}

func (t *httpTarget) upload(ctx context.Context, up *upload) (engine.TraceInfo, bool, error) {
	var r httpapi.UploadResponse
	code, err := t.call(ctx, http.MethodPost, "/v1/traces", "application/octet-stream", up.Body, &r, http.StatusCreated, http.StatusOK)
	if err != nil {
		return engine.TraceInfo{}, false, err
	}
	if r.Created != (code == http.StatusCreated) {
		return r.TraceInfo, r.Created, fmt.Errorf("upload: status %d disagrees with created=%v", code, r.Created)
	}
	return r.TraceInfo, r.Created, nil
}

func (t *httpTarget) sweep(ctx context.Context, spec engine.SweepSpec) (*sweepOut, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var sub httpapi.SubmitResponse
	if _, err := t.call(ctx, http.MethodPost, "/v1/sweeps", "application/json", body, &sub, http.StatusAccepted); err != nil {
		return nil, err
	}
	out := &sweepOut{Submit: time.Since(t0), JobIDs: sub.JobIDs, Results: make(map[string]*engine.JobResult)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v1/sweeps/"+sub.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: status %d", sub.ID, resp.StatusCode)
	}
	er := httpapi.NewEventReader(resp.Body)
	for {
		f, err := er.Next()
		if err != nil {
			return nil, fmt.Errorf("events %s: stream ended before done: %w", sub.ID, err)
		}
		switch f.Event {
		case "job":
			ev, err := f.JobEvent()
			if err != nil {
				return nil, err
			}
			if out.Events == 0 {
				out.FirstEvent = time.Since(t0)
			}
			out.Events++
			out.Results[ev.Job.ID] = ev.Job
		case "done":
			st, err := f.DoneStatus()
			if err != nil {
				return nil, err
			}
			out.Total = time.Since(t0)
			out.Status = st
			return out, nil
		}
	}
}

func (t *httpTarget) job(ctx context.Context, id string) (*engine.JobResult, error) {
	var r engine.JobResult
	if _, err := t.call(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, &r, http.StatusOK); err != nil {
		return nil, err
	}
	return &r, nil
}

func (t *httpTarget) deleteTrace(ctx context.Context, id string) error {
	if !t.canDelete {
		return nil
	}
	_, err := t.call(ctx, http.MethodDelete, "/v1/traces/"+id, "", nil, nil, http.StatusOK)
	return err
}
