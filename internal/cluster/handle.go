package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"

	"nbticache/internal/engine"
	"nbticache/internal/obs"
)

// Handle tracks one sharded sweep: the coordinator's merge target. It
// mirrors engine.Handle's surface (Status, Results, Wait, Cancel) and
// reuses the engine's status/result types, so the HTTP layer and
// clients see one sweep regardless of how many shards ran it.
type Handle struct {
	// ID names the sweep ("csweep-N", unique per coordinator).
	ID string
	// Spec is the submitted spec, verbatim.
	Spec engine.SweepSpec

	jobs []engine.JobSpec
	// slot maps a job's content address to its index in jobs/results
	// (Expand deduplicates, so the mapping is one-to-one).
	slot map[string]int
	// attempts counts dispatches per slot; written only by the routing
	// round that owns the slot, so no lock is needed beyond the rounds'
	// own ordering.
	attempts []int
	// assigned is the peer each slot was last dispatched to (guarded by
	// mu — the persist loop reads it concurrently for the sweep-state
	// checkpoint).
	assigned []string

	ctx    context.Context
	cancel context.CancelFunc

	// span is the sweep's root trace span (nil without a tracer); tsc is
	// its identity, the ancestor of every dispatch span and — across the
	// HTTP hop — every shard-side engine span. The span closes when the
	// last slot merges.
	span *obs.ActiveSpan
	tsc  obs.SpanContext

	// events is the merged sweep's completion log: every slot merged from
	// any shard is appended in merge order, which is what the
	// coordinator's own /v1/sweeps/{id}/events route serves — shard
	// streams stitched into one client-facing feed.
	events *engine.EventLog

	mu        sync.Mutex
	results   []*engine.JobResult
	done      int
	failed    int
	canceled  int
	cached    int
	timing    engine.SweepTiming
	cancelled bool
	finished  chan struct{}
}

func newHandle(id string, spec engine.SweepSpec, jobs []engine.JobSpec, ctx context.Context, cancel context.CancelFunc) *Handle {
	h := &Handle{
		ID:       id,
		Spec:     spec,
		jobs:     jobs,
		slot:     make(map[string]int, len(jobs)),
		attempts: make([]int, len(jobs)),
		assigned: make([]string, len(jobs)),
		ctx:      ctx,
		cancel:   cancel,
		results:  make([]*engine.JobResult, len(jobs)),
		finished: make(chan struct{}),
		events:   engine.NewEventLog(),
	}
	for i, j := range jobs {
		h.slot[j.ID()] = i
	}
	return h
}

// Jobs returns the expanded, deduplicated job list (in submission order).
func (h *Handle) Jobs() []engine.JobSpec { return h.jobs }

// TraceID returns the merged sweep's trace identity ("" without a
// tracer). The coordinator's spans endpoint stitches the cross-node
// span tree for it.
func (h *Handle) TraceID() string { return h.tsc.TraceID }

// Cancel stops the sweep: per-shard sub-sweeps are cancelled (best
// effort) and jobs not yet merged are recorded as cancelled. The sweep
// still finishes (Wait returns) once every slot is resolved; merged
// results are kept.
func (h *Handle) Cancel() {
	h.mu.Lock()
	h.cancelled = true
	h.mu.Unlock()
	h.cancel()
}

// record stores slot's result exactly once and closes the sweep when
// the last slot resolves. It reports whether the result was taken.
// count, when non-nil, runs under h.mu once the result is taken, as the
// engine's handle counts: a reader that sees the sweep done (Status or
// Wait) sees the caller's counters include every result. count must
// not call back into the handle.
func (h *Handle) record(slot int, res *engine.JobResult, count func()) bool {
	h.mu.Lock()
	if h.results[slot] != nil { // already merged (defensive; rounds own disjoint slots)
		h.mu.Unlock()
		return false
	}
	h.results[slot] = res
	h.done++
	if t := res.Timing; t != nil {
		// Shard results carry their timing through the JSON merge, so the
		// merged sweep aggregates the same decomposition a single node
		// reports.
		h.timing.QueueMs += t.QueueMs
		h.timing.RunMs += t.ResolveMs + t.SimulateMs + t.ProjectMs
		h.timing.PersistMs += t.PersistMs
		h.timing.JobsTimed++
	}
	switch {
	case res.Canceled:
		h.canceled++
	case res.Err != "":
		h.failed++
	default:
		if res.Cached {
			h.cached++
		}
	}
	// Append under h.mu so the event's Seq always equals the done count
	// it advanced to (the log has its own lock and never calls back).
	h.events.Append(res)
	if count != nil {
		count()
	}
	last := h.done == len(h.jobs)
	h.mu.Unlock()
	if last {
		h.cancel() // release the context; the sweep is over
		h.span.End()
		close(h.finished)
		h.events.Close()
	}
	return true
}

// EventsFrom subscribes to the merged sweep's completion feed at cursor
// `from`, with engine.Handle.EventsFrom's exact contract — the two
// handles implementing one subscription surface is what lets the
// streaming HTTP layer serve either.
func (h *Handle) EventsFrom(from int) (backlog []engine.SweepEvent, live <-chan engine.SweepEvent, cancel func()) {
	return h.events.EventsFrom(from)
}

// setAssigned records which peer a dispatch group went to, for the
// sweep-state checkpoint's shard-assignment map.
func (h *Handle) setAssigned(slots []int, peer string) {
	h.mu.Lock()
	for _, s := range slots {
		h.assigned[s] = peer
	}
	h.mu.Unlock()
}

// clientCancelled reports whether Cancel was called on this handle (a
// deliberate client cancellation, as opposed to a coordinator shutdown
// settling the slots).
func (h *Handle) clientCancelled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cancelled
}

// snapshotState captures the sweep's persistable state: spec, the
// shard-assignment map, and the job IDs merged so far with a successful
// result (failed/cancelled slots re-dispatch on resume rather than
// resurrecting a maybe-transient error).
func (h *Handle) snapshotState() sweepState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := sweepState{
		Handle: h.ID,
		Spec:   h.Spec,
		Assign: make(map[string]string),
	}
	for i, r := range h.results {
		if r != nil && r.Err == "" && !r.Canceled {
			st.Merged = append(st.Merged, h.jobs[i].ID())
		}
		if h.assigned[i] != "" {
			st.Assign[h.jobs[i].ID()] = h.assigned[i]
		}
	}
	sort.Strings(st.Merged)
	return st
}

// unresolved snapshots the slots still waiting for a result.
func (h *Handle) unresolved() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int
	for i, r := range h.results {
		if r == nil {
			out = append(out, i)
		}
	}
	return out
}

// Status snapshots progress without blocking, in the engine's terms.
func (h *Handle) Status() engine.SweepStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := engine.SweepStatus{
		ID:        h.ID,
		Name:      h.Spec.Name,
		State:     "running",
		Total:     len(h.jobs),
		Completed: h.done - h.failed - h.canceled,
		Failed:    h.failed,
		Canceled:  h.canceled,
		Cached:    h.cached,
		TraceID:   h.tsc.TraceID,
	}
	if h.timing.JobsTimed > 0 {
		t := h.timing
		st.Timing = &t
	}
	if h.done == len(h.jobs) {
		st.State = "done"
		if h.cancelled || h.canceled > 0 {
			st.State = "canceled"
		}
	}
	return st
}

// Results returns the job results merged so far (nil slots for jobs
// still pending), in submission order.
func (h *Handle) Results() []*engine.JobResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*engine.JobResult, len(h.results))
	copy(out, h.results)
	return out
}

// ErrSweepNotDone is returned by Wait when ctx expires first.
var ErrSweepNotDone = errors.New("cluster: sweep not finished")

// Wait blocks until every job has resolved (including cancelled ones)
// or ctx expires, then returns the assembled merged result.
func (h *Handle) Wait(ctx context.Context) (*engine.SweepResult, error) {
	select {
	case <-h.finished:
	case <-ctx.Done():
		return nil, errors.Join(ErrSweepNotDone, ctx.Err())
	}
	h.mu.Lock()
	jobs := make([]*engine.JobResult, len(h.results))
	copy(jobs, h.results)
	h.mu.Unlock()
	return &engine.SweepResult{ID: h.ID, Name: h.Spec.Name, Jobs: jobs, Status: h.Status()}, nil
}
