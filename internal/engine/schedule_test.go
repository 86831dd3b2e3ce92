package engine

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"nbticache/internal/cas"
)

// holdWorkers stops Submit from starting the pool, so a test can read
// the queue before any worker drains it and run tasks on its own
// goroutine with e.q.pop and e.execute.
func holdWorkers(e *Engine) { e.startOnce.Do(func() {}) }

// runNext pops one queued task and executes it on the calling goroutine.
func runNext(t *testing.T, e *Engine) {
	t.Helper()
	tk, ok := e.q.pop()
	if !ok {
		t.Fatal("queue empty")
	}
	e.execute(tk, new(phaseClock))
}

func TestGroupByRun(t *testing.T) {
	sha4 := JobSpec{Bench: "sha", Banks: 4}
	sha8 := JobSpec{Bench: "sha", Banks: 8}
	gsme4 := JobSpec{Bench: "gsme", Banks: 4}
	mode := func(j JobSpec, m string) JobSpec { j.Mode = m; return j }
	epochs := func(j JobSpec, n int) JobSpec { j.Epochs = n; return j }
	for _, tc := range []struct {
		name string
		jobs []JobSpec
		want [][]int
	}{
		{"single", []JobSpec{sha4}, [][]int{{0}}},
		{"no sharing", []JobSpec{sha4, sha8, gsme4}, [][]int{{0}, {1}, {2}}},
		{"modes innermost", []JobSpec{
			sha4, mode(sha4, ModePowerGated), sha8, mode(sha8, ModePowerGated),
		}, [][]int{{0, 1}, {2, 3}}},
		{"interleaved explicit list", []JobSpec{
			sha4, sha8, mode(sha4, ModePowerGated), gsme4, mode(sha8, ModeRecoveryBoosted), epochs(sha4, 7),
		}, [][]int{{0, 2, 5}, {1, 4}, {3}}},
		{"first appearance order", []JobSpec{
			gsme4, sha4, mode(gsme4, ModePowerGated), mode(sha4, ModePowerGated),
		}, [][]int{{0, 2}, {1, 3}}},
		{"cadence splits runs", []JobSpec{
			sha4, {Bench: "sha", Banks: 4, UpdateEvery: 100}, mode(sha4, ModePowerGated),
		}, [][]int{{0, 2}, {1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups := groupByRun(tc.jobs)
			got := make([][]int, len(groups))
			seen := make(map[int]int)
			for g, grp := range groups {
				got[g] = grp.idxs
				for _, i := range grp.idxs {
					seen[i]++
					if k := tc.jobs[i].runKey(); k != grp.key {
						t.Errorf("job %d has run key %q in group keyed %q", i, k, grp.key)
					}
				}
			}
			for i := range tc.jobs {
				if seen[i] != 1 {
					t.Errorf("job %d appears %d times, want 1", i, seen[i])
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("groups %v, want %v", got, tc.want)
			}
		})
	}
}

// TestGroupedSweepMatchesRunJob runs a banks × policies × both-modes
// sweep on two workers and checks it against RunJob called serially on
// a fresh engine: byte-identical results, one simulation per distinct
// run, one event per job, and every counter final when Wait returns.
func TestGroupedSweepMatchesRunJob(t *testing.T) {
	spec := SweepSpec{
		Benches:  []string{"sha", "gsme"},
		Banks:    []int{2, 4, 8},
		Policies: []string{"identity", "probing", "scrambling"},
		Modes:    []string{ModeVoltageScaled, ModePowerGated},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	runs := len(groupByRun(jobs))
	if runs != 2*3*3 || len(jobs) != 2*runs {
		t.Fatalf("%d jobs over %d runs, want 36 over 18", len(jobs), runs)
	}

	ref := testEngine(t, 1)
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		r, err := ref.RunJob(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = encodeJobResult(r); err != nil {
			t.Fatal(err)
		}
	}

	e := testEngine(t, 2)
	h, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	for i, r := range res.Jobs {
		if r.Failed() {
			t.Fatalf("job %d: %s", i, r.Err)
		}
		got, err := encodeJobResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("job %d (%s) differs from its serial RunJob", i, r.ID)
		}
	}
	if st.RunsExecuted != uint64(runs) || st.RunsShared != uint64(len(jobs)-runs) {
		t.Errorf("runs executed/shared = %d/%d, want %d/%d", st.RunsExecuted, st.RunsShared, runs, len(jobs)-runs)
	}
	if st.JobsCompleted != uint64(len(jobs)) || st.CacheMisses != uint64(len(jobs)) || st.QueueDepth != 0 {
		t.Errorf("at Wait: completed %d, cache misses %d, queue depth %d; want %d, %d, 0",
			st.JobsCompleted, st.CacheMisses, st.QueueDepth, len(jobs), len(jobs))
	}
	backlog, _, cancel := h.EventsFrom(0)
	cancel()
	if len(backlog) != len(jobs) {
		t.Fatalf("%d events for %d jobs", len(backlog), len(jobs))
	}
	ids := make(map[string]bool)
	for i, ev := range backlog {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		ids[ev.Job.ID] = true
	}
	if len(ids) != len(jobs) {
		t.Errorf("events name %d distinct jobs, want %d", len(ids), len(jobs))
	}
}

// hookStore calls before ahead of every GetOrFill, so a test can act at
// the exact point a job starts its result lookup.
type hookStore struct {
	cas.Store
	before func(key string)
}

func (s hookStore) GetOrFill(ctx context.Context, key string, fill cas.FillFunc) ([]byte, bool, error) {
	s.before(key)
	return s.Store.GetOrFill(ctx, key, fill)
}

// TestCancelMidGroup cancels a sweep after the first member of a run
// group has completed: the remaining members must resolve as cancelled,
// exactly once each, and the sweep must finish.
func TestCancelMidGroup(t *testing.T) {
	e := testEngine(t, 1)
	holdWorkers(e)
	h, err := e.Submit(context.Background(), SweepSpec{
		Benches: []string{"sha"},
		Modes:   []string{ModeVoltageScaled, ModePowerGated, ModeRecoveryBoosted},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := h.Jobs()
	if len(groupByRun(jobs)) != 1 {
		t.Fatalf("sweep of %d jobs is not one run group", len(jobs))
	}
	e.results = newBlobCache(hookStore{Store: e.resultStore, before: func(key string) {
		if key == jobs[1].ID() {
			h.Cancel()
		}
	}}, e.results.codec)

	runNext(t, e)
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Jobs[0]; r.Failed() {
		t.Fatalf("group leader: %s", r.Err)
	}
	for _, r := range res.Jobs[1:] {
		if !r.Canceled {
			t.Errorf("member %s resolved as %+v, want cancelled", r.ID, r)
		}
	}
	if s := res.Status; s.State != "canceled" || s.Completed != 1 || s.Canceled != 2 || s.Failed != 0 {
		t.Errorf("status %+v, want 1 completed and 2 cancelled", s)
	}
	if st := e.Stats(); st.JobsCompleted != 1 || st.JobsCanceled != 2 || st.RunsExecuted != 1 {
		t.Errorf("completed/cancelled/runs = %d/%d/%d, want 1/2/1", st.JobsCompleted, st.JobsCanceled, st.RunsExecuted)
	}
	backlog, _, cancel := h.EventsFrom(0)
	cancel()
	if len(backlog) != len(jobs) {
		t.Errorf("%d events for %d jobs", len(backlog), len(jobs))
	}
}

// TestGroupQueueTiming: every member of a run group reports the same
// queue wait (enqueue to task pickup), so a member's wait behind the
// group's simulation lands in its total, not in its queue phase.
func TestGroupQueueTiming(t *testing.T) {
	e := testEngine(t, 1)
	h, err := e.Submit(context.Background(), SweepSpec{
		Benches: []string{"sha"},
		Modes:   []string{ModeVoltageScaled, ModePowerGated},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lead, sib := res.Jobs[0].Timing, res.Jobs[1].Timing
	if lead == nil || sib == nil {
		t.Fatal("missing timing")
	}
	if lead.SimulateMs <= 0 || sib.SimulateMs != 0 {
		t.Fatalf("simulate ms leader %v sibling %v, want > 0 and 0", lead.SimulateMs, sib.SimulateMs)
	}
	if sib.QueueMs != lead.QueueMs {
		t.Errorf("sibling queue %v ms, leader %v ms: want equal", sib.QueueMs, lead.QueueMs)
	}
	if sib.TotalMs < sib.QueueMs+lead.SimulateMs {
		t.Errorf("sibling total %v ms < queue %v + leader simulate %v", sib.TotalMs, sib.QueueMs, lead.SimulateMs)
	}
}

// TestQueueDepthCountsJobs: the queue-depth gauge reports queued jobs,
// not queued run groups.
func TestQueueDepthCountsJobs(t *testing.T) {
	e := testEngine(t, 1)
	holdWorkers(e)
	h, err := e.Submit(context.Background(), SweepSpec{
		Benches: []string{"sha", "gsme"},
		Banks:   []int{2, 4},
		Modes:   []string{ModeVoltageScaled, ModePowerGated},
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := func() (int, string) {
		var b strings.Builder
		if err := e.Telemetry().Metrics.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "nbtiserved_queue_depth ") {
				return e.Stats().QueueDepth, line
			}
		}
		t.Fatal("no nbtiserved_queue_depth sample")
		return 0, ""
	}
	if n, line := depth(); n != 8 || line != "nbtiserved_queue_depth 8" {
		t.Errorf("before any pickup: Stats %d, gauge %q; want 8", n, line)
	}
	runNext(t, e)
	if n, line := depth(); n != 6 || line != "nbtiserved_queue_depth 6" {
		t.Errorf("after one group: Stats %d, gauge %q; want 6", n, line)
	}
	for range 3 {
		runNext(t, e)
	}
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n, line := depth(); n != 0 || line != "nbtiserved_queue_depth 0" {
		t.Errorf("drained: Stats %d, gauge %q; want 0", n, line)
	}
}
