package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"nbticache/internal/cas"
	"nbticache/internal/cluster"
	"nbticache/internal/core"
	"nbticache/internal/engine"
	"nbticache/internal/index"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// counters is a snapshot of the program's own counters on one system.
type counters struct {
	eng     engine.Stats
	coord   cluster.Stats
	metrics map[string]float64
}

func snapshot(ctx context.Context, s *system) (counters, error) {
	c := counters{eng: s.engineStats()}
	if s.coord != nil {
		c.coord = s.coord.Stats()
	}
	m, err := s.scrape(ctx)
	c.metrics = m
	return c, err
}

// rungResult is one rung's replay of the workload's step sequence.
type rungResult struct {
	rung    string
	steps   []*step
	digest  string
	before  counters
	after   counters
	sweepMs []float64 // sorted
	// ops and failed count every step of the rung, the warm-up included.
	ops, failed int
	// ownerOf names the node owning a job on the cluster rung, where two
	// jobs sharing a run but owned by different nodes each run it.
	ownerOf func(jobID string) (string, bool)
}

// expected sums what the replayed plans ask of the program.
type expected struct {
	sweeps, jobs, newRuns, sharedRuns, repeats, newJobs int
	runsNeeded                                          int // distinct runs, as one engine needs them
}

func (r *rungResult) expect() expected {
	var e expected
	for _, st := range r.steps {
		p := st.plan
		e.sweeps++
		e.jobs += len(p.Jobs)
		e.repeats += p.Repeats
		e.newJobs += len(p.Jobs) - p.Repeats
		e.runsNeeded += p.NewRuns
		newRuns, shared := p.NewRuns, p.SharedRuns
		if p.Fresh && r.ownerOf != nil {
			// Only fresh (grid) steps share runs between jobs; a shared
			// run is simulated once per node owning one of its jobs.
			pairs := make(map[string]bool)
			for _, j := range p.Jobs {
				o, _ := r.ownerOf(j.ID())
				pairs[o+"|"+runKey(j)] = true
			}
			newRuns, shared = len(pairs), len(p.Jobs)-len(pairs)
		}
		e.newRuns += newRuns
		e.sharedRuns += shared
	}
	return e
}

// replay runs each client's warm-up step untimed, then replaySteps steps
// per client, clients concurrently, recording spans.
func replay(ctx context.Context, wl string, seed int64, n int, ck *checker, rec *recorder,
	run func(c *client, keep bool, rec *recorder) (*step, error)) ([]*client, error) {
	var cls []*client
	for i := 0; i < clients(wl); i++ {
		g, err := newGenerator(wl, seed, i)
		if err != nil {
			return nil, err
		}
		c := &client{gen: g}
		st, err := run(c, false, nil)
		if err == nil {
			err = settle(ck, st)
		}
		if err != nil {
			return nil, err
		}
		cls = append(cls, c)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cls))
	for i, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				st, err := run(c, true, rec)
				if err == nil {
					err = settle(ck, st)
				}
				if err != nil {
					errs[i] = err
					return
				}
				st.strip()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cls, nil
}

func collect(rung string, cls []*client, rec *recorder) *rungResult {
	r := &rungResult{rung: rung}
	var parts []string
	for _, c := range cls {
		r.ops += c.ops
		r.failed += c.failed
		for _, st := range c.steps {
			r.steps = append(r.steps, st)
			parts = append(parts, st.digest())
		}
	}
	r.digest = chain(parts)
	if rec != nil {
		r.sweepMs = durationsMs(rec.find("client.sweep", rung))
	} else {
		for _, st := range r.steps {
			if st.out != nil {
				r.sweepMs = append(r.sweepMs, ms(st.out.Total))
			}
		}
		sort.Float64s(r.sweepMs)
	}
	return r
}

// coreRung replays the steps by calling the kernel directly on a pool
// as wide as the engine's, computing only what the engine must compute:
// every job of a fresh step, and otherwise only jobs not seen before
// (repeats are cache hits above this rung). Its digests seed ck.
func coreRung(ctx context.Context, wl string, seed int64, ck *checker, rec *recorder) (*rungResult, error) {
	p := newPool(workers)
	defer p.close()
	var mu sync.Mutex
	memo := make(map[string]string)
	run := func(c *client, keep bool, rec *recorder) (*step, error) {
		pl, err := c.gen.next()
		if err != nil {
			return nil, err
		}
		sweepID := fmt.Sprintf("c%d-s%d", pl.Client, pl.Seq)
		st := &step{plan: pl, ops: 1}
		if pl.Upload != nil {
			ck.ref.register(pl.Upload.ID, pl.Upload.Cols)
			defer ck.ref.unregister(pl.Upload.ID)
		}
		var todo []engine.JobSpec
		mu.Lock()
		for _, j := range pl.Jobs {
			if _, ok := memo[j.ID()]; pl.Fresh || !ok {
				todo = append(todo, j)
			}
		}
		mu.Unlock()
		t0 := time.Now()
		sp := rec.start("client.sweep", rungCore, sweepID, nil)
		outs, err := ck.ref.compute(p, todo, rec, rungCore, sweepID, sp)
		rec.end(sp.set(int64(len(pl.Jobs))))
		st.busy = time.Since(t0)
		if err != nil {
			return nil, err
		}
		got, err := digests(outs)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		for id, d := range got {
			memo[id] = d
		}
		for _, j := range pl.Jobs {
			st.digests = append(st.digests, memo[j.ID()])
		}
		mu.Unlock()
		c.ops += st.ops
		if keep {
			c.steps = append(c.steps, st)
		}
		return st, nil
	}
	cls, err := replay(ctx, wl, seed, replaySteps(wl), ck, rec, run)
	if err != nil {
		return nil, err
	}
	ck.learn(memo)
	return collect(rungCore, cls, rec), nil
}

// systemRung replays the steps on a fresh system of the given rung and
// snapshots the program's counters around the replay.
func systemRung(ctx context.Context, wl string, seed int64, rung, dir string, ck *checker, rec *recorder) (*rungResult, error) {
	sys, err := newSystem(ctx, rung, configFor(wl), dir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	var before counters
	warmed := 0
	run := func(c *client, keep bool, rec *recorder) (*step, error) {
		st, err := c.runStep(ctx, sys, ck, rec, keep)
		if !keep {
			warmed++
			if err == nil && warmed == clients(wl) {
				before, err = snapshot(ctx, sys)
			}
		}
		return st, err
	}
	cls, err := replay(ctx, wl, seed, replaySteps(wl), ck, rec, run)
	if err != nil {
		return nil, err
	}
	after, err := snapshot(ctx, sys)
	if err != nil {
		return nil, err
	}
	r := collect(rung, cls, rec)
	r.before, r.after = before, after
	if sys.coord != nil {
		r.ownerOf = sys.coord.OwnerOf
	}
	return r, nil
}

// checkCounters compares a rung's counter deltas with what its plans
// asked for, and returns the mismatches.
func checkCounters(r *rungResult) []string {
	e := r.expect()
	var bad []string
	want := func(name string, got, want float64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: %s moved by %v, expected %v", r.rung, name, got, want))
		}
	}
	d := func(a, b uint64) float64 { return float64(b) - float64(a) }
	b, a := r.before, r.after
	want("engine RunsExecuted", d(b.eng.RunsExecuted, a.eng.RunsExecuted), float64(e.newRuns))
	want("engine RunsShared", d(b.eng.RunsShared, a.eng.RunsShared), float64(e.sharedRuns))
	want("engine CacheHits", d(b.eng.CacheHits, a.eng.CacheHits), float64(e.repeats))
	want("engine JobsCompleted", d(b.eng.JobsCompleted, a.eng.JobsCompleted), float64(e.jobs))
	want("engine JobsFailed", d(b.eng.JobsFailed, a.eng.JobsFailed), 0)
	want("engine PersistWriteFailures", d(b.eng.PersistWriteFailures, a.eng.PersistWriteFailures), 0)
	if r.rung == rungEngine {
		return bad
	}
	m := func(name string) float64 { return a.metrics[name] - b.metrics[name] }
	want("/metrics nbtiserved_runs_executed_total", m("nbtiserved_runs_executed_total"), float64(e.newRuns))
	want("/metrics nbtiserved_cache_hits_total", m("nbtiserved_cache_hits_total"), float64(e.repeats))
	if r.rung == rungHTTP {
		want("/metrics nbtiserved_sweep_events_sent_total", m("nbtiserved_sweep_events_sent_total"), float64(e.jobs))
		return bad
	}
	want("cluster JobsMerged", d(b.coord.JobsMerged, a.coord.JobsMerged), float64(e.jobs))
	want("cluster EventsStreamed", d(b.coord.EventsStreamed, a.coord.EventsStreamed), float64(e.jobs))
	want("cluster JobsRetried", d(b.coord.JobsRetried, a.coord.JobsRetried), 0)
	want("cluster FallbackPolls", d(b.coord.FallbackPolls, a.coord.FallbackPolls), 0)
	want("cluster PeerFailures", d(b.coord.PeerFailures, a.coord.PeerFailures), 0)
	want("/metrics nbtiserved_sweep_fallback_polls_total", m("nbtiserved_sweep_fallback_polls_total"), 0)
	return bad
}

// probeTraces builds the traces the layer probes run on: the workload's
// own kind of trace, generated here inside workload.generate spans.
func probeTraces(wl string, seed int64, rec *recorder) ([]*trace.Trace, error) {
	names := workload.Names()
	gen := tinyParams
	if wl != streamTiny {
		// Four seed-chosen benchmarks at the workload's trace size.
		all := names
		names = nil
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(all))[:4] {
			names = append(names, all[i])
		}
		gen = workload.DefaultGenParams
		if wl == uploadMix {
			gen = uploadParams
		}
	}
	var out []*trace.Trace
	for i, n := range names {
		p, _ := workload.ByName(n)
		if wl == uploadMix {
			p.Seed = seed + int64(i) // new content, as uploads have
		}
		sp := rec.start("workload.generate", "probe", "", nil)
		tr, err := p.Generate(gen(geom))
		if err != nil {
			return nil, err
		}
		rec.end(sp.set(int64(tr.Len()), "bench", n))
		out = append(out, tr)
	}
	return out, nil
}

// reps sizes a probe's repetitions so a trace of n accesses is timed over
// about 200k accesses, and at least five times.
func reps(n int) int {
	return max(5, 200_000/(n+1))
}

// probeLayers times the workload, trace, core and cas layers' public
// functions on the workload's own traces.
func probeLayers(ctx context.Context, traces []*trace.Trace, sample []byte, jobsPerSweep int, dir string, rec *recorder) error {
	be, err := power.DefaultTech().BreakevenCycles(geom, 4)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		var body bytes.Buffer
		if err := trace.WriteBinary(&body, tr); err != nil {
			return err
		}
		for k := 0; k < reps(tr.Len()); k++ {
			sp := rec.start("workload.signature", "probe", "", nil)
			if _, err := workload.MeasureSignature(tr, geom, 4, uint64(be)); err != nil {
				return err
			}
			rec.end(sp.set(int64(tr.Len())))
			sp = rec.start("trace.decode", "probe", "", nil)
			dec, err := trace.NewDecoder(bytes.NewReader(body.Bytes()))
			if err != nil {
				return err
			}
			if _, err := dec.ReadAll(tr.Len() + 1); err != nil {
				return err
			}
			rec.end(sp.set(int64(body.Len())))
			sp = rec.start("trace.content_id", "probe", "", nil)
			if _, _, err := engine.TraceContentID(tr); err != nil {
				return err
			}
			rec.end(sp.set(int64(tr.Len())))
		}
	}
	// The kernel alone, per indexing policy, on the first trace.
	cols := trace.FromRows(traces[0])
	if err := cols.Validate(); err != nil {
		return err
	}
	buf := core.NewBatch(core.DefaultBatchSize)
	for _, pol := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
		for k := 0; k < reps(cols.Len()); k++ {
			sp := rec.start("core.kernel", "probe", "", nil)
			sim, err := core.New(core.Config{Geometry: geom, Banks: 4, Policy: pol, Tech: power.DefaultTech()})
			if err != nil {
				return err
			}
			if _, err := sim.RunColumnsUnchecked(cols, buf); err != nil {
				return err
			}
			rec.end(sp.set(int64(cols.Len()), "policy", string(pol)))
		}
	}
	return probeCAS(ctx, traces, sample, jobsPerSweep, dir, rec)
}

// probeCAS times the persistence layer: inline-fsync Puts of the
// workload's trace encodings, then rounds of write-behind GetOrFill of
// one sweep's worth of result-sized blobs, each round ended by a Drain
// (the group commit).
func probeCAS(ctx context.Context, traces []*trace.Trace, sample []byte, jobsPerSweep int, dir string, rec *recorder) error {
	st, err := cas.OpenDisk(filepath.Join(dir, "casprobe"), cas.Limits{})
	if err != nil {
		return err
	}
	defer st.Close()
	const putRounds, fillRounds = 8, 10
	for k := 0; k < putRounds; k++ {
		tr := traces[k%len(traces)]
		var body bytes.Buffer
		if err := trace.WriteBinary(&body, tr); err != nil {
			return err
		}
		sp := rec.start("cas.put", "probe", "", nil)
		if err := st.Put("put-"+strconv.Itoa(k), body.Bytes()); err != nil {
			return err
		}
		rec.end(sp.set(int64(body.Len())))
	}
	for k := 0; k < fillRounds; k++ {
		for j := 0; j < jobsPerSweep; j++ {
			key := fmt.Sprintf("fill-%d-%d", k, j)
			sp := rec.start("cas.fill", "probe", "", nil)
			if _, _, err := st.GetOrFill(ctx, key, func() ([]byte, error) { return sample, nil }); err != nil {
				return err
			}
			rec.end(sp.set(int64(len(sample))))
		}
		sp := rec.start("cas.drain", "probe", "", nil)
		st.Drain()
		rec.end(sp.set(int64(jobsPerSweep)))
	}
	return nil
}

// sampleResult is one job result of the engine rung, encoded as the
// result-sized blob the cas probe persists.
func sampleResult(r *rungResult) []byte {
	for _, st := range r.steps {
		if st.out == nil {
			continue
		}
		for _, res := range st.out.Results {
			if b, err := json.Marshal(res); err == nil {
				return b
			}
		}
	}
	return []byte("{}")
}
