package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"nbticache/internal/engine"
)

// step is one executed plan as its client saw it.
type step struct {
	plan    *plan
	out     *sweepOut
	upload  time.Duration
	busy    time.Duration // upload + sweep + GET: the timed calls
	digests []string      // per job, in plan order
	ops     int           // operations attempted
	failed  int           // operations that failed or returned a wrong answer
}

// digest folds the step's job outcomes into one.
func (s *step) digest() string { return chain(s.digests) }

// execute runs one plan against a target and checks every answer the
// client can check by itself: the trace ID against the client-side
// content address, the upload's dedup flag, the acknowledged job IDs, the
// done totals and cache-hit count, one event per job, and the GET-by-ID
// result against the streamed one. Job outcomes go to ck, which compares
// them with the core reference later.
func execute(ctx context.Context, t target, p *plan, ck *checker, rec *recorder, rung string) *step {
	st := &step{plan: p}
	sweepID := fmt.Sprintf("c%d-s%d", p.Client, p.Seq)
	bad := func(format string, args ...any) {
		ck.fail("%s %s: %s", rung, sweepID, fmt.Sprintf(format, args...))
	}
	if up := p.Upload; up != nil {
		st.ops++
		t0 := time.Now()
		sp := rec.start("client.upload", rung, sweepID, nil)
		info, created, err := t.upload(ctx, up)
		rec.end(sp.set(int64(len(up.Body))))
		st.upload = time.Since(t0)
		st.busy += st.upload
		switch {
		case err != nil:
			bad("upload: %v", err)
			st.failed++
		case info.ID != up.ID:
			bad("upload returned trace ID %s, client content ID is %s", info.ID, up.ID)
			st.failed++
		case created == up.Repost:
			bad("upload created=%v for a repost=%v", created, up.Repost)
			st.failed++
		}
	}
	st.ops++
	t0 := time.Now()
	sp := rec.start("client.sweep", rung, sweepID, nil)
	out, err := t.sweep(ctx, p.Spec)
	rec.end(sp.set(int64(len(p.Jobs))))
	st.busy += time.Since(t0)
	if err != nil {
		bad("sweep: %v", err)
		st.failed++
		return st
	}
	st.out = out
	rec.child(sp, "client.submit", out.Submit)
	var got *engine.JobResult
	if p.GetJob >= 0 {
		st.ops++
		t0 := time.Now()
		gs := rec.start("client.get_job", rung, sweepID, nil)
		got, err = t.job(ctx, p.Jobs[p.GetJob].ID())
		rec.end(gs)
		st.busy += time.Since(t0)
		if err != nil {
			bad("get job: %v", err)
			st.failed++
		}
	}
	// Everything below is checking, outside the timed calls.
	wrong := checkSweep(p, out)
	st.digests = make([]string, len(p.Jobs))
	for i, j := range p.Jobs {
		r := out.Results[j.ID()]
		if r == nil || r.Failed() {
			continue
		}
		d, err := resultDigest(r)
		if err != nil {
			wrong = append(wrong, err.Error())
			continue
		}
		st.digests[i] = d
		ck.observe(j, d)
	}
	if got != nil {
		if d, err := resultDigest(got); err != nil || d != st.digests[p.GetJob] {
			bad("GET /v1/jobs/%s differs from the streamed result", got.ID)
			st.failed++
		}
	}
	if rec == nil {
		// Only the traced run reads results after the step (for the
		// engine's per-job timing); a long untraced run keeps none.
		out.Results = nil
	}
	if len(wrong) > 0 {
		for _, w := range wrong {
			bad("%s", w)
		}
		st.failed++
	}
	return st
}

// checkSweep compares a sweep's observable outcome with its plan.
func checkSweep(p *plan, out *sweepOut) []string {
	var wrong []string
	n := len(p.Jobs)
	if len(out.JobIDs) != n {
		wrong = append(wrong, fmt.Sprintf("acknowledged %d jobs, planned %d", len(out.JobIDs), n))
	} else {
		for i, j := range p.Jobs {
			if out.JobIDs[i] != j.ID() {
				wrong = append(wrong, fmt.Sprintf("job %d acknowledged as %s, planned %s", i, out.JobIDs[i], j.ID()))
				break
			}
		}
	}
	s := out.Status
	if s.State != "done" || s.Total != n || s.Completed != n || s.Failed != 0 || s.Canceled != 0 {
		wrong = append(wrong, fmt.Sprintf("done status %s total=%d completed=%d failed=%d canceled=%d, want done with %d completed",
			s.State, s.Total, s.Completed, s.Failed, s.Canceled, n))
	}
	if s.Cached != p.Repeats {
		wrong = append(wrong, fmt.Sprintf("%d jobs served from cache, planned %d repeats", s.Cached, p.Repeats))
	}
	if out.Events != n {
		wrong = append(wrong, fmt.Sprintf("%d job events for %d jobs", out.Events, n))
	}
	for _, j := range p.Jobs {
		if r := out.Results[j.ID()]; r == nil || r.Failed() {
			wrong = append(wrong, fmt.Sprintf("job %s has no successful result", j.ID()))
		}
	}
	return wrong
}

// client is one closed-loop caller: it runs its generator's plans one
// after another, each step waiting for the previous one.
type client struct {
	gen   generator
	steps []*step // the timed steps
	busy  time.Duration
	// ops and failed count every step, the warm-up included.
	ops, failed int
}

// runStep takes a client's next plan and runs it on sys. Cache resets,
// deletions and, for uploads, verification happen outside the timed
// interval.
func (c *client) runStep(ctx context.Context, sys *system, ck *checker, rec *recorder, keep bool) (*step, error) {
	p, err := c.gen.next()
	if err != nil {
		return nil, err
	}
	if p.Fresh {
		sys.resetRuns()
	}
	st := execute(ctx, sys.target, p, ck, rec, sys.rung)
	for _, id := range p.Delete {
		st.ops++
		if err := sys.target.deleteTrace(ctx, id); err != nil {
			ck.fail("%s: delete trace %s: %v", sys.rung, id, err)
			st.failed++
		}
	}
	c.ops += st.ops
	c.failed += st.failed
	if keep {
		c.busy += st.busy
		c.steps = append(c.steps, st)
	}
	return st, nil
}

// strip lets go of a kept step's uploaded trace once it is settled; the
// generator's window may still hold the trace for a later re-post.
func (s *step) strip() {
	if s.plan.Upload == nil {
		return
	}
	light, up := *s.plan, *s.plan.Upload
	up.Trace, up.Cols, up.Body = nil, nil, nil
	light.Upload = &up
	s.plan = &light
}

// settle verifies an upload step's jobs against the reference right
// away, so the (large) uploaded trace can be let go rather than held
// until the end of the run. Other steps are verified at the end.
func settle(ck *checker, st *step) error {
	up := st.plan.Upload
	if up == nil {
		return nil
	}
	ck.ref.register(up.ID, up.Cols)
	defer ck.ref.unregister(up.ID)
	_, err := ck.verify()
	return err
}

// deployment is a workload's system after set-up, with its clients
// positioned after their warm-up step.
type deployment struct {
	wl      string
	sys     *system
	clients []*client
	setupS  []float64 // one entry per set-up repetition
	// ops and failed count the warm-up steps of the discarded set-ups.
	ops, failed int
}

// setupReps is how many times a run sets up; set-up time is their median.
const setupReps = 5

// setUp builds the workload's deployed system setupReps times, from
// nothing to the end of each client's warm-up step, and keeps the last.
func setUp(ctx context.Context, wl string, seed int64, dir string, ck *checker) (*deployment, error) {
	d := &deployment{wl: wl}
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var cls []*client
		for i := 0; i < clients(wl); i++ {
			g, err := newGenerator(wl, seed, i)
			if err != nil {
				return nil, err
			}
			cls = append(cls, &client{gen: g})
		}
		sys, err := newSystem(ctx, deployedRung(wl), configFor(wl), filepath.Join(dir, fmt.Sprintf("setup%d", r)))
		if err != nil {
			return nil, err
		}
		var warm []*step
		for _, c := range cls {
			st, err := c.runStep(ctx, sys, ck, nil, false)
			if err != nil {
				sys.close()
				return nil, err
			}
			warm = append(warm, st)
		}
		d.setupS = append(d.setupS, time.Since(t0).Seconds())
		for _, st := range warm {
			if err := settle(ck, st); err != nil {
				sys.close()
				return nil, err
			}
		}
		if r < setupReps-1 {
			for _, c := range cls {
				d.ops += c.ops
				d.failed += c.failed
			}
			sys.close()
			// The discarded system's garbage would otherwise be
			// collected, and count in the peak RSS, at a moment that
			// varies from run to run.
			runtime.GC()
			continue
		}
		d.sys, d.clients = sys, cls
	}
	return d, nil
}

// loadResult is what the timed closed loop measured.
type loadResult struct {
	sweepMs, firstMs, uploadMs []float64 // sorted
	jobs                       int
	accesses                   int64
	busyS                      float64 // the longest client's timed seconds
	ops, failed                int     // every step's, set-up included
	newRuns, sharedRuns        int
	repeats                    int
	digest                     string // over each client's first replaySteps steps
	digestSteps                int
}

// runLoad drives every client in a closed loop until the deadline.
func runLoad(ctx context.Context, d *deployment, ck *checker, seconds int) (*loadResult, error) {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	errs := make([]error, len(d.clients))
	for i, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				st, err := c.runStep(ctx, d.sys, ck, nil, true)
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
	res := &loadResult{ops: d.ops, failed: d.failed}
	var parts []string
	for _, c := range d.clients {
		if s := c.busy.Seconds(); s > res.busyS {
			res.busyS = s
		}
		res.ops += c.ops
		res.failed += c.failed
		for i, st := range c.steps {
			if i < replaySteps(d.wl) {
				parts = append(parts, st.digest())
				res.digestSteps++
			}
			if st.plan.Upload != nil {
				res.uploadMs = append(res.uploadMs, ms(st.upload))
			}
			if st.out == nil {
				continue
			}
			res.sweepMs = append(res.sweepMs, ms(st.out.Total))
			res.firstMs = append(res.firstMs, ms(st.out.FirstEvent))
			res.jobs += len(st.plan.Jobs)
			res.accesses += st.plan.Accesses
			res.newRuns += st.plan.NewRuns
			res.sharedRuns += st.plan.SharedRuns
			res.repeats += st.plan.Repeats
		}
	}
	res.digest = chain(parts)
	sort.Float64s(res.sweepMs)
	sort.Float64s(res.firstMs)
	sort.Float64s(res.uploadMs)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// replaySteps is how many timed steps each client replays on every rung
// of the traced run; the untraced run's result digest covers the same
// prefix, so the two can be compared.
func replaySteps(wl string) int {
	switch wl {
	case streamTiny:
		return 60
	case uploadMix:
		return 16
	}
	return 12
}
