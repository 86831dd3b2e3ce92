package main

import (
	"fmt"
	"strconv"
	"sync"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/core"
	"nbticache/internal/engine"
	"nbticache/internal/power"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// pool runs kernel tasks on a fixed set of goroutines, each owning one
// chunk buffer, the way the engine's workers do.
type pool struct {
	tasks chan func(*core.Batch)
	wg    sync.WaitGroup
}

func newPool(n int) *pool {
	p := &pool{tasks: make(chan func(*core.Batch))}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			buf := core.NewBatch(core.DefaultBatchSize)
			for f := range p.tasks {
				f(buf)
			}
		}()
	}
	return p
}

// run executes fs on the pool and returns when all have finished.
func (p *pool) run(fs []func(*core.Batch)) {
	var wg sync.WaitGroup
	wg.Add(len(fs))
	for _, f := range fs {
		p.tasks <- func(b *core.Batch) {
			defer wg.Done()
			f(b)
		}
	}
	wg.Wait()
}

func (p *pool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// reference computes job outcomes by calling the kernel directly:
// core.New and the columnar run, then core.ProjectAging. It is both the
// ladder's bottom rung and the oracle every other rung is checked
// against. Traces for benchmark jobs are generated here with the
// workload's parameters; uploaded traces are registered by the client.
type reference struct {
	model *aging.Model
	gen   func(cache.Geometry) workload.GenParams

	mu     sync.Mutex
	traces map[string]*trace.Columns // workload key -> validated columns
}

func newReference(gen func(cache.Geometry) workload.GenParams) (*reference, error) {
	m, err := aging.New(aging.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &reference{model: m, gen: gen, traces: make(map[string]*trace.Columns)}, nil
}

func workloadKey(j engine.JobSpec) string {
	if j.TraceID != "" {
		return "t:" + j.TraceID
	}
	return "b:" + j.Bench
}

// register makes an uploaded trace's columns available to jobs naming it.
func (r *reference) register(id string, cols *trace.Columns) {
	r.mu.Lock()
	r.traces["t:"+id] = cols
	r.mu.Unlock()
}

func (r *reference) unregister(id string) {
	r.mu.Lock()
	delete(r.traces, "t:"+id)
	r.mu.Unlock()
}

// columns resolves a job's trace, generating a benchmark's on first use.
func (r *reference) columns(j engine.JobSpec, rec *recorder, rung string) (*trace.Columns, error) {
	key := workloadKey(j)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.traces[key]; ok {
		return c, nil
	}
	if j.TraceID != "" {
		return nil, fmt.Errorf("trace %s not registered", j.TraceID)
	}
	sp := rec.start("workload.generate", rung, "", nil)
	tr, err := genBench(j.Bench, r.gen(geom))
	if err != nil {
		return nil, err
	}
	rec.end(sp.set(int64(tr.Len()), "bench", j.Bench))
	c := trace.FromRows(tr)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r.traces[key] = c
	return c, nil
}

// runKey is the set of spec fields a trace simulation depends on; jobs
// that differ only in sleep mode or epochs share one run.
func runKey(j engine.JobSpec) string {
	return fmt.Sprintf("%s|%d|%d|%d|%s|%d", workloadKey(j), j.SizeKB, j.LineBytes, j.Banks, j.Policy, j.UpdateEvery)
}

// outcome is one job's simulated result, computed by the reference.
type outcome struct {
	spec engine.JobSpec
	run  *core.RunResult
	proj *core.Projection
}

// compute simulates every distinct run of jobs on the pool and projects
// each job from its run, returning the outcomes by job ID. Spans are
// named core.run (one per simulation, counting accesses) and core.project.
func (r *reference) compute(p *pool, jobs []engine.JobSpec, rec *recorder, rung, sweep string, parent *span) (map[string]outcome, error) {
	groups := make(map[string][]engine.JobSpec)
	var order []string
	for _, j := range jobs {
		j = j.Normalised()
		k := runKey(j)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], j)
	}
	out := make(map[string]outcome, len(jobs))
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	tasks := make([]func(*core.Batch), 0, len(order))
	for _, k := range order {
		group := groups[k]
		tasks = append(tasks, func(buf *core.Batch) {
			j := group[0]
			cols, err := r.columns(j, rec, rung)
			if err != nil {
				fail(err)
				return
			}
			kind, err := j.PolicyKind()
			if err != nil {
				fail(err)
				return
			}
			sp := rec.start("core.run", rung, sweep, parent)
			sim, err := core.New(core.Config{
				Geometry: j.Geometry(), Banks: j.Banks, Policy: kind,
				Tech: power.DefaultTech(), UpdateEvery: j.UpdateEvery,
			})
			if err != nil {
				fail(err)
				return
			}
			// The columns were validated when generated or registered,
			// as the engine's are, so the kernel runs unchecked here too.
			run, err := sim.RunColumnsUnchecked(cols, buf)
			if err != nil {
				fail(err)
				return
			}
			rec.end(sp.set(int64(cols.Len()), "policy", j.Policy, "banks", strconv.Itoa(j.Banks)))
			for _, jj := range group {
				mode, err := jj.SleepMode()
				if err != nil {
					fail(err)
					return
				}
				ps := rec.start("core.project", rung, sweep, parent)
				proj, err := core.ProjectAging(r.model, run.RegionSleepFractions(), kind, jj.Epochs, mode)
				rec.end(ps)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				out[jj.ID()] = outcome{jj, run, proj}
				mu.Unlock()
			}
		})
	}
	p.run(tasks)
	return out, firstErr
}

// digests reduces outcomes to their digests.
func digests(outs map[string]outcome) (map[string]string, error) {
	ds := make(map[string]string, len(outs))
	for id, o := range outs {
		d, err := digest(id, o.spec, o.run, o.proj)
		if err != nil {
			return nil, err
		}
		ds[id] = d
	}
	return ds, nil
}

// checker compares every job outcome a client observed with the core
// reference. Observations are queued during the timed loop and verified
// outside it.
type checker struct {
	mu       sync.Mutex
	ref      *reference
	pool     *pool
	known    map[string]string // job ID -> reference digest
	pending  []observation
	specs    map[string]engine.JobSpec
	problems []string
}

type observation struct{ id, digest string }

func newChecker(ref *reference) *checker {
	return &checker{
		ref: ref, pool: newPool(workers),
		known: make(map[string]string), specs: make(map[string]engine.JobSpec),
	}
}

func (c *checker) observe(spec engine.JobSpec, d string) {
	id := spec.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.specs[id] = spec
	c.pending = append(c.pending, observation{id, d})
}

// fail records a wrong outcome found by the client itself.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// verify computes the reference for every pending job not yet known and
// returns the number of mismatching observations.
func (c *checker) verify() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var todo []engine.JobSpec
	seen := make(map[string]bool)
	for _, o := range c.pending {
		if _, ok := c.known[o.id]; !ok && !seen[o.id] {
			seen[o.id] = true
			todo = append(todo, c.specs[o.id])
		}
	}
	if len(todo) > 0 {
		outs, err := c.ref.compute(c.pool, todo, nil, "", "", nil)
		if err != nil {
			return 0, err
		}
		got, err := digests(outs)
		if err != nil {
			return 0, err
		}
		for id, d := range got {
			c.known[id] = d
		}
	}
	bad := 0
	for _, o := range c.pending {
		if c.known[o.id] != o.digest {
			bad++
			c.problems = append(c.problems, fmt.Sprintf("job %s: outcome digest %.12s differs from the core reference %.12s", o.id, o.digest, c.known[o.id]))
		}
	}
	c.pending = c.pending[:0]
	return bad, nil
}

// learn adds reference digests computed elsewhere (the core rung).
func (c *checker) learn(known map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, d := range known {
		c.known[id] = d
	}
}

// report returns the problems found so far.
func (c *checker) report() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.problems...)
}

func (c *checker) close() { c.pool.close() }
