package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"nbticache/internal/cache"
	"nbticache/internal/engine"
	"nbticache/internal/trace"
	"nbticache/internal/workload"
)

// Workload names, as passed to --workload.
const (
	gridKernel = "grid-kernel"
	streamTiny = "stream-tiny"
	uploadMix  = "upload-mix"
)

var workloadNames = []string{gridKernel, streamTiny, uploadMix}

// DevSeed is the seed the benchmark was tuned on. HeldOutSeed was never
// used while tuning: confirm a claimed gain on it before trusting it.
const (
	DevSeed     = 1
	HeldOutSeed = 7919
)

// geom is the paper's default cache organisation, used by every job the
// benchmark submits (job specs leave size and line size at their defaults).
var geom = cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}

// Generation parameters per workload. Production size is the engine's
// default (640 phases x 1024); tiny is the cluster test-harness size
// (16 x 64 = ~1k accesses); upload traces are ~128k accesses.
func tinyParams(g cache.Geometry) workload.GenParams {
	return workload.GenParams{Geometry: g, Phases: 16, AccessesPerPhase: 64}
}

func uploadParams(g cache.Geometry) workload.GenParams {
	return workload.GenParams{Geometry: g, Phases: 128, AccessesPerPhase: 1024}
}

var (
	allBanks    = []int{2, 4, 8, 16}
	allPolicies = []string{"identity", "probing", "scrambling"}
	allModes    = []string{engine.ModeVoltageScaled, engine.ModePowerGated}
)

// Per-workload shape constants.
const (
	streamClients = 2  // closed-loop clients on stream-tiny
	streamJobs    = 12 // jobs per stream-tiny sweep
	streamRepeats = 3  // of which repeat an earlier point: exactly a quarter
	uploadBlock   = 4  // one step in every block of this many re-posts
	uploadWindow  = 3  // uploaded traces the client keeps resident
)

// plan is one closed-loop step of a client: an optional trace upload, one
// sweep, and an optional GET of one job. The counts say what the program
// must do for it, so the benchmark can check the program's own counters.
type plan struct {
	Client int
	Seq    int // 0 is the warm-up step, run during set-up
	Spec   engine.SweepSpec
	Jobs   []engine.JobSpec // expanded and normalised, in submission order
	// Fresh asks for the result and run caches to be emptied before the
	// step (outside the timed interval).
	Fresh bool
	// NewRuns, SharedRuns and Repeats are the expected deltas of the
	// engine's RunsExecuted, RunsShared and CacheHits counters.
	NewRuns, SharedRuns, Repeats int
	// Accesses is the number of simulated accesses in the new runs.
	Accesses int64
	Upload   *upload
	// GetJob indexes Jobs for a GET-by-ID after the sweep; -1 means none.
	GetJob int
	// Delete lists uploaded trace IDs the client removes after the step.
	Delete []string
}

// upload is one trace the client posts, generated client-side.
type upload struct {
	Trace  *trace.Trace
	Cols   *trace.Columns
	Body   []byte // binary v1 encoding, the upload body
	ID     string // client-side content address
	Repost bool   // the trace was uploaded before and is still resident
}

// generator yields one client's plans. Equal (workload, seed, client)
// give equal plan sequences.
type generator interface {
	next() (*plan, error)
}

func newGenerator(wl string, seed int64, client int) (generator, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	switch wl {
	case gridKernel:
		return &gridGen{rounds: rounds{rng: rng, names: workload.Names()}}, nil
	case streamTiny:
		return &streamGen{rng: rng, client: client, names: workload.Names()}, nil
	case uploadMix:
		return &uploadGen{rounds: rounds{rng: rng, names: workload.Names()}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", wl, workloadNames)
}

// clients is the number of closed-loop clients a workload runs.
func clients(wl string) int {
	if wl == streamTiny {
		return streamClients
	}
	return 1
}

// rounds draws benchmark names in shuffled rounds: every name once per
// round, in a seed-chosen order. A run's cost differs from benchmark to
// benchmark, so a workload that draws its benchmarks this way does the
// same mix of work on every seed, and the seed moves only the order.
type rounds struct {
	rng   *rand.Rand
	names []string
	order []int
}

func (r *rounds) draw() string {
	if len(r.order) == 0 {
		r.order = r.rng.Perm(len(r.names))
	}
	name := r.names[r.order[0]]
	r.order = r.order[1:]
	return name
}

// gridGen: one benchmark x banks x policies x modes per sweep (24 jobs,
// 12 runs), over all 18 paper benchmarks in shuffled rounds.
type gridGen struct {
	rounds
	n int
}

func (g *gridGen) next() (*plan, error) {
	bench := g.draw()
	spec := engine.SweepSpec{
		Name:     fmt.Sprintf("grid-%d", g.n),
		Benches:  []string{bench},
		Banks:    allBanks,
		Policies: allPolicies,
		Modes:    allModes,
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	n, err := traceLen(bench, workload.DefaultGenParams)
	if err != nil {
		return nil, err
	}
	runs := len(allBanks) * len(allPolicies)
	p := &plan{
		Seq: g.n, Spec: spec, Jobs: jobs, Fresh: true,
		NewRuns: runs, SharedRuns: len(jobs) - runs,
		Accesses: int64(runs) * int64(n), GetJob: -1,
	}
	g.n++
	return p, nil
}

// streamGen: 12 explicit tiny jobs per sweep. Three repeat points this
// client completed earlier; nine are new. A new point carries a unique
// update cadence above the trace length: no update fires, so the work is
// an ordinary run, but the content address (and run key) is new.
type streamGen struct {
	rng     *rand.Rand
	client  int
	names   []string
	n       int
	uniq    uint64
	history []engine.JobSpec
}

func (g *streamGen) next() (*plan, error) {
	var jobs []engine.JobSpec
	repeats := 0
	if g.n > 0 {
		picked := make(map[int]bool, streamRepeats)
		for len(picked) < streamRepeats {
			i := g.rng.Intn(len(g.history))
			if !picked[i] {
				picked[i] = true
				jobs = append(jobs, g.history[i])
			}
		}
		repeats = streamRepeats
	}
	var accesses int64
	fresh := make([]engine.JobSpec, 0, streamJobs)
	for len(jobs)+len(fresh) < streamJobs {
		j := engine.JobSpec{
			Bench:       g.names[g.rng.Intn(len(g.names))],
			Banks:       allBanks[g.rng.Intn(len(allBanks))],
			Policy:      allPolicies[g.rng.Intn(len(allPolicies))],
			Mode:        allModes[g.rng.Intn(len(allModes))],
			UpdateEvery: 1<<16 + uint64(streamClients)*g.uniq + uint64(g.client),
		}.Normalised()
		g.uniq++
		n, err := traceLen(j.Bench, tinyParams)
		if err != nil {
			return nil, err
		}
		accesses += int64(n)
		fresh = append(fresh, j)
	}
	jobs = append(jobs, fresh...)
	g.rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	g.history = append(g.history, fresh...)
	spec := engine.SweepSpec{Name: fmt.Sprintf("stream-%d-%d", g.client, g.n), Jobs: jobs}
	expanded, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	p := &plan{
		Client: g.client, Seq: g.n, Spec: spec, Jobs: expanded,
		NewRuns: len(fresh), Repeats: repeats, Accesses: accesses, GetJob: -1,
	}
	g.n++
	return p, nil
}

// uploadGen: each step uploads a trace, sweeps it over banks x
// {identity, probing} (8 jobs) and GETs one job. In every block of
// uploadBlock timed steps exactly one re-posts a trace still resident;
// the others upload new content: the next benchmark of a shuffled round
// with a fresh generator seed.
type uploadGen struct {
	rounds
	n        int
	repostAt int
	window   []*upload
}

func (g *uploadGen) next() (*plan, error) {
	var up *upload
	var del []string
	if g.n > 0 && (g.n-1)%uploadBlock == 0 {
		g.repostAt = g.rng.Intn(uploadBlock)
	}
	if g.n > 0 && (g.n-1)%uploadBlock == g.repostAt {
		prev := g.window[g.rng.Intn(len(g.window))]
		up = &upload{Trace: prev.Trace, Cols: prev.Cols, Body: prev.Body, ID: prev.ID, Repost: true}
	} else {
		p, _ := workload.ByName(g.draw())
		p.Seed = g.rng.Int63()
		tr, err := p.Generate(uploadParams(geom))
		if err != nil {
			return nil, err
		}
		tr.Name = fmt.Sprintf("%s-u%d", p.Name, g.n)
		var body bytes.Buffer
		if err := trace.WriteBinary(&body, tr); err != nil {
			return nil, err
		}
		id, _, err := engine.TraceContentID(tr)
		if err != nil {
			return nil, err
		}
		up = &upload{Trace: tr, Cols: trace.FromRows(tr), Body: body.Bytes(), ID: id}
		g.window = append(g.window, up)
		if len(g.window) > uploadWindow {
			del = append(del, g.window[0].ID)
			g.window = g.window[1:]
		}
	}
	spec := engine.SweepSpec{
		Name:     fmt.Sprintf("upload-%d", g.n),
		TraceIDs: []string{up.ID},
		Banks:    allBanks,
		Policies: allPolicies[:2],
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	p := &plan{
		Seq: g.n, Spec: spec, Jobs: jobs, Upload: up,
		GetJob: g.rng.Intn(len(jobs)), Delete: del,
	}
	if up.Repost {
		p.Repeats = len(jobs)
	} else {
		p.NewRuns = len(jobs)
		p.Accesses = int64(len(jobs)) * int64(up.Trace.Len())
	}
	g.n++
	return p, nil
}

// lens memoises generated trace lengths, which the accounting of
// simulated accesses needs, process-wide: main measures them before set-up
// is timed (see prepare).
var lens struct {
	sync.Mutex
	m map[string]int
}

func traceLen(bench string, gen func(cache.Geometry) workload.GenParams) (int, error) {
	gp := gen(geom)
	key := fmt.Sprintf("%s|%d|%d", bench, gp.Phases, gp.AccessesPerPhase)
	lens.Lock()
	defer lens.Unlock()
	if n, ok := lens.m[key]; ok {
		return n, nil
	}
	tr, err := genBench(bench, gp)
	if err != nil {
		return 0, err
	}
	if lens.m == nil {
		lens.m = make(map[string]int)
	}
	lens.m[key] = tr.Len()
	return tr.Len(), nil
}

// genBench generates a paper benchmark's trace the way the engine does.
func genBench(bench string, gp workload.GenParams) (*trace.Trace, error) {
	p, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	gp.Geometry = geom
	return p.Generate(gp)
}
