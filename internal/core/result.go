package core

import (
	"fmt"
	"slices"

	"nbticache/internal/cache"
	"nbticache/internal/hw"
	"nbticache/internal/pmu"
	"nbticache/internal/power"
	"nbticache/internal/stats"
	"nbticache/internal/trace"
)

// RunResult collects everything a trace simulation measured.
type RunResult struct {
	// Name is the trace name.
	Name string
	// Banks is M.
	Banks int
	// PolicyName is the indexing policy that ran.
	PolicyName string
	// Reads, Writes, Hits, Misses count accesses.
	Reads, Writes uint64
	Hits, Misses  uint64
	// SpanCycles is the simulated duration.
	SpanCycles uint64
	// Updates counts in-trace re-indexing events (each flushed the
	// cache).
	Updates uint64
	// Breakeven is the Block Control threshold used (cycles);
	// CounterWidth the counter size implementing it.
	Breakeven    uint64
	CounterWidth int
	// RegionStats is keyed by logical region (stable across updates);
	// it feeds the aging projection and Table I.
	RegionStats []pmu.BankStats
	// BankStats is keyed by physical bank (what the rails see); it
	// feeds the energy accounting.
	BankStats []pmu.BankStats
	// Energy is the partitioned, power-managed energy; Baseline is the
	// monolithic unmanaged reference; Savings = 1 - Energy/Baseline
	// (the paper's Esav).
	Energy   power.Breakdown
	Baseline power.Breakdown
	Savings  float64
}

// HitRate returns hits over accesses.
func (r *RunResult) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// RegionUsefulIdleness projects the I_j vector of Table I.
func (r *RunResult) RegionUsefulIdleness() []float64 {
	out := make([]float64, len(r.RegionStats))
	for i, s := range r.RegionStats {
		out[i] = s.UsefulIdleness
	}
	return out
}

// RegionSleepFractions projects the per-region sleep duty feeding aging.
func (r *RunResult) RegionSleepFractions() []float64 {
	out := make([]float64, len(r.RegionStats))
	for i, s := range r.RegionStats {
		out[i] = s.SleepFraction
	}
	return out
}

// AverageIdleness is the mean of the per-region useful idleness (the
// "Average" column of Table I).
func (r *RunResult) AverageIdleness() float64 {
	return stats.Mean(r.RegionUsefulIdleness())
}

// DefaultBatchSize is the access-chunk length Run simulates per
// AccessBatch call: large enough to amortise the per-batch validation
// and counter flushes, small enough that the chunk buffers stay resident
// in cache.
const DefaultBatchSize = 4096

// Batch is a reusable chunk of batch-kernel input buffers in the layout
// AccessBatch consumes (split cycle/address/kind columns). Drivers that
// simulate many traces — the engine's worker pool above all — allocate a
// handful and reuse them across jobs instead of allocating per run.
type Batch struct {
	cycles []uint64
	addrs  []uint64
	kinds  []trace.Kind
	// Kernel scratch, lent to the PartitionedCache by RunBuffered so a
	// pooled Batch carries the whole per-run working set: decoded
	// regions/banks and the per-bank address scatter.
	regions []int32
	banks   []int32
	scatter []uint64
}

// NewBatch returns a batch buffer for chunks of the given size; size < 1
// selects DefaultBatchSize.
func NewBatch(size int) *Batch {
	if size < 1 {
		size = DefaultBatchSize
	}
	return &Batch{
		cycles:  make([]uint64, size),
		addrs:   make([]uint64, size),
		kinds:   make([]trace.Kind, size),
		regions: make([]int32, size),
		banks:   make([]int32, size),
		scatter: make([]uint64, size),
	}
}

// Run drives a full trace through the cache, finishes it at the trace
// span, and assembles the result, including energy against the monolithic
// unmanaged baseline.
func (pc *PartitionedCache) Run(tr *trace.Trace) (*RunResult, error) {
	return pc.RunBuffered(tr, nil)
}

// RunBuffered is Run with a caller-owned chunk buffer, reusable across
// runs (nil allocates a DefaultBatchSize one). The trace is fed to the
// batch kernel in buffer-sized chunks. The cache borrows the buffer's
// scratch for its own lifetime, so hand the buffer to another run only
// after this cache is finished with (which Run guarantees: it either
// finishes the cache or returns an error that ends the simulation).
func (pc *PartitionedCache) RunBuffered(tr *trace.Trace, buf *Batch) (*RunResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if buf == nil || len(buf.cycles) == 0 {
		buf = NewBatch(DefaultBatchSize)
	}
	size := len(buf.cycles)
	// Lend the buffer's kernel scratch to the cache: every chunk this
	// run feeds AccessBatch fits it, so the kernel allocates nothing.
	if cap(pc.regionBuf) < size {
		pc.regionBuf, pc.bankBuf, pc.scatterBuf = buf.regions, buf.banks, buf.scatter
	}
	acc := tr.Accesses
	var hits uint64
	for start := 0; start < len(acc); start += size {
		chunk := acc[start:min(start+size, len(acc))]
		//nbtivet:ignore soalayout RunBuffered IS the row-compatibility API; this transpose is its whole job, columnar callers use RunColumns
		for k := range chunk {
			buf.cycles[k] = chunk[k].Cycle
			buf.addrs[k] = chunk[k].Addr
			buf.kinds[k] = chunk[k].Kind
		}
		h, applied, err := pc.accessBatch(buf.cycles[:len(chunk)], buf.addrs[:len(chunk)], buf.kinds[:len(chunk)])
		hits += h
		if err != nil {
			// applied accesses succeeded; start+applied is the offender.
			return nil, fmt.Errorf("core: access %d: %w", start+applied, err)
		}
	}
	if err := pc.Finish(tr.Cycles); err != nil {
		return nil, err
	}
	return pc.Result(tr.Name, hits)
}

// RunColumns drives a columnar trace through the cache — the native
// hot path. The columns ARE the kernel's input layout, so each chunk is
// three subslices handed straight to the batch kernel: no per-access
// copy, no transposition, nothing materialised. buf (nil allocates one)
// only sizes the chunking and lends the general kernel its scatter
// scratch; the fused kernel needs neither.
func (pc *PartitionedCache) RunColumns(c *trace.Columns, buf *Batch) (*RunResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return pc.runColumns(c, buf)
}

// RunColumnsUnchecked is RunColumns without the O(n) re-validation
// pass, for callers holding columns already validated at creation (a
// decoded blob, a transposed validated trace). Immutable columns run
// many times pay validation once instead of per run — on a full sweep
// the pass was ~10% of kernel time, re-checking what the decoders had
// already proven. The kernel still enforces everything that matters
// dynamically: column length parity here, cycle ordering and the span
// bound in the walk itself. Only kind validity is trusted — an invalid
// kind tallies as a read instead of erroring — so columns of unproven
// provenance must go through RunColumns.
func (pc *PartitionedCache) RunColumnsUnchecked(c *trace.Columns, buf *Batch) (*RunResult, error) {
	if len(c.Addrs) != len(c.Cycles) || len(c.Kinds) != len(c.Cycles) {
		return nil, fmt.Errorf("core: column length mismatch: %d cycles, %d addrs, %d kinds",
			len(c.Cycles), len(c.Addrs), len(c.Kinds))
	}
	return pc.runColumns(c, buf)
}

func (pc *PartitionedCache) runColumns(c *trace.Columns, buf *Batch) (*RunResult, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if buf == nil || len(buf.cycles) == 0 {
		buf = NewBatch(DefaultBatchSize)
	}
	size := len(buf.cycles)
	if cap(pc.regionBuf) < size {
		pc.regionBuf, pc.bankBuf, pc.scatterBuf = buf.regions, buf.banks, buf.scatter
	}
	n := c.Len()
	var hits uint64
	for start := 0; start < n; start += size {
		end := min(start+size, n)
		h, applied, err := pc.accessBatch(c.Cycles[start:end], c.Addrs[start:end], c.Kinds[start:end])
		hits += h
		if err != nil {
			return nil, fmt.Errorf("core: access %d: %w", start+applied, err)
		}
	}
	if err := pc.Finish(c.Span); err != nil {
		return nil, err
	}
	return pc.Result(c.Name, hits)
}

// Result assembles the RunResult after Finish. hits is the hit count
// observed by the driver (Run tracks it; external drivers pass their
// own).
func (pc *PartitionedCache) Result(name string, hits uint64) (*RunResult, error) {
	if !pc.finished {
		return nil, fmt.Errorf("core: Result before Finish")
	}
	regionStats, err := pc.regionPMU.Results()
	if err != nil {
		return nil, err
	}
	// A bank PMU never fed (no update fired under the fused kernel) is
	// derived from the region stats through the table, which is the
	// run's only one.
	var bankStats []pmu.BankStats
	if !pc.bankPending {
		if bankStats, err = pc.bankPMU.Results(); err != nil {
			return nil, err
		}
	}
	res := &RunResult{
		Name:         name,
		Banks:        pc.cfg.Banks,
		PolicyName:   pc.policy.Name(),
		Reads:        pc.reads,
		Writes:       pc.writes,
		Hits:         hits,
		Misses:       pc.reads + pc.writes - hits,
		SpanCycles:   pc.span,
		Updates:      pc.updates,
		Breakeven:    pc.breakeven,
		CounterWidth: pc.width,
		RegionStats:  regionStats,
	}
	if err := res.fillBankSide(pc.cfg, bankStats, pc.bankTable); err != nil {
		return nil, err
	}
	return res, nil
}

// Relabel derives cfg's run from base, a run of the same trace on the
// same geometry and bank count in which no re-indexing update fired.
// Within an epoch f() maps regions one-to-one onto banks, and idleness
// is measured per region before f(), so such a run's region stats, hits
// and misses are the same under every policy: only the labels of the
// bank-side stats differ, and the energy that sums them. Relabel
// rebuilds those under cfg's first-epoch f(), with no trace walk. The
// result is bit-identical to simulating cfg directly.
//
// Relabel errors when base saw an update, when cfg would fire one
// within base's trace, or when base's bank count or Block Control
// threshold does not match cfg. A run records neither its trace nor its
// geometry, so matching those is the caller's part.
func Relabel(base *RunResult, cfg Config) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalised()
	accesses := base.Reads + base.Writes
	switch {
	case base.Updates != 0:
		return nil, fmt.Errorf("core: cannot relabel a run with %d re-indexing updates", base.Updates)
	case cfg.UpdateEvery > 0 && cfg.UpdateEvery <= accesses:
		return nil, fmt.Errorf("core: cannot relabel into UpdateEvery %d: an update fires within the %d-access trace",
			cfg.UpdateEvery, accesses)
	case base.Banks != cfg.Banks || len(base.RegionStats) != cfg.Banks:
		return nil, fmt.Errorf("core: cannot relabel a %d-bank run into %d banks", base.Banks, cfg.Banks)
	}
	be, err := breakevenCycles(cfg)
	if err != nil {
		return nil, err
	}
	if be != base.Breakeven {
		return nil, fmt.Errorf("core: cannot relabel a run with breakeven %d into breakeven %d", base.Breakeven, be)
	}
	pol, err := newPolicy(cfg)
	if err != nil {
		return nil, err
	}
	enc, err := hw.NewOneHotEncoder(log2(cfg.Banks))
	if err != nil {
		return nil, err
	}
	table := make([]int32, cfg.Banks)
	fillBankTable(table, pol, enc)
	res := &RunResult{
		Name:         base.Name,
		Banks:        cfg.Banks,
		PolicyName:   pol.Name(),
		Reads:        base.Reads,
		Writes:       base.Writes,
		Hits:         base.Hits,
		Misses:       base.Misses,
		SpanCycles:   base.SpanCycles,
		Breakeven:    be,
		CounterWidth: power.CounterWidth(float64(be)),
		RegionStats:  slices.Clone(base.RegionStats),
	}
	if err := res.fillBankSide(cfg, nil, table); err != nil {
		return nil, err
	}
	return res, nil
}

// fillBankSide sets the bank stats and the energy the rails see.
// bankStats nil means no update fired and the bank PMU was never fed:
// bank table[r] then saw exactly region r's accesses, so its stats are
// region r's under that label.
func (res *RunResult) fillBankSide(cfg Config, bankStats []pmu.BankStats, table []int32) error {
	if bankStats == nil {
		bankStats = make([]pmu.BankStats, len(table))
		for r, b := range table {
			bankStats[b] = res.RegionStats[r]
		}
	}
	res.BankStats = bankStats
	sleep := make([]uint64, len(bankStats))
	wakes := make([]uint64, len(bankStats))
	for i, s := range bankStats {
		sleep[i] = s.SleepCycles
		wakes[i] = s.Wakeups
	}
	var err error
	res.Energy, err = cfg.Tech.Energy(cfg.Geometry, cfg.Banks, power.Usage{
		Reads:       res.Reads,
		Writes:      res.Writes,
		SpanCycles:  res.SpanCycles,
		SleepCycles: sleep,
		Wakeups:     wakes,
	})
	if err != nil {
		return err
	}
	res.Baseline, err = cfg.Tech.Energy(cfg.Geometry, 1, power.Usage{
		Reads:      res.Reads,
		Writes:     res.Writes,
		SpanCycles: res.SpanCycles,
	})
	if err != nil {
		return err
	}
	res.Savings = power.Savings(res.Baseline, res.Energy)
	return nil
}

// MonolithicResult summarises a conventional non-partitioned cache run —
// the reference for the "no degradation of miss rate" claim.
type MonolithicResult struct {
	Name          string
	Hits, Misses  uint64
	Reads, Writes uint64
	SpanCycles    uint64
	Energy        power.Breakdown
}

// HitRate returns hits over accesses.
func (r *MonolithicResult) HitRate() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// RunMonolithic simulates a conventional unmanaged cache over the trace.
func RunMonolithic(g cache.Geometry, tech power.Tech, tr *trace.Trace) (*MonolithicResult, error) {
	if tech == (power.Tech{}) {
		tech = power.DefaultTech()
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	c, err := cache.New(g)
	if err != nil {
		return nil, err
	}
	res := &MonolithicResult{Name: tr.Name, SpanCycles: tr.Cycles}
	// Same chunked batch drive as the partitioned kernel: one address
	// buffer, cache lookups in bulk, counters accumulated locally.
	acc := tr.Accesses
	addrs := make([]uint64, min(DefaultBatchSize, len(acc)))
	for start := 0; start < len(acc); start += len(addrs) {
		chunk := acc[start:min(start+len(addrs), len(acc))]
		//nbtivet:ignore soalayout monolithic baseline runs once per comparison off row input; not a sweep-rate path
		for k := range chunk {
			addrs[k] = chunk[k].Addr
			if chunk[k].Kind == trace.Write {
				res.Writes++
			} else {
				res.Reads++
			}
		}
		res.Hits += c.AccessBatch(addrs[:len(chunk)])
	}
	res.Misses = uint64(len(acc)) - res.Hits
	res.Energy, err = tech.Energy(g, 1, power.Usage{
		Reads:      res.Reads,
		Writes:     res.Writes,
		SpanCycles: tr.Cycles,
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
