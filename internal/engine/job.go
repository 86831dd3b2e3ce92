// Package engine is the concurrent batch-simulation engine behind the
// library façade and the nbtiserved HTTP service. It turns the
// one-shot simulator of internal/core into a job system: a Job is one
// fully specified simulation point (workload × geometry × banks ×
// indexing policy × sleep mode), a Sweep is a set of jobs (explicit or
// the cartesian product of per-axis values), and the Engine executes
// sweeps on a bounded worker pool with deterministic content-addressed
// result caching, per-job error isolation, cancellation, and progress
// counters. Identical jobs — within one sweep, across overlapping
// sweeps, or across clients — are simulated exactly once.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"nbticache/internal/aging"
	"nbticache/internal/cache"
	"nbticache/internal/core"
	"nbticache/internal/index"
	"nbticache/internal/workload"
)

// Sleep-mode names accepted in job specs (aging.SleepMode.String values).
const (
	ModeVoltageScaled   = "voltage-scaled"
	ModePowerGated      = "power-gated"
	ModeRecoveryBoosted = "recovery-boosted"
)

// JobSpec fully determines one simulation point. The zero value of every
// optional field selects the paper's default, so {Bench: "sha", Banks: 4}
// is a complete spec. Specs are value types: equal specs (after
// normalisation) have equal IDs and share one cached result.
type JobSpec struct {
	// Bench names the synthetic workload (see workload.Names). Exactly
	// one of Bench and TraceID must be set.
	Bench string `json:"bench,omitempty"`
	// TraceID references an uploaded trace by content address
	// (Engine.AddTrace / POST /v1/traces) as a first-class alternative
	// to the synthetic Bench workloads. The referenced trace must be
	// resident in the engine's trace store.
	TraceID string `json:"trace_id,omitempty"`
	// SizeKB is the cache size; 0 means 16 (the paper's default).
	SizeKB int `json:"size_kb,omitempty"`
	// LineBytes is the line size; 0 means 16.
	LineBytes int `json:"line_bytes,omitempty"`
	// Banks is M; 0 means 4.
	Banks int `json:"banks,omitempty"`
	// Policy is the indexing function ("identity", "probing",
	// "scrambling"); empty means "probing".
	Policy string `json:"policy,omitempty"`
	// Mode is the low-power state ("voltage-scaled", "power-gated",
	// "recovery-boosted"); empty means "voltage-scaled".
	Mode string `json:"mode,omitempty"`
	// Epochs is the service-life update count for the aging projection;
	// 0 means core.DefaultServiceEpochs.
	Epochs int `json:"epochs,omitempty"`
	// UpdateEvery fires an in-trace re-indexing update every that many
	// accesses; 0 disables them (the realistic setting).
	UpdateEvery uint64 `json:"update_every,omitempty"`
}

// Normalised returns the spec with defaults filled in. Hashing and
// execution both operate on the normalised form, so a defaulted and an
// explicit spec of the same point are the same job.
func (j JobSpec) Normalised() JobSpec {
	if j.SizeKB == 0 {
		j.SizeKB = 16
	}
	if j.LineBytes == 0 {
		j.LineBytes = 16
	}
	if j.Banks == 0 {
		j.Banks = 4
	}
	if j.Policy == "" {
		j.Policy = string(index.KindProbing)
	}
	if j.Mode == "" {
		j.Mode = ModeVoltageScaled
	}
	if j.Epochs == 0 {
		j.Epochs = core.DefaultServiceEpochs
	}
	return j
}

// Geometry returns the direct-mapped geometry the spec describes.
func (j JobSpec) Geometry() cache.Geometry {
	j = j.Normalised()
	return cache.Geometry{
		Size:        uint64(j.SizeKB) * 1024,
		LineSize:    uint64(j.LineBytes),
		Ways:        1,
		AddressBits: 32,
	}
}

// PolicyKind parses the spec's policy name.
func (j JobSpec) PolicyKind() (index.Kind, error) {
	k := index.Kind(j.Normalised().Policy)
	switch k {
	case index.KindIdentity, index.KindProbing, index.KindScrambling:
		return k, nil
	}
	return "", fmt.Errorf("engine: unknown policy %q", j.Policy)
}

// SleepMode parses the spec's sleep-mode name.
func (j JobSpec) SleepMode() (aging.SleepMode, error) {
	switch j.Normalised().Mode {
	case ModeVoltageScaled:
		return aging.VoltageScaled, nil
	case ModePowerGated:
		return aging.PowerGated, nil
	case ModeRecoveryBoosted:
		return aging.RecoveryBoosted, nil
	}
	return 0, fmt.Errorf("engine: unknown sleep mode %q", j.Mode)
}

// Validate reports spec errors without running anything. Whether a
// TraceID actually resolves is engine state, checked at submission.
func (j JobSpec) Validate() error {
	n := j.Normalised()
	switch {
	case n.Bench != "" && n.TraceID != "":
		return fmt.Errorf("engine: both bench %q and trace %q set; pick one workload", n.Bench, n.TraceID)
	case n.Bench == "" && n.TraceID == "":
		return fmt.Errorf("engine: no workload (set bench or trace_id)")
	case n.Bench != "":
		if _, ok := workload.ByName(n.Bench); !ok {
			return fmt.Errorf("engine: unknown benchmark %q", n.Bench)
		}
	}
	if _, err := n.PolicyKind(); err != nil {
		return err
	}
	if _, err := n.SleepMode(); err != nil {
		return err
	}
	if n.Epochs < 1 {
		return fmt.Errorf("engine: epochs %d < 1", n.Epochs)
	}
	kind, _ := n.PolicyKind()
	cfg := core.Config{Geometry: n.Geometry(), Banks: n.Banks, Policy: kind}
	return cfg.Validate()
}

// workloadKey names the spec's workload unambiguously across the two
// kinds: synthetic benchmarks and uploaded traces live in disjoint key
// spaces even if a trace were named like a benchmark.
func (j JobSpec) workloadKey() string {
	if j.TraceID != "" {
		return "t:" + j.TraceID
	}
	return "b:" + j.Bench
}

// idCache memoises JobSpec.ID by raw (pre-normalisation) spec. The
// derivation is pure, and the dominant workload resubmits identical
// grids — every sweep iteration re-expands the same points to hit the
// result cache — so after the first pass each ID is a read-locked map
// hit instead of a Sprintf + SHA-256. JobSpec is comparable, so the
// spec itself is the key; two spellings of one normalised point just
// occupy two entries. The cache is reset at the bound rather than
// evicted — IDs re-derive in one pass — so adversarial spec churn
// (the HTTP API mints these) is capped at idCacheMax entries.
var idCache struct {
	mu sync.RWMutex
	m  map[JobSpec]string
}

const idCacheMax = 1 << 13

// ID returns the job's content address: a stable hash of the normalised
// spec. Equal points get equal IDs regardless of which defaults were
// spelled out, and the ID doubles as the HTTP resource name
// (/v1/jobs/{id}). Trace-backed jobs hash the trace's content address,
// so the job ID is itself content-addressed end to end.
func (j JobSpec) ID() string {
	idCache.mu.RLock()
	id, ok := idCache.m[j]
	idCache.mu.RUnlock()
	if ok {
		return id
	}
	n := j.Normalised()
	canon := fmt.Sprintf("v2|%s|%d|%d|%d|%s|%s|%d|%d",
		n.workloadKey(), n.SizeKB, n.LineBytes, n.Banks, n.Policy, n.Mode, n.Epochs, n.UpdateEvery)
	sum := sha256.Sum256([]byte(canon))
	id = "job-" + hex.EncodeToString(sum[:8])
	idCache.mu.Lock()
	if idCache.m == nil || len(idCache.m) >= idCacheMax {
		idCache.m = make(map[JobSpec]string, 256)
	}
	idCache.m[j] = id
	idCache.mu.Unlock()
	return id
}

// runKey is the run-cache address: the trace simulation depends on the
// workload, geometry, banks, policy and update cadence, but not on the
// sleep mode or epoch count (those enter through the projection), so
// jobs differing only there share one simulation.
func (j JobSpec) runKey() string {
	n := j.Normalised()
	return fmt.Sprintf("%s|%d|%d|%d|%s|%d", n.workloadKey(), n.SizeKB, n.LineBytes, n.Banks, n.Policy, n.UpdateEvery)
}

// walkKey addresses one walk of the trace through the kernel. It is the
// run key less the policy when no in-trace update fires: every policy's
// run is then a relabelling of any other's (core.Relabel), so jobs that
// differ only in policy, sleep mode or epochs share one walk.
func (j JobSpec) walkKey() string {
	n := j.Normalised()
	if n.UpdateEvery > 0 {
		return n.runKey()
	}
	return fmt.Sprintf("%s|%d|%d|%d|*|0", n.workloadKey(), n.SizeKB, n.LineBytes, n.Banks)
}

// SweepSpec describes a set of jobs. Jobs lists explicit points;
// the axis fields add the cartesian product Benches × SizesKB ×
// LineBytes × Banks × Policies × Modes. Either part may be empty; an
// entirely empty spec is an error. Duplicate points (same ID) are
// collapsed during expansion.
type SweepSpec struct {
	// Name is a free-form label echoed in status reports.
	Name string `json:"name,omitempty"`
	// Jobs are explicit points, normalised individually.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// (Benches ∪ TraceIDs) × SizesKB × LineBytes × Banks × Policies ×
	// Modes is the cartesian part. Empty axes default to the paper's
	// single point (16 kB, 16 B lines, 4 banks, probing,
	// voltage-scaled); Benches empty means all 18 paper benchmarks when
	// another axis is set and no uploaded traces are referenced.
	Benches []string `json:"benches,omitempty"`
	// TraceIDs reference uploaded traces (POST /v1/traces) as workload
	// axis values alongside the synthetic benchmarks.
	TraceIDs  []string `json:"trace_ids,omitempty"`
	SizesKB   []int    `json:"sizes_kb,omitempty"`
	LineBytes []int    `json:"line_bytes,omitempty"`
	Banks     []int    `json:"banks,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	Modes     []string `json:"modes,omitempty"`
	// Epochs applies to every cartesian job; 0 means the default.
	Epochs int `json:"epochs,omitempty"`
}

// expandCache memoises axis-only sweep expansions, keyed by a canonical
// rendering of the axes. Sweeps are resubmitted verbatim by design —
// every poll-and-rerun client replays the same grid to hit the result
// cache — and each replay otherwise pays the full normalise + validate
// + dedup pass over the cartesian product. Specs with an explicit Jobs
// list skip the cache (arbitrary content, no resubmission pattern).
// Like idCache, the map is reset at its bound instead of evicted, so
// API-minted spec churn cannot grow it without limit.
var expandCache struct {
	mu sync.RWMutex
	m  map[string][]JobSpec
}

const expandCacheMax = 256

func (s SweepSpec) axisKey() string {
	return fmt.Sprintf("%q|%q|%v|%v|%v|%q|%q|%d",
		s.Benches, s.TraceIDs, s.SizesKB, s.LineBytes, s.Banks, s.Policies, s.Modes, s.Epochs)
}

// Expand resolves the spec into its deduplicated, validated job list.
func (s SweepSpec) Expand() ([]JobSpec, error) {
	cacheable := len(s.Jobs) == 0
	var key string
	if cacheable {
		key = s.axisKey()
		expandCache.mu.RLock()
		cached, ok := expandCache.m[key]
		expandCache.mu.RUnlock()
		if ok {
			// Callers receive a private copy: the cluster coordinator
			// shards the slice and tests append to it.
			return append([]JobSpec(nil), cached...), nil
		}
	}
	out, err := s.expand()
	if err != nil || !cacheable {
		return out, err
	}
	expandCache.mu.Lock()
	if expandCache.m == nil || len(expandCache.m) >= expandCacheMax {
		expandCache.m = make(map[string][]JobSpec, 16)
	}
	expandCache.m[key] = append([]JobSpec(nil), out...)
	expandCache.mu.Unlock()
	return out, nil
}

func (s SweepSpec) expand() ([]JobSpec, error) {
	var jobs []JobSpec
	jobs = append(jobs, s.Jobs...)

	cartesian := len(s.Benches) > 0 || len(s.TraceIDs) > 0 || len(s.SizesKB) > 0 ||
		len(s.LineBytes) > 0 || len(s.Banks) > 0 || len(s.Policies) > 0 || len(s.Modes) > 0
	if cartesian {
		// The workload axis is the union of synthetic benchmarks and
		// uploaded traces; all-benchmarks is the default only when
		// neither kind is named.
		type workloadRef struct{ bench, traceID string }
		var refs []workloadRef
		benches := s.Benches
		if len(benches) == 0 && len(s.TraceIDs) == 0 {
			benches = workload.Names()
		}
		for _, b := range benches {
			refs = append(refs, workloadRef{bench: b})
		}
		for _, id := range s.TraceIDs {
			refs = append(refs, workloadRef{traceID: id})
		}
		sizes := orDefault(s.SizesKB, 16)
		lines := orDefault(s.LineBytes, 16)
		banks := orDefault(s.Banks, 4)
		policies := s.Policies
		if len(policies) == 0 {
			policies = []string{string(index.KindProbing)}
		}
		modes := s.Modes
		if len(modes) == 0 {
			modes = []string{ModeVoltageScaled}
		}
		for _, ref := range refs {
			for _, kb := range sizes {
				for _, lb := range lines {
					for _, m := range banks {
						for _, pol := range policies {
							for _, mode := range modes {
								jobs = append(jobs, JobSpec{
									Bench: ref.bench, TraceID: ref.traceID,
									SizeKB: kb, LineBytes: lb, Banks: m,
									Policy: pol, Mode: mode, Epochs: s.Epochs,
								})
							}
						}
					}
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("engine: empty sweep (no explicit jobs and no axes)")
	}

	seen := make(map[string]bool, len(jobs))
	out := jobs[:0]
	var bad []string
	for _, j := range jobs {
		j = j.Normalised()
		if err := j.Validate(); err != nil {
			bad = append(bad, err.Error())
			continue
		}
		if id := j.ID(); !seen[id] {
			seen[id] = true
			out = append(out, j)
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("engine: invalid sweep: %s", strings.Join(bad, "; "))
	}
	return out, nil
}

func orDefault(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}

// JobResult is the outcome of one job. Exactly one of (Run, Projection)
// both set or Err non-empty holds: failures are isolated per job and
// never abort a sweep.
type JobResult struct {
	// ID is the job's content address.
	ID string `json:"id"`
	// Spec is the normalised spec that ran.
	Spec JobSpec `json:"spec"`
	// Run is the trace-simulation measurement (misses, energy, per-region
	// idleness).
	Run *core.RunResult `json:"run,omitempty"`
	// Projection folds the measured idleness through the spec's policy
	// and sleep mode into multi-year bank lifetimes.
	Projection *core.Projection `json:"projection,omitempty"`
	// Err is the failure, if any ("context canceled" for cancelled jobs).
	Err string `json:"error,omitempty"`
	// Canceled distinguishes cancellation from real failures.
	Canceled bool `json:"canceled,omitempty"`
	// Cached reports that the result was served from the engine cache
	// rather than simulated for this request.
	Cached bool `json:"cached,omitempty"`
	// Timing is the wall-clock decomposition of this execution (sweep
	// jobs on an instrumented engine only). It describes the serving,
	// not the simulation point, so it is JSON-only: the persisted blob
	// never carries it, and a cache hit reports the hit's own timing
	// (queue + persist), not the original run's.
	Timing *JobTiming `json:"timing,omitempty"`
}

// JobTiming is one job execution's per-phase wall time, milliseconds.
// Phases that did not run this time (a cached result skips resolve,
// simulate and project; a shared run skips resolve and simulate) are
// zero. QueueMs runs from enqueue to the worker's pickup of the job's
// run group, so a job's wait behind earlier members of its group shows
// in TotalMs alone.
type JobTiming struct {
	QueueMs    float64 `json:"queue_ms"`
	ResolveMs  float64 `json:"resolve_ms,omitempty"`
	SimulateMs float64 `json:"simulate_ms,omitempty"`
	ProjectMs  float64 `json:"project_ms,omitempty"`
	PersistMs  float64 `json:"persist_ms,omitempty"`
	TotalMs    float64 `json:"total_ms"`
}

// Failed reports whether the job did not produce a result.
func (r *JobResult) Failed() bool { return r.Err != "" }
