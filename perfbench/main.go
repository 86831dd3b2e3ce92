// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the program's public entry points, checks every
// output against the simulation kernel called directly, and prints each
// metric by name and unit; the last line of standard output is one JSON
// object with the result.
//
//	perfbench --workload grid-kernel --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics on the workload's deployed
// topology with tracing off. --trace 1 replays the workload's first steps
// on each rung of a ladder (core, engine, httpapi, cluster), records
// spans around every call into a layer, and derives the per-layer
// metrics from them. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	"nbticache/internal/cache"
	"nbticache/internal/workload"
)

func main() { os.Exit(run()) }

// metric is one named value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	wl := flag.String("workload", "", "workload to run: grid-kernel, stream-tiny or upload-mix")
	seed := flag.Int64("seed", DevSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "seconds the untraced closed loop measures")
	traced := flag.Int("trace", 0, "1 runs the traced ladder and prints per-layer metrics")
	flag.Parse()
	if _, err := newGenerator(*wl, *seed, 0); err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wl, *seconds, *traced)
		flag.Usage()
		return 2
	}
	// The clients share the program's process. One processor beyond the
	// workers' keeps their goroutines, and the servers' handlers, from
	// waiting behind CPU-bound simulations until the runtime preempts one
	// (about 10 ms later), a wait that otherwise dominated and scattered
	// first_event_ms. GOMAXPROCS in the environment takes precedence.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(workers + 1)
	}
	dir := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	ctx := context.Background()
	prov := provenance(*wl, *seed, *seconds, *traced == 1)
	pb, _ := json.Marshal(prov)
	fmt.Printf("provenance: %s\n", pb)
	fmt.Println("checks: every job outcome is compared bit for bit with the core kernel called directly on the same point;")
	fmt.Println("        the simulator's model is not validated against hardware here.")

	var res *result
	var problems []string
	var err error
	if *traced == 1 {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *wl, *seed))
		res, problems, err = runTraced(ctx, *wl, *seed, dir, path, prov)
	} else {
		res, problems, err = runUntraced(ctx, *wl, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrong: %s\n", p)
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	fmt.Printf("error_rate = %.6f (failed %d of %d operations)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// genFor is the trace generation a workload's benchmark jobs use.
func genFor(wl string) func(cache.Geometry) workload.GenParams {
	if wl == streamTiny {
		return tinyParams
	}
	return workload.DefaultGenParams
}

// prepare measures, before any set-up is timed, the trace lengths the
// plan generators account simulated accesses with.
func prepare(wl string) error {
	for _, n := range configFor(wl).warm {
		if _, err := traceLen(n, genFor(wl)); err != nil {
			return err
		}
	}
	return nil
}

// printer writes the human-readable metric lines.
type printer struct{ metrics map[string]metric }

func (p *printer) put(name, unit string, v float64, note string) {
	p.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("  %-34s %14.6f %-6s%s\n", name, v, unit, note)
}

// percentiles prints the median, p90 and p99 of sorted samples, each
// with its sample count, marking any percentile that has fewer than ten
// samples beyond it. Only the names in keep enter the result.
func percentiles(p *printer, base, unit string, sorted []float64, keep map[string]bool) {
	n := len(sorted)
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}} {
		name := base + q.suffix
		note := fmt.Sprintf("n=%d", n)
		if !tailOK(n, q.q) {
			note += ", fewer than 10 samples beyond"
			if !keep[name] {
				continue
			}
		}
		v := quantile(sorted, q.q)
		if keep[name] {
			p.put(name, unit, v, note)
		} else {
			fmt.Printf("  %-34s %14.6f %-6s  (%s; printed only)\n", name, v, unit, note)
		}
	}
}

// endToEnd names the metrics the result line carries with --trace 0.
// first_event_ms_p90 is printed only: over ten seeds it spread by up to
// 0.2 of its median on upload-mix, too close to the largest bound.
var endToEnd = map[string]bool{
	"setup_s": true, "sweep_ms_p50": true, "sweep_ms_p90": true, "first_event_ms_p50": true,
	"jobs_per_s": true, "sim_maccess_per_s": true, "peak_rss_mb": true,
}

func runUntraced(ctx context.Context, wl string, seed int64, seconds int, dir string) (*result, []string, error) {
	if err := prepare(wl); err != nil {
		return nil, nil, err
	}
	ref, err := newReference(genFor(wl))
	if err != nil {
		return nil, nil, err
	}
	ck := newChecker(ref)
	defer ck.close()
	d, err := setUp(ctx, wl, seed, dir, ck)
	if err != nil {
		return nil, nil, err
	}
	// Set-up's garbage is collected before the timed loop, not in it.
	runtime.GC()
	before := d.sys.engineStats()
	lr, err := runLoad(ctx, d, ck, seconds)
	if err != nil {
		d.sys.close()
		return nil, nil, err
	}
	after := d.sys.engineStats()
	rss := peakRSSMB()
	d.sys.close()
	badOutcomes, err := ck.verify()
	if err != nil {
		return nil, nil, err
	}
	// The program's counters must agree with what the plans asked for.
	badCounters := 0
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"RunsExecuted", after.RunsExecuted - before.RunsExecuted, uint64(lr.newRuns)},
		{"RunsShared", after.RunsShared - before.RunsShared, uint64(lr.sharedRuns)},
		{"CacheHits", after.CacheHits - before.CacheHits, uint64(lr.repeats)},
	} {
		if c.got != c.want {
			ck.fail("engine %s moved by %d over the timed loop, expected %d", c.name, c.got, c.want)
			badCounters++
		}
	}

	fmt.Printf("workload %s, seed %d, deployed rung %s, %d closed-loop client(s), %d sweeps, %d jobs\n",
		wl, seed, deployedRung(wl), clients(wl), len(lr.sweepMs), lr.jobs)
	p := &printer{metrics: make(map[string]metric)}
	p.put("setup_s", "s", median(d.setupS), fmt.Sprintf("median of %d set-ups", len(d.setupS)))
	percentiles(p, "sweep_ms", "ms", lr.sweepMs, endToEnd)
	percentiles(p, "first_event_ms", "ms", lr.firstMs, endToEnd)
	if wl == uploadMix {
		percentiles(p, "upload_ms", "ms", lr.uploadMs, nil)
	}
	p.put("jobs_per_s", "1/s", float64(lr.jobs)/lr.busyS, fmt.Sprintf("%d jobs over %.3f s timed", lr.jobs, lr.busyS))
	p.put("sim_maccess_per_s", "M/s", float64(lr.accesses)/lr.busyS/1e6,
		fmt.Sprintf("%d accesses in %d executed runs", lr.accesses, lr.newRuns))
	p.put("peak_rss_mb", "MB", rss, "VmHWM")
	fmt.Printf("result_digest %s (first %d steps)\n", lr.digest, lr.digestSteps)
	problems := ck.report()
	failed := lr.failed + badOutcomes + badCounters
	return &result{
		Correct: failed == 0 && len(problems) == 0, Attempted: lr.ops,
		Failed: failed, Metrics: p.metrics,
	}, problems, nil
}

func runTraced(ctx context.Context, wl string, seed int64, dir, spansPath string, prov map[string]any) (*result, []string, error) {
	if err := prepare(wl); err != nil {
		return nil, nil, err
	}
	ref, err := newReference(genFor(wl))
	if err != nil {
		return nil, nil, err
	}
	ck := newChecker(ref)
	defer ck.close()
	rec := newRecorder()
	ladder := make(map[string]*rungResult)
	for _, rung := range rungs {
		var r *rungResult
		if rung == rungCore {
			r, err = coreRung(ctx, wl, seed, ck, rec)
		} else {
			r, err = systemRung(ctx, wl, seed, rung, filepath.Join(dir, rung), ck, rec)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s rung: %w", rung, err)
		}
		ladder[rung] = r
	}
	// The same replay on the deployed rung with no spans recorded prices
	// the tracing itself.
	plain, err := systemRung(ctx, wl, seed, deployedRung(wl), filepath.Join(dir, "plain"), ck, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced replay: %w", err)
	}
	badOutcomes, err := ck.verify()
	if err != nil {
		return nil, nil, err
	}
	core, eng := ladder[rungCore], ladder[rungEngine]
	e := core.expect()
	jobsPerSweep := float64(e.jobs) / float64(e.sweeps)
	traces, err := probeTraces(wl, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	if err := probeLayers(ctx, traces, sampleResult(eng), int(jobsPerSweep+0.5), dir, rec); err != nil {
		return nil, nil, err
	}

	attempted, failed := 0, badOutcomes
	fmt.Printf("workload %s, seed %d: ladder replay of %d steps per client\n", wl, seed, replaySteps(wl))
	for _, rung := range rungs {
		r := ladder[rung]
		attempted += r.ops
		failed += r.failed
		same := "equal to core"
		if r.digest != core.digest {
			same = "DIFFERS from core"
			ck.fail("%s rung result digest %s differs from the core rung's %s", rung, r.digest, core.digest)
			failed++
		}
		fmt.Printf("  rung %-8s median sweep %10.4f ms (n=%d)  result_digest %.16s %s\n",
			rung, median(r.sweepMs), len(r.sweepMs), r.digest, same)
		if rung == rungCore {
			continue
		}
		for _, b := range checkCounters(r) {
			ck.fail("%s", b)
			failed++
		}
		printCounters(r)
	}

	p := &printer{metrics: make(map[string]metric)}
	fmt.Println("per-layer metrics:")
	med := func(name, rung string) float64 { return median(durationsMs(rec.find(name, rung))) }
	p.put("workload.generate_ms", "ms", med("workload.generate", "probe"), count(rec, "workload.generate", "probe"))
	p.put("workload.signature_ms", "ms", med("workload.signature", "probe"), count(rec, "workload.signature", "probe"))
	p.put("trace.decode_ms", "ms", med("trace.decode", "probe"), count(rec, "trace.decode", "probe"))
	p.put("trace.content_id_ms", "ms", med("trace.content_id", "probe"), count(rec, "trace.content_id", "probe"))
	for _, pol := range allPolicies {
		var per []float64
		for _, s := range rec.find("core.kernel", "probe", "policy", pol) {
			per = append(per, float64(s.dur().Nanoseconds())/float64(s.Count))
		}
		p.put("core.ns_per_access."+pol, "ns", median(per), fmt.Sprintf("n=%d runs of %d accesses", len(per), traces[0].Len()))
	}
	p.put("core.project_us", "us", 1000*med("core.project", rungCore), count(rec, "core.project", rungCore))
	rungMs := func(rung string) float64 { return median(ladder[rung].sweepMs) }
	p.put("core.rung_ms_per_sweep", "ms", rungMs(rungCore), fmt.Sprintf("n=%d", len(core.sweepMs)))
	p.put("engine.rung_ms_per_sweep", "ms", rungMs(rungEngine), fmt.Sprintf("n=%d", len(eng.sweepMs)))
	p.put("engine.overhead_us_per_job", "us", 1000*(rungMs(rungEngine)-rungMs(rungCore))/jobsPerSweep,
		fmt.Sprintf("engine rung minus core rung over %.1f jobs per sweep", jobsPerSweep))
	ed := delta(eng)
	p.put("engine.run_share_frac", "ratio", frac(ed.RunsShared, ed.RunsShared+ed.RunsExecuted),
		fmt.Sprintf("%d shared of %d runs needed", ed.RunsShared, ed.RunsShared+ed.RunsExecuted))
	p.put("engine.cache_hit_frac", "ratio", frac(ed.CacheHits, ed.CacheHits+ed.CacheMisses),
		fmt.Sprintf("%d hits of %d result lookups", ed.CacheHits, ed.CacheHits+ed.CacheMisses))
	q, sim, per := jobTimings(eng)
	p.put("engine.timing.queue_ms", "ms", median(q), fmt.Sprintf("JobResult.Timing, n=%d", len(q)))
	p.put("engine.timing.simulate_ms", "ms", median(sim), fmt.Sprintf("JobResult.Timing, n=%d", len(sim)))
	p.put("engine.timing.persist_ms", "ms", median(per), fmt.Sprintf("JobResult.Timing, n=%d", len(per)))
	p.put("cas.put_ms", "ms", med("cas.put", "probe"), count(rec, "cas.put", "probe"))
	p.put("cas.fill_us", "us", 1000*med("cas.fill", "probe"), count(rec, "cas.fill", "probe"))
	p.put("cas.drain_ms", "ms", med("cas.drain", "probe"), count(rec, "cas.drain", "probe"))
	dd := delta(ladder[deployedRung(wl)])
	p.put("cas.persist_writes", "count", float64(dd.PersistWrites), "deployed rung, "+deployedRung(wl))
	p.put("cas.persist_write_failures", "count", float64(dd.PersistWriteFailures), "deployed rung, "+deployedRung(wl))
	ht, cl := ladder[rungHTTP], ladder[rungCluster]
	p.put("httpapi.rung_ms_per_sweep", "ms", rungMs(rungHTTP), fmt.Sprintf("n=%d", len(ht.sweepMs)))
	p.put("httpapi.hop_ms_per_sweep", "ms", rungMs(rungHTTP)-rungMs(rungEngine), "httpapi rung minus engine rung")
	p.put("httpapi.submit_ms", "ms", med("client.submit", rungHTTP), count(rec, "client.submit", rungHTTP))
	p.put("httpapi.events_sent", "count", ht.after.metrics["nbtiserved_sweep_events_sent_total"]-ht.before.metrics["nbtiserved_sweep_events_sent_total"],
		"/metrics delta on the httpapi rung")
	p.put("cluster.rung_ms_per_sweep", "ms", rungMs(rungCluster), fmt.Sprintf("n=%d", len(cl.sweepMs)))
	p.put("cluster.hop_ms_per_sweep", "ms", rungMs(rungCluster)-rungMs(rungHTTP), "cluster rung minus httpapi rung")
	p.put("cluster.stream_events", "count", float64(cl.after.coord.EventsStreamed-cl.before.coord.EventsStreamed), "cluster.Stats delta")
	p.put("cluster.jobs_retried", "count", float64(cl.after.coord.JobsRetried-cl.before.coord.JobsRetried), "cluster.Stats delta")
	p.put("cluster.fallback_polls", "count", float64(cl.after.coord.FallbackPolls-cl.before.coord.FallbackPolls), "cluster.Stats delta")
	tracedMs, plainMs := rungMs(deployedRung(wl)), median(plain.sweepMs)
	p.put("bench.tracing_overhead_frac", "ratio", (tracedMs-plainMs)/plainMs,
		fmt.Sprintf("traced %.4f ms vs untraced %.4f ms per sweep on the %s rung", tracedMs, plainMs, deployedRung(wl)))
	if plain.digest != core.digest {
		ck.fail("untraced replay digest %s differs from the core rung's %s", plain.digest, core.digest)
		failed++
	}
	attempted += plain.ops
	failed += plain.failed
	fmt.Printf("result_digest %s (first %d steps)\n", core.digest, len(core.steps))
	if err := rec.write(spansPath, prov); err != nil {
		return nil, nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), spansPath)
	problems := ck.report()
	return &result{
		Correct: failed == 0 && len(problems) == 0, Attempted: attempted,
		Failed: failed, Metrics: p.metrics,
	}, problems, nil
}

func count(rec *recorder, name, rung string) string {
	return fmt.Sprintf("n=%d", len(rec.find(name, rung)))
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// delta is the change of a rung's engine counters over its replay.
func delta(r *rungResult) engineDelta {
	b, a := r.before.eng, r.after.eng
	return engineDelta{
		RunsExecuted: a.RunsExecuted - b.RunsExecuted, RunsShared: a.RunsShared - b.RunsShared,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		JobsCompleted: a.JobsCompleted - b.JobsCompleted,
		PersistWrites: a.PersistWrites - b.PersistWrites, PersistWriteFailures: a.PersistWriteFailures - b.PersistWriteFailures,
	}
}

type engineDelta struct {
	RunsExecuted, RunsShared, CacheHits, CacheMisses, JobsCompleted uint64
	PersistWrites, PersistWriteFailures                             uint64
}

// printCounters reports a rung's counter deltas and waste ratios, each
// with its base.
func printCounters(r *rungResult) {
	e := r.expect()
	d := delta(r)
	fmt.Printf("    counters: runs executed %d (expected %d), runs shared %d (expected %d), cache hits %d (expected %d), jobs completed %d\n",
		d.RunsExecuted, e.newRuns, d.RunsShared, e.sharedRuns, d.CacheHits, e.repeats, d.JobsCompleted)
	fmt.Printf("    waste: %.4f runs executed per distinct run needed (base %d runs); %.4f runs per job completed (base %d jobs); %.4f persist writes per new job (base %d new jobs)\n",
		frac(d.RunsExecuted, uint64(e.runsNeeded)), e.runsNeeded, frac(d.RunsExecuted, d.JobsCompleted), d.JobsCompleted,
		frac(d.PersistWrites, uint64(e.newJobs)), e.newJobs)
	if r.rung == rungCluster {
		b, a := r.before.coord, r.after.coord
		fmt.Printf("    cluster: %d jobs routed, %d retried (%.4f of routed), %d merged, %d streamed, %d fallback polls, %d traces forwarded\n",
			a.JobsRouted-b.JobsRouted, a.JobsRetried-b.JobsRetried, frac(a.JobsRetried-b.JobsRetried, a.JobsRouted-b.JobsRouted),
			a.JobsMerged-b.JobsMerged, a.EventsStreamed-b.EventsStreamed, a.FallbackPolls-b.FallbackPolls, a.TracesForwarded-b.TracesForwarded)
	}
	if r.before.metrics != nil {
		names := make([]string, 0, len(r.after.metrics))
		for n := range r.after.metrics {
			if v := r.after.metrics[n] - r.before.metrics[n]; v != 0 && len(n) > 6 && n[len(n)-6:] == "_total" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		fmt.Printf("    /metrics deltas:")
		for _, n := range names {
			fmt.Printf(" %s=%g", n, r.after.metrics[n]-r.before.metrics[n])
		}
		fmt.Println()
	}
}

// jobTimings collects the program's own per-job phase timings from a
// rung's results, each phase over the jobs where it ran.
func jobTimings(r *rungResult) (queue, simulate, persist []float64) {
	for _, st := range r.steps {
		if st.out == nil {
			continue
		}
		for _, res := range st.out.Results {
			t := res.Timing
			if t == nil {
				continue
			}
			queue = append(queue, t.QueueMs)
			if t.SimulateMs > 0 {
				simulate = append(simulate, t.SimulateMs)
			}
			if t.PersistMs > 0 {
				persist = append(persist, t.PersistMs)
			}
		}
	}
	return queue, simulate, persist
}
