// Policycompare contrasts the three indexing functions f() of the paper:
// identity (a conventional partitioned cache), probing (counter + mod-2^p
// adder, Fig. 3a) and scrambling (LFSR + XOR, Fig. 3b). It shows the
// long-term bank-hosting shares, the scrambling RNG error shrinking as
// 1/sqrt(N) with the number of updates (§IV-B2), the projected lifetimes,
// and the in-trace cost of updates (flush-induced refills only). All the
// projection points run as one engine sweep: the three policies and the
// five scrambling epoch counts deduplicate to seven jobs (the explicit
// scrambling point at the service-life epoch count collapses into the
// cartesian grid) sharing three trace simulations through the engine's
// run cache.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"nbticache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("policycompare: ")

	eng, err := nbticache.NewEngine(nbticache.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	const bench = "adpcm.dec" // most skewed signature
	epochCounts := []int{16, 64, 256, 1024, 4096}

	// One sweep covers both figures: the three-policy comparison at the
	// service-life epoch count, and the scrambling error decay across
	// epoch counts (explicit jobs, same simulation, different
	// projections).
	spec := nbticache.SweepSpec{
		Name:     "policycompare",
		Benches:  []string{bench},
		Policies: []string{"identity", "probing", "scrambling"},
		Epochs:   4096,
	}
	for _, n := range epochCounts {
		spec.Jobs = append(spec.Jobs, nbticache.JobSpec{
			Bench: bench, Policy: "scrambling", Epochs: n,
		})
	}
	res, err := nbticache.Sweep(context.Background(), eng, spec)
	if err != nil {
		log.Fatal(err)
	}
	byPolicy := make(map[string]*nbticache.JobResult)
	byEpochs := make(map[int]*nbticache.JobResult)
	for _, r := range res.Jobs {
		if r.Failed() {
			log.Fatalf("job %s: %s", r.ID, r.Err)
		}
		if r.Spec.Epochs == 4096 {
			byPolicy[r.Spec.Policy] = r
		}
		if r.Spec.Policy == "scrambling" {
			byEpochs[r.Spec.Epochs] = r
		}
	}

	duties := byPolicy["identity"].Run.RegionSleepFractions()
	fmt.Printf("%s per-region sleep duty: ", bench)
	for _, d := range duties {
		fmt.Printf("%5.1f%% ", d*100)
	}
	fmt.Println("\n(two regions nearly always asleep, two nearly never — the paper's motivating case)")
	// Relabelled runs reuse another policy's walk of the same trace.
	st := eng.Stats()
	fmt.Printf("(%d jobs resolved by %d trace simulations on %d workers)\n\n",
		len(res.Jobs), st.RunsExecuted-st.RunsRelabelled, eng.Workers())

	// Project lifetimes per policy over a daily-update service life.
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tbank duties (long-term)\tshare error\tcache lifetime")
	for _, pol := range []string{"identity", "probing", "scrambling"} {
		proj := byPolicy[pol].Projection
		fmt.Fprintf(tw, "%s\t", proj.PolicyName)
		for _, d := range proj.BankDuty {
			fmt.Fprintf(tw, "%.3f ", d)
		}
		fmt.Fprintf(tw, "\t%.4f\t%.2f years\n", proj.ShareError, proj.LifetimeYears)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// The scrambling RNG error vs update count (1/sqrt(N) decay).
	fmt.Println("\nscrambling share error vs number of updates (paper: error ~ 1/sqrt(N)):")
	for _, n := range epochCounts {
		proj := byEpochs[n].Projection
		fmt.Printf("  N=%5d  error %.4f  lifetime %.2f y\n", n, proj.ShareError, proj.LifetimeYears)
	}

	// In-trace updates: the only cost is the compulsory refills after
	// each flush; steady-state conflict behaviour is untouched. The
	// with-updates run is a distinct point (UpdateEvery differs), so it
	// is a fresh simulation of the same cached trace.
	r0 := byPolicy["probing"]
	tr, err := eng.Trace(context.Background(), bench, r0.Spec.Geometry())
	if err != nil {
		log.Fatal(err)
	}
	r1, err := eng.RunJob(context.Background(), nbticache.JobSpec{
		Bench: bench, Policy: "probing", UpdateEvery: uint64(tr.Len() / 8),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nin-trace update cost: %d updates added %d misses (%.3f%% of accesses)\n",
		r1.Run.Updates, r1.Run.Misses-r0.Run.Misses,
		float64(r1.Run.Misses-r0.Run.Misses)/float64(tr.Len())*100)
	fmt.Println("with daily updates amortised over years, the overhead is effectively zero.")
}
