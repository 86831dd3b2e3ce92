// Banksweep explores partitioning granularity (the paper's §IV-B3 /
// Table IV axis) for one workload: how bank count trades energy savings,
// idleness, lifetime, and decoder overhead — including the M=16 point the
// paper argues uniform banks make feasible — plus the voltage-scaling vs
// power-gating ablation on the low-power state itself. The whole grid
// (4 bank counts × 2 sleep modes) runs as one engine sweep: jobs that
// share a point reuse one simulation through the content-addressed
// cache, and the rest run concurrently on the worker pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"nbticache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("banksweep: ")
	bench := flag.String("bench", "gsme", "benchmark to sweep")
	sizeKB := flag.Int("size", 16, "cache size in kB")
	flag.Parse()

	eng, err := nbticache.NewEngine(nbticache.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	banks := []int{2, 4, 8, 16}
	res, err := nbticache.Sweep(context.Background(), eng, nbticache.SweepSpec{
		Name:    "banksweep",
		Benches: []string{*bench},
		SizesKB: []int{*sizeKB},
		Banks:   banks,
		Modes:   []string{"voltage-scaled", "power-gated"},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Index the grid by (banks, mode); the sweep preserves no particular
	// order guarantees beyond submission order, so key by spec.
	type point struct {
		banks int
		mode  string
	}
	grid := make(map[point]*nbticache.JobResult, len(res.Jobs))
	for _, r := range res.Jobs {
		if r.Failed() {
			log.Fatalf("job %s: %s", r.ID, r.Err)
		}
		grid[point{r.Spec.Banks, r.Spec.Mode}] = r
	}

	first := grid[point{banks[0], "voltage-scaled"}]
	st := eng.Stats()
	fmt.Printf("%s on a %d kB cache, %d accesses (%d engine workers, %d trace simulations for %d grid points)\n\n",
		*bench, *sizeKB, first.Run.Reads+first.Run.Writes,
		eng.Workers(), st.RunsExecuted-st.RunsRelabelled, len(res.Jobs))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "banks\tEsav\tavg idleness\tLT (volt-scaled)\tLT (power-gated)\tbreakeven")
	for _, m := range banks {
		vs := grid[point{m, "voltage-scaled"}]
		pg := grid[point{m, "power-gated"}]
		fmt.Fprintf(tw, "%d\t%.1f%%\t%.1f%%\t%.2f y\t%.2f y\t%d cycles\n",
			m, vs.Run.Savings*100, vs.Run.AverageIdleness()*100,
			vs.Projection.LifetimeYears, pg.Projection.LifetimeYears, vs.Run.Breakeven)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nLifetime keeps rising with M (finer partitions expose more idleness)")
	fmt.Println("while the quadratic wiring overhead flattens the energy gain — the")
	fmt.Println("paper caps practical designs at M=16. Power gating nullifies NBTI")
	fmt.Println("stress during sleep entirely, trading retention for extra years.")
}
