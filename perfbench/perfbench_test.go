package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// planKey is everything a plan asks of the program, for comparisons.
func planKey(t *testing.T, p *plan) string {
	t.Helper()
	v := struct {
		Spec                         any
		IDs                          []string
		Fresh                        bool
		NewRuns, SharedRuns, Repeats int
		Accesses                     int64
		GetJob                       int
		Delete                       []string
		UploadID                     string
		Repost                       bool
	}{Spec: p.Spec, Fresh: p.Fresh, NewRuns: p.NewRuns, SharedRuns: p.SharedRuns, Repeats: p.Repeats,
		Accesses: p.Accesses, GetJob: p.GetJob, Delete: p.Delete}
	for _, j := range p.Jobs {
		v.IDs = append(v.IDs, j.ID())
	}
	if p.Upload != nil {
		v.UploadID, v.Repost = p.Upload.ID, p.Upload.Repost
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func plans(t *testing.T, wl string, seed int64, client, n int) []string {
	t.Helper()
	g, err := newGenerator(wl, seed, client)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < n; i++ {
		p, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, planKey(t, p))
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		n := 30
		if wl == uploadMix {
			n = 9 // each new upload generates a ~128k-access trace
		}
		a, b := plans(t, wl, DevSeed, 0, n), plans(t, wl, DevSeed, 0, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: step %d differs between two generators of seed %d", wl, i, DevSeed)
			}
		}
		other := plans(t, wl, HeldOutSeed, 0, n)
		same := 0
		for i := range a {
			if a[i] == other[i] {
				same++
			}
		}
		if same == n {
			t.Errorf("%s: seeds %d and %d generate the same inputs", wl, DevSeed, HeldOutSeed)
		}
	}
}

func TestStreamTinyRepeatShare(t *testing.T) {
	const steps = 300
	everNew := make(map[string]int) // job ID -> client that introduced it
	for c := 0; c < streamClients; c++ {
		g, err := newGenerator(streamTiny, DevSeed, c)
		if err != nil {
			t.Fatal(err)
		}
		mine := make(map[string]bool)
		for i := 0; i < steps; i++ {
			p, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Jobs) != streamJobs {
				t.Fatalf("client %d step %d: %d jobs, want %d", c, i, len(p.Jobs), streamJobs)
			}
			repeats := 0
			var fresh []string
			for _, j := range p.Jobs {
				id := j.ID()
				if mine[id] {
					repeats++
					continue
				}
				if owner, ok := everNew[id]; ok {
					t.Fatalf("client %d step %d: new point %s already introduced by client %d", c, i, id, owner)
				}
				fresh = append(fresh, id)
			}
			want := streamRepeats
			if i == 0 {
				want = 0
			}
			if repeats != want || p.Repeats != want || p.NewRuns != streamJobs-want {
				t.Fatalf("client %d step %d: %d repeats (plan says %d, %d new runs), want exactly %d",
					c, i, repeats, p.Repeats, p.NewRuns, want)
			}
			for _, id := range fresh {
				everNew[id] = c
				mine[id] = true
			}
		}
	}
}

func TestUploadMixRepostShare(t *testing.T) {
	const blocks = 4
	g, err := newGenerator(uploadMix, DevSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	resident := make(map[string]bool)
	seen := make(map[string]bool)
	reposts := make([]int, blocks)
	for i := 0; i <= blocks*uploadBlock; i++ {
		p, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		up := p.Upload
		switch {
		case up.Repost && i == 0:
			t.Fatal("the warm-up step re-posts")
		case up.Repost:
			if !resident[up.ID] {
				t.Fatalf("step %d re-posts %s, which is not resident", i, up.ID)
			}
			if p.Repeats != len(p.Jobs) || p.NewRuns != 0 {
				t.Fatalf("step %d: a re-post repeats every job, plan says %d repeats, %d new runs", i, p.Repeats, p.NewRuns)
			}
			reposts[(i-1)/uploadBlock]++
		default:
			if seen[up.ID] {
				t.Fatalf("step %d uploads %s again as new content", i, up.ID)
			}
			seen[up.ID], resident[up.ID] = true, true
		}
		for _, id := range p.Delete {
			if !resident[id] || id == up.ID {
				t.Fatalf("step %d deletes %s, which is not an older resident trace", i, id)
			}
			delete(resident, id)
		}
		if len(resident) > uploadWindow {
			t.Fatalf("step %d: %d traces resident, the window is %d", i, len(resident), uploadWindow)
		}
	}
	for b, n := range reposts {
		if n != 1 {
			t.Errorf("block %d has %d re-posts, want exactly 1 in %d steps", b, n, uploadBlock)
		}
	}
}

// declared reads the metric units BENCHMARK.json declares, by name.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = make(map[string]string), make(map[string]string)
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// sameMetrics checks that a result carries exactly the declared metrics,
// each with its declared unit.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s is %+v, declared with unit %q", what, name, m, unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	e2e, layers := declared(t)
	ctx := context.Background()
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			res, problems, err := runUntraced(ctx, wl, DevSeed, 2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(problems) > 0 {
				t.Fatalf("untraced run: correct=%v failed=%d of %d, problems %v", res.Correct, res.Failed, res.Attempted, problems)
			}
			sameMetrics(t, "untraced run", res.Metrics, e2e)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is not positive: %v", name, m.Value)
				}
			}
			dir := t.TempDir()
			res, problems, err = runTraced(ctx, wl, DevSeed, dir, filepath.Join(dir, "spans.json"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(problems) > 0 {
				t.Fatalf("traced run: correct=%v failed=%d of %d, problems %v", res.Correct, res.Failed, res.Attempted, problems)
			}
			sameMetrics(t, "traced run", res.Metrics, layers)
		})
	}
}

// TestHeldOutSeed pins that the held-out seed is a distinct, working
// seed whose result digest is the same on the engine and on the kernel
// called directly, so later claims can be confirmed on it.
func TestHeldOutSeed(t *testing.T) {
	if HeldOutSeed == DevSeed {
		t.Fatal("the held-out seed must differ from the development seed")
	}
	if testing.Short() {
		t.Skip("runs the stream-tiny ladder")
	}
	ctx := context.Background()
	ref, err := newReference(genFor(streamTiny))
	if err != nil {
		t.Fatal(err)
	}
	if err := prepare(streamTiny); err != nil {
		t.Fatal(err)
	}
	ck := newChecker(ref)
	defer ck.close()
	core, err := coreRung(ctx, streamTiny, HeldOutSeed, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := coreRung(ctx, streamTiny, HeldOutSeed, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := systemRung(ctx, streamTiny, HeldOutSeed, rungEngine, t.TempDir(), ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if core.digest != again.digest || eng.digest != core.digest {
		t.Fatalf("held-out seed digests differ: core %s, core again %s, engine %s", core.digest, again.digest, eng.digest)
	}
	if p := ck.report(); len(p) > 0 {
		t.Fatalf("problems on the held-out seed: %v", p)
	}
}
