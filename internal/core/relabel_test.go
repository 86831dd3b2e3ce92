package core

import (
	"fmt"
	"strings"
	"testing"

	"nbticache/internal/cache"
	"nbticache/internal/index"
	"nbticache/internal/trace"
)

// runDirect simulates cfg on tr with the fused kernel, or with the
// general scatter kernel when general is set.
func runDirect(t *testing.T, cfg Config, tr *trace.Trace, general bool) *RunResult {
	t.Helper()
	pc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !general && !pc.fusable {
		t.Fatal("direct-mapped config not fusable")
	}
	pc.forceGeneral = general
	res, err := pc.RunBuffered(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRelabelMatchesDirect is the relabelling oracle: a run without
// updates, relabelled under any policy, is bit-identical to simulating
// that policy directly — energy and savings included — on either
// kernel, from any base policy, whether cfg disables updates or sets a
// cadence longer than the trace.
func TestRelabelMatchesDirect(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	const n = 5000
	type point struct {
		pol     index.Kind
		seed    uint
		ue      uint64
		general bool
	}
	var points []point
	for _, pol := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
		for _, seed := range []uint{0, 5} {
			for _, ue := range []uint64{0, n + 1} {
				for _, general := range []bool{false, true} {
					points = append(points, point{pol, seed, ue, general})
				}
			}
		}
	}
	seed := int64(300)
	for _, banks := range []int{2, 4, 8, 16, 64, 256} {
		seed++
		tr := oracleTrace(seed, n, g)
		cfgOf := func(p point) Config {
			return Config{Geometry: g, Banks: banks, Policy: p.pol, LFSRSeed: p.seed, UpdateEvery: p.ue}
		}
		direct := make([]*RunResult, len(points))
		for i, p := range points {
			direct[i] = runDirect(t, cfgOf(p), tr, p.general)
			if direct[i].Updates != 0 {
				t.Fatalf("banks %d %+v: %d updates fired", banks, p, direct[i].Updates)
			}
		}
		for bi, bp := range points {
			if bp.ue != 0 {
				continue
			}
			for ti, tp := range points {
				got, err := Relabel(direct[bi], cfgOf(tp))
				if err != nil {
					t.Fatalf("banks %d: relabel %+v -> %+v: %v", banks, bp, tp, err)
				}
				requireIdentical(t, fmt.Sprintf("banks %d: relabel %+v -> direct %+v", banks, bp, tp), direct[ti], got)
			}
		}
	}
}

// TestRelabelDoesNotAlias: a relabelled run owns its stats, so a caller
// annotating one run cannot reach into another.
func TestRelabelDoesNotAlias(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	base := runDirect(t, Config{Geometry: g, Banks: 4, Policy: index.KindIdentity}, oracleTrace(9, 1000, g), false)
	want := *base
	want.RegionStats = append(want.RegionStats[:0:0], base.RegionStats...)
	want.BankStats = append(want.BankStats[:0:0], base.BankStats...)
	got, err := Relabel(base, Config{Geometry: g, Banks: 4, Policy: index.KindProbing})
	if err != nil {
		t.Fatal(err)
	}
	got.RegionStats[0].Accesses++
	got.BankStats[0].Accesses++
	requireIdentical(t, "base after relabel", &want, base)
}

func TestRelabelRejects(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	tr := oracleTrace(11, 2000, g)
	base := runDirect(t, Config{Geometry: g, Banks: 8, Policy: index.KindIdentity}, tr, false)
	updated := runDirect(t, Config{Geometry: g, Banks: 8, Policy: index.KindIdentity, UpdateEvery: 700}, tr, false)
	if updated.Updates == 0 {
		t.Fatal("no update fired")
	}
	for _, tc := range []struct {
		name string
		base *RunResult
		cfg  Config
		want string
	}{
		{"base with updates", updated, Config{Geometry: g, Banks: 8, Policy: index.KindProbing}, "re-indexing updates"},
		{"fewer banks", base, Config{Geometry: g, Banks: 4, Policy: index.KindProbing}, "8-bank run into 4 banks"},
		{"more banks", base, Config{Geometry: g, Banks: 16, Policy: index.KindProbing}, "8-bank run into 16 banks"},
		{"update within trace", base, Config{Geometry: g, Banks: 8, Policy: index.KindProbing, UpdateEvery: 2000}, "update fires within"},
		{"other breakeven", base, Config{Geometry: g, Banks: 8, Policy: index.KindProbing, BreakevenOverride: base.Breakeven + 1}, "breakeven"},
		{"invalid config", base, Config{Geometry: g, Banks: 8, Policy: "bogus"}, "unknown policy"},
	} {
		if _, err := Relabel(tc.base, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFusedGeneralHandOver pins the bank-PMU hand-over: the fused
// kernel accounts only the region PMU until the first update and then
// fills the bank PMU from it, while the general kernel feeds the bank
// PMU from the first access. The two must agree bit for bit whether the
// first update fires on a chunk boundary, inside a chunk, or on the
// trace's last access.
func TestFusedGeneralHandOver(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	const n, chunk = 5000, 1000
	for _, tc := range []struct {
		name    string
		ue      uint64
		updates uint64
	}{
		{"first access", 1, n},
		{"chunk boundary", chunk, n / chunk},
		{"mid-chunk", chunk + chunk/2, n / (chunk + chunk/2)},
		{"last access", n, 1},
	} {
		for _, pol := range []index.Kind{index.KindIdentity, index.KindProbing, index.KindScrambling} {
			for _, banks := range []int{2, 8, 64} {
				cfg := Config{Geometry: g, Banks: banks, Policy: pol, UpdateEvery: tc.ue}
				tr := oracleTrace(int64(400+banks), n, g)
				var res [2]*RunResult
				for k, general := range []bool{false, true} {
					pc, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					pc.forceGeneral = general
					if res[k], err = pc.RunBuffered(tr, NewBatch(chunk)); err != nil {
						t.Fatal(err)
					}
					if pc.bankPending {
						t.Fatalf("%s %s/%d general=%v: bank PMU still deferred after %d updates", tc.name, pol, banks, general, res[k].Updates)
					}
				}
				if res[0].Updates != tc.updates {
					t.Fatalf("%s: %d updates, want %d", tc.name, res[0].Updates, tc.updates)
				}
				requireIdentical(t, fmt.Sprintf("%s %s/%d: fused vs general", tc.name, pol, banks), res[1], res[0])
			}
		}
	}
}

// TestInvalidKindTalliesAsRead: the kernels count writes and derive
// reads from the applied count, so a kind outside the enumeration —
// admitted only by RunColumnsUnchecked — tallies as a read on both.
func TestInvalidKindTalliesAsRead(t *testing.T) {
	g := cache.Geometry{Size: 16 * 1024, LineSize: 16, Ways: 1, AddressBits: 32}
	cols := trace.FromRows(oracleTrace(13, 3000, g))
	var writes uint64
	for i := range cols.Kinds {
		if i%5 == 0 {
			cols.Kinds[i] = trace.Kind(7)
		}
		if cols.Kinds[i] == trace.Write {
			writes++
		}
	}
	for _, general := range []bool{false, true} {
		pc, err := New(Config{Geometry: g, Banks: 4, Policy: index.KindProbing, UpdateEvery: 1000})
		if err != nil {
			t.Fatal(err)
		}
		pc.forceGeneral = general
		res, err := pc.RunColumnsUnchecked(cols, NewBatch(256))
		if err != nil {
			t.Fatal(err)
		}
		if res.Writes != writes || res.Reads != uint64(cols.Len())-writes {
			t.Errorf("general=%v: reads/writes %d/%d, want %d/%d", general, res.Reads, res.Writes, uint64(cols.Len())-writes, writes)
		}
	}
}
