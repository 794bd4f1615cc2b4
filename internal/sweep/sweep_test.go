package sweep

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"powerfits/internal/archive"
	"powerfits/internal/cache"
	"powerfits/internal/metrics"
	"powerfits/internal/profile"
)

// testGrid is a small space with a built-in infeasible slab: crc32
// needs 22 opcode points, so every ForceK=4 point fails synthesis.
func testGrid() Grid {
	return Grid{
		Kernel:   "crc32",
		Scale:    1,
		Ks:       []int{4, 5},
		DictCaps: []int{16, 64},
		Ablations: []Ablation{
			FullISA(),
		},
		Caches: []cache.Config{
			{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 32},
			{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 32},
		},
	}
}

func marshalDoc(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := r.Document().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepLogsPrepareStages: a sweep given a logger forwards it to
// every point's preparation, which reports its per-stage wall-clock.
func TestSweepLogsPrepareStages(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	if _, err := Run(Options{Grid: testGrid(), NoRefine: true, Log: log}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `msg="prepare stages"`) {
		t.Fatalf("no prepare stages records in sweep log:\n%s", out)
	}
	if !strings.Contains(out, "synth_sec=") || !strings.Contains(out, "kernel=crc32") {
		t.Errorf("prepare stages record lacks its stage timings:\n%s", out)
	}
}

// TestSweepDeterministicAcrossWorkers is the core determinism claim:
// the frontier document is byte-identical at any fan-out.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var docs [][]byte
	for _, workers := range []int{1, 8} {
		res, err := Run(Options{
			Grid:    testGrid(),
			Workers: workers,
			Store:   archive.NewStore(t.TempDir()),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points != 8 {
			t.Fatalf("visited %d points, want 8", res.Stats.Points)
		}
		if res.Stats.Infeasible != 4 {
			t.Fatalf("%d infeasible points, want 4 (the ForceK=4 slab)", res.Stats.Infeasible)
		}
		if len(res.Frontier) == 0 {
			t.Fatal("empty frontier")
		}
		docs = append(docs, marshalDoc(t, res))
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("documents differ between -j1 and -j8:\n%s\nvs\n%s", docs[0], docs[1])
	}
}

// TestSweepWarmResweepSkipsEverything is the incremental layer's
// contract: a second sweep over a warm store simulates nothing and
// reproduces the document byte for byte.
func TestSweepWarmResweepSkipsEverything(t *testing.T) {
	store := archive.NewStore(t.TempDir())
	reg := metrics.NewRegistry()
	cold, err := Run(Options{Grid: testGrid(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Evaluated != 8 || cold.Stats.ArchiveSkips != 0 {
		t.Fatalf("cold run: evaluated=%d skips=%d, want 8/0", cold.Stats.Evaluated, cold.Stats.ArchiveSkips)
	}
	if cold.Stats.Refined != len(cold.Frontier) || cold.Stats.RefineSkips != 0 {
		t.Fatalf("cold run refined %d/%d, skipped %d", cold.Stats.Refined, len(cold.Frontier), cold.Stats.RefineSkips)
	}
	// The memoization layer: one profile run feeds every preparation
	// (including the exact refinement re-preparations).
	if cold.Stats.ProfileRuns != 1 {
		t.Fatalf("cold run collected %d profiles, want 1", cold.Stats.ProfileRuns)
	}
	if cold.Stats.MemoHits < 3 {
		t.Fatalf("cold run saw %d memo hits, want ≥ 3", cold.Stats.MemoHits)
	}

	warm, err := Run(Options{Grid: testGrid(), Store: store, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Evaluated != 0 {
		t.Fatalf("warm run evaluated %d points, want 0", warm.Stats.Evaluated)
	}
	if warm.Stats.ArchiveSkips != warm.Stats.Points {
		t.Fatalf("warm run: skips=%d points=%d, want all skips", warm.Stats.ArchiveSkips, warm.Stats.Points)
	}
	if warm.Stats.Refined != 0 || warm.Stats.RefineSkips != len(warm.Frontier) {
		t.Fatalf("warm refinement ran: refined=%d refineSkips=%d frontier=%d",
			warm.Stats.Refined, warm.Stats.RefineSkips, len(warm.Frontier))
	}
	if warm.Stats.ProfileRuns != 0 {
		t.Fatalf("warm run collected %d profiles, want 0", warm.Stats.ProfileRuns)
	}
	if a, b := marshalDoc(t, cold), marshalDoc(t, warm); !bytes.Equal(a, b) {
		t.Fatalf("warm document differs from cold:\n%s\nvs\n%s", a, b)
	}

	// The live gauges reflect the finished run.
	snap := reg.Snapshot()
	want := map[string]float64{
		"sweep/points_total":  8,
		"sweep/points_done":   8,
		"sweep/evaluated":     0,
		"sweep/archive_skips": 8,
		"sweep/infeasible":    4,
	}
	got := map[string]float64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("gauge %s = %v, want %v", name, got[name], v)
		}
	}
}

// TestSweepKillAndResume interrupts a sweep (via fuel) and resumes it
// over the same store: the finished document must be byte-identical to
// an uninterrupted sweep's.
func TestSweepKillAndResume(t *testing.T) {
	store := archive.NewStore(t.TempDir())
	partial, err := Run(Options{Grid: testGrid(), Store: store, Fuel: 3, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Stats.Points != 3 || partial.Stats.Evaluated != 3 {
		t.Fatalf("interrupted run visited %d evaluated %d, want 3/3", partial.Stats.Points, partial.Stats.Evaluated)
	}

	resumed, err := Run(Options{Grid: testGrid(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.ArchiveSkips != 3 || resumed.Stats.Evaluated != 5 {
		t.Fatalf("resumed run: skips=%d evaluated=%d, want 3/5", resumed.Stats.ArchiveSkips, resumed.Stats.Evaluated)
	}

	fresh, err := Run(Options{Grid: testGrid(), Store: archive.NewStore(t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalDoc(t, resumed), marshalDoc(t, fresh); !bytes.Equal(a, b) {
		t.Fatalf("resumed document differs from uninterrupted:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepExactMatchesSampledIdentities checks that exact sweeps keep
// their own archive namespace: an exact sweep over a store warmed by a
// sampled sweep must still evaluate (a sampled record never serves an
// exact probe).
func TestSweepExactMatchesSampledIdentities(t *testing.T) {
	g := testGrid()
	g.Ks = []int{5}
	g.DictCaps = []int{64}
	g.Caches = g.Caches[:1] // one point
	store := archive.NewStore(t.TempDir())
	if _, err := Run(Options{Grid: g, Store: store, NoRefine: true}); err != nil {
		t.Fatal(err)
	}
	exact, err := Run(Options{Grid: g, Store: store, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Evaluated != 1 {
		t.Fatalf("exact sweep reused a sampled record (evaluated=%d)", exact.Stats.Evaluated)
	}
	// And the warm exact re-sweep skips.
	warm, err := Run(Options{Grid: g, Store: store, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Evaluated != 0 {
		t.Fatalf("warm exact sweep evaluated %d", warm.Stats.Evaluated)
	}
}

// TestSweepSharedProfileCache proves the memoization boundary is the
// program content, not the sweep: two sweeps of the same kernel
// through one cache share a single profile run.
func TestSweepSharedProfileCache(t *testing.T) {
	pc := profile.NewCache()
	g := testGrid()
	g.Ks = []int{5}
	if _, err := Run(Options{Grid: g, Profiles: pc, NoRefine: true}); err != nil {
		t.Fatal(err)
	}
	second, err := Run(Options{Grid: g, Profiles: pc, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ProfileRuns != 0 {
		t.Fatalf("second sweep collected %d profiles despite a shared warm cache", second.Stats.ProfileRuns)
	}
	if _, runs := pc.Stats(); runs != 1 {
		t.Fatalf("cache ran %d collections across two sweeps, want 1", runs)
	}
}

// TestStochasticStrategiesDeterministic: a seeded strategy visits the
// same points and produces the same document on every run.
func TestStochasticStrategiesDeterministic(t *testing.T) {
	for _, name := range []string{"random", "anneal"} {
		var docs [][]byte
		for rep := 0; rep < 2; rep++ {
			strat, err := NewStrategy(name, 42, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Options{
				Grid:     testGrid(),
				Strategy: strat,
				Workers:  4,
				NoRefine: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Points == 0 {
				t.Fatalf("%s visited nothing", name)
			}
			docs = append(docs, marshalDoc(t, res))
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Errorf("strategy %s is not deterministic under a fixed seed", name)
		}
	}
}

// TestAnnealingRespectsFuel bounds a stochastic search by fuel.
func TestAnnealingRespectsFuel(t *testing.T) {
	res, err := Run(Options{
		Grid:     testGrid(),
		Strategy: &Annealing{Seed: 7, Steps: 50},
		Fuel:     4,
		NoRefine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points > 4 {
		t.Fatalf("fuel 4 but %d points visited", res.Stats.Points)
	}
}

// TestFrontierDominance checks Pareto selection on synthetic points.
func TestFrontierDominance(t *testing.T) {
	mk := func(idx int, e float64, code int, cyc uint64) *PointResult {
		return &PointResult{
			Point:   Point{Index: idx},
			Label:   "p",
			Metrics: PointMetrics{EnergyPJ: e, CodeBytes: code, Cycles: cyc},
		}
	}
	pts := []*PointResult{
		mk(0, 100, 400, 1000), // dominated by 1
		mk(1, 90, 400, 1000),
		mk(2, 200, 300, 1200), // frontier (best code)
		mk(3, 80, 500, 900),   // frontier (best energy+cycles)
		{Point: Point{Index: 4}, Infeasible: "no encoding"}, // excluded
		nil,                  // unvisited
		mk(6, 90, 400, 1000), // tie with 1 — both kept
	}
	front := frontier(pts)
	got := map[int]bool{}
	for _, p := range front {
		got[p.Point.Index] = true
	}
	for _, want := range []int{1, 2, 3, 6} {
		if !got[want] {
			t.Errorf("frontier missing point %d (have %v)", want, got)
		}
	}
	if got[0] || got[4] {
		t.Errorf("frontier kept a dominated or infeasible point: %v", got)
	}
	if front[0].Point.Index != 3 {
		t.Errorf("frontier not sorted by energy: first is %d", front[0].Point.Index)
	}
}
