package sweep

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"powerfits/internal/archive"
	"powerfits/internal/cache"
	"powerfits/internal/experiments"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
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
// every image's preparation, which reports its per-stage wall-clock.
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

// stageRecords counts the "prepare stages" records in a text log: the
// baselines (sim.PrepareBaseline, which times the build) and the FITS
// halves (Setup.WithFITS, which times synthesis).
func stageRecords(log string) (baselines, fits int) {
	for _, line := range strings.Split(log, "\n") {
		if !strings.Contains(line, `msg="prepare stages"`) {
			continue
		}
		if strings.Contains(line, "build_sec=") {
			baselines++
		}
		if strings.Contains(line, "synth_sec=") {
			fits++
		}
	}
	return baselines, fits
}

// TestSweepPreparesOncePerImage: the cache geometries of one synthesis
// image share its preparation, so a sweep logs one FITS-half "prepare
// stages" record per feasible image, not one per feasible point, beside
// its one baseline record.
func TestSweepPreparesOncePerImage(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	res, err := Run(Options{Grid: testGrid(), NoRefine: true, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if feasible := res.Stats.Points - res.Stats.Infeasible; feasible != 4 {
		t.Fatalf("%d feasible points, want 4 (2 images x 2 caches)", feasible)
	}
	if baselines, fits := stageRecords(buf.String()); baselines != 1 || fits != 2 {
		t.Fatalf("%d baseline and %d FITS-half records, want 1 and 2 (one per feasible image)", baselines, fits)
	}
}

// TestSweepStopsAfterFirstError: once an image job fails, no queued
// job starts. With one worker and a store whose directory is a regular
// file, the first image's save fails, so of the grid's 8 images only
// that one is prepared.
func TestSweepStopsAfterFirstError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	g.Ks, g.DictCaps = []int{5, 6}, []int{16, 32, 64, 128}
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	if _, err := Run(Options{Grid: g, Workers: 1, Store: archive.NewStore(dir), Log: log}); err == nil {
		t.Fatal("sweep into an unwritable store succeeded")
	}
	if _, fits := stageRecords(buf.String()); fits != 1 {
		t.Fatalf("%d FITS-half records after the first failed job, want 1", fits)
	}
}

// TestSweepBuildsBaselineOnce: a sweep builds its kernel's ARM baseline
// once however many images and workers it has, across the sampled
// phase and the exact refinement alike, and a warm re-sweep builds
// none. The kernel's Build counts the builds beside the stage records.
func TestSweepBuildsBaselineOnce(t *testing.T) {
	k := kernels.MustGet("crc32")
	var builds atomic.Int32
	build := k.Build
	k.Build = func(scale int) *program.Program {
		builds.Add(1)
		return build(scale)
	}
	store := archive.NewStore(t.TempDir())
	for _, cold := range []bool{true, false} {
		builds.Store(0)
		var buf bytes.Buffer
		log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
		res, err := run(Options{Grid: testGrid(), Workers: 4, Store: store, Log: log}, k)
		if err != nil {
			t.Fatal(err)
		}
		// Cold: one baseline, the two feasible sampled images, then the
		// frontier's images refined exactly. Warm: nothing.
		wantBaselines, wantFits := 0, 0
		if cold {
			if res.Stats.Refined == 0 {
				t.Fatal("cold run refined nothing")
			}
			wantBaselines, wantFits = 1, 2+countImages(res.Frontier)
		}
		baselines, fits := stageRecords(buf.String())
		if baselines != wantBaselines || int(builds.Load()) != wantBaselines || fits != wantFits {
			t.Fatalf("cold=%v: %d baseline records, %d builds and %d FITS-half records, want %d, %d and %d",
				cold, baselines, builds.Load(), fits, wantBaselines, wantBaselines, wantFits)
		}
	}
}

// countImages counts the distinct synthesis images among prs.
func countImages(prs []*PointResult) int {
	keys := map[string]bool{}
	for _, pr := range prs {
		keys[pr.Point.Options(synth.Options{}).Key()] = true
	}
	return len(keys)
}

// TestSweepBaselineFailureIsAnError: a kernel whose baseline cannot be
// built fails the sweep instead of marking its points infeasible.
func TestSweepBaselineFailureIsAnError(t *testing.T) {
	k := kernels.MustGet("crc32")
	build := k.Build
	k.Build = func(scale int) *program.Program {
		p := build(scale)
		p.Entry = -1
		return p
	}
	store := archive.NewStore(t.TempDir())
	res, err := run(Options{Grid: testGrid(), Store: store}, k)
	if err == nil {
		t.Fatalf("sweep over an unbuildable baseline succeeded: %+v", res.Stats)
	}
	if !strings.Contains(err.Error(), "entry -1 out of range") {
		t.Fatalf("sweep error %q does not name the baseline's fault", err)
	}
	if ids, err := store.List(); err != nil || len(ids) != 0 {
		t.Fatalf("failed sweep archived %d points (%v)", len(ids), err)
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

// TestSweepResumesPartialImage resumes a sweep whose store holds only
// part of a feasible image: fuel 5 stops after k5.d16.full.4K, leaving
// its 8K sibling unvisited. The resumed run evaluates only the missing
// points and yields the uninterrupted document.
func TestSweepResumesPartialImage(t *testing.T) {
	store := archive.NewStore(t.TempDir())
	partial, err := Run(Options{Grid: testGrid(), Store: store, Fuel: 5, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	if last := partial.Points[4]; last == nil || last.Label != "k5.d16.full.4K" {
		t.Fatalf("fuel 5 did not stop after k5.d16.full.4K: %+v", last)
	}
	if partial.Points[5] != nil || g.Point(5).Label() != "k5.d16.full.8K" {
		t.Fatalf("fuel 5 visited k5.d16.full.8K")
	}

	resumed, err := Run(Options{Grid: testGrid(), Store: store, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.ArchiveSkips != 5 || resumed.Stats.Evaluated != 3 {
		t.Fatalf("resumed run: skips=%d evaluated=%d, want 5/3", resumed.Stats.ArchiveSkips, resumed.Stats.Evaluated)
	}
	fresh, err := Run(Options{Grid: testGrid(), Store: archive.NewStore(t.TempDir()), NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalDoc(t, resumed), marshalDoc(t, fresh); !bytes.Equal(a, b) {
		t.Fatalf("resumed document differs from uninterrupted:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepMatchesPerPointEvaluation: evaluating a synthesis image's
// geometries together changes no number. Every point is rebuilt with
// its own preparation and a standalone Run or RunSampled, and the
// sweep's document must match byte for byte, sampled with refinement
// and exact. crc32's FITS text fits every cache, so its three
// geometries share one pass; jpeg's does not fit 4 KB, so its 4K point
// runs alone and 8K+16K share a pass.
func TestSweepMatchesPerPointEvaluation(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		passes int
	}{{"crc32", 1}, {"jpeg", 2}} {
		t.Run(tc.kernel, func(t *testing.T) {
			g := DefaultGrid(tc.kernel, 1)
			g.DictCaps = []int{64}
			g.Ablations = AllAblations()
			sampled, exact := perPointResults(t, g, tc.passes)
			for _, mode := range []bool{false, true} {
				res, err := Run(Options{Grid: g, Exact: mode, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				want := &Result{Grid: res.Grid, Strategy: res.Strategy, Exact: mode, Points: sampled}
				if mode {
					want.Points = exact
				}
				// Membership is the sweep's; every member carries its
				// exact numbers (refined, or exact all along).
				for _, pr := range res.Frontier {
					want.Frontier = append(want.Frontier, exact[pr.Point.Index])
				}
				if a, b := marshalDoc(t, res), marshalDoc(t, want); !bytes.Equal(a, b) {
					t.Fatalf("exact=%v: sweep document differs from per-point evaluation:\n%s\nvs\n%s", mode, a, b)
				}
			}
		})
	}
}

// perPointResults evaluates every point of g on its own, as a sweep did
// before images shared a preparation: one PrepareWith per point, then a
// standalone RunSampled and Run. It also checks that a feasible image's
// geometries split into the expected number of timing passes.
func perPointResults(t *testing.T, g Grid, passes int) (sampled, exact []*PointResult) {
	t.Helper()
	k, err := kernels.Get(g.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	cal := power.DefaultCalibration()
	calBlob, err := json.Marshal(cal)
	if err != nil {
		t.Fatal(err)
	}
	profiles := profile.NewCache()
	checked := false
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		popts := p.Options(synth.Options{})
		var prs [2]*PointResult
		for j, fidelity := range []bool{true, false} {
			sp := archive.SweepPoint{
				Kernel: g.Kernel, Scale: g.Scale, Label: p.Label(), OptionsKey: popts.Key(),
				CacheBytes: p.Cache.SizeBytes, CacheLine: p.Cache.LineBytes, CacheAssoc: p.Cache.Assoc,
				Sampled: fidelity,
			}
			prs[j] = &PointResult{Point: p, Label: p.Label(), RunID: archive.SweepRunID(&sp, calBlob), Sampled: fidelity}
		}
		s, err := sim.PrepareWith(k, g.Scale, sim.PrepareOptions{Synth: popts, Profiles: profiles})
		if err != nil {
			prs[0].Infeasible, prs[1].Infeasible = err.Error(), err.Error()
		} else {
			cfg := sim.Config{Name: p.Label(), ISA: sim.ISAFITS, Cache: p.Cache}
			rs, err := s.RunSampled(cfg, cal, sim.SampleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rx, err := s.Run(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			for j, r := range []*sim.Result{rs, rx} {
				prs[j].Metrics = PointMetrics{
					K: s.Synth.K, DictEntries: s.Synth.DictEntries, CodeBytes: s.Fits.Image.Size(),
					Cycles: r.Pipe.Cycles, Instrs: r.Pipe.Instrs,
					Fetches: r.Cache.Accesses, Misses: r.Cache.Misses,
					EnergyPJ: r.Power.TotalPJ(),
				}
			}
			if !checked {
				cfgs := make([]sim.Config, len(g.Caches))
				for c, geom := range g.Caches {
					cfgs[c] = sim.Config{Name: CacheLabel(geom), ISA: sim.ISAFITS, Cache: geom}
				}
				if got, err := s.Passes(cfgs); err != nil || len(got) != passes {
					t.Fatalf("%s: %d timing passes over the grid's caches (%v), want %d", p.Label(), len(got), err, passes)
				}
				checked = true
			}
		}
		sampled = append(sampled, prs[0])
		exact = append(exact, prs[1])
	}
	return sampled, exact
}

// TestSweepMemoHitsGaugeIsPerRun: with a profile cache shared across
// sweeps, the live memo_hits gauge counts this run's hits, never the
// cache's lifetime total, and ends at Stats.MemoHits.
func TestSweepMemoHitsGaugeIsPerRun(t *testing.T) {
	pc := profile.NewCache()
	reg := metrics.NewRegistry()
	gauge := func() float64 {
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "sweep/memo_hits" {
				return g.Value
			}
		}
		return 0
	}
	if _, err := Run(Options{Grid: testGrid(), Profiles: pc, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var peak float64
	second, err := Run(Options{Grid: testGrid(), Profiles: pc, Metrics: reg, Workers: 1,
		Progress: func(experiments.ProgressEvent) { peak = max(peak, gauge()) }})
	if err != nil {
		t.Fatal(err)
	}
	final := float64(second.Stats.MemoHits)
	if final == 0 {
		t.Fatal("second sweep saw no memo hits")
	}
	if peak > final {
		t.Fatalf("memo_hits gauge peaked at %v during the sweep, above its final %v", peak, final)
	}
	if got := gauge(); got != final {
		t.Fatalf("memo_hits gauge ends at %v, want Stats.MemoHits %v", got, final)
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
