package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
	"powerfits/internal/tracing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

// tracedSetup prepares crc32 once for the tracing tests.
func tracedSetup(t *testing.T) *Setup {
	t.Helper()
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// comparePlainTraced asserts a traced result is identical to a plain
// one: pipeline counters, outputs, cache stats and power report.
func comparePlainTraced(t *testing.T, tag string, plain, traced *Result) {
	t.Helper()
	if !reflect.DeepEqual(*plain.Pipe, *traced.Pipe) {
		t.Errorf("%s: pipeline results diverge:\nplain:  %+v\ntraced: %+v", tag, plain.Pipe, traced.Pipe)
	}
	if plain.Cache != traced.Cache {
		t.Errorf("%s: cache stats diverge: %+v vs %+v", tag, plain.Cache, traced.Cache)
	}
	if plain.Power != traced.Power {
		t.Errorf("%s: power reports diverge: %+v vs %+v", tag, plain.Power, traced.Power)
	}
}

// TestTracedRunMatchesPlainRun asserts attaching an event sink changes
// nothing observable: the traced run's result is bit-identical to the
// plain run's across all four configurations, and the event stream
// reconciles with the result's own counters (the stall events ARE the
// CPI stack, per cause).
func TestTracedRunMatchesPlainRun(t *testing.T) {
	s := tracedSetup(t)
	cal := power.DefaultCalibration()
	for _, cfg := range Configs {
		plain, err := s.Run(cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		var c tracing.Counts
		traced, err := first(s.RunAll([]Config{cfg}, cal, RunOptions{Sink: &c}))
		if err != nil {
			t.Fatal(err)
		}
		comparePlainTraced(t, cfg.Name, plain, traced)
		if got := c.Kind[tracing.KindFetch] + c.Kind[tracing.KindMiss]; got != traced.Cache.Accesses {
			t.Errorf("%s: %d fetch+miss events, cache counts %d accesses", cfg.Name, got, traced.Cache.Accesses)
		}
		if c.Kind[tracing.KindMiss] != traced.Cache.Misses {
			t.Errorf("%s: %d miss events, cache counts %d misses", cfg.Name, c.Kind[tracing.KindMiss], traced.Cache.Misses)
		}
		p := traced.Pipe
		if c.StallCycles[tracing.CauseMiss] != p.ZeroIssueMiss ||
			c.StallCycles[tracing.CauseBubble] != p.ZeroIssueBubble ||
			c.StallCycles[tracing.CauseFetch] != p.ZeroIssueFetch ||
			c.StallCycles[tracing.CauseHazard] != p.ZeroIssueHazard {
			t.Errorf("%s: per-cause stall events %v, CPI stack %d/%d/%d/%d", cfg.Name, c.StallCycles,
				p.ZeroIssueMiss, p.ZeroIssueBubble, p.ZeroIssueFetch, p.ZeroIssueHazard)
		}
		if c.Kind[tracing.KindBranch] != p.Branches || c.Kind[tracing.KindMispredict] != p.Mispredicts {
			t.Errorf("%s: branch/mispredict events %d/%d, result %d/%d", cfg.Name,
				c.Kind[tracing.KindBranch], c.Kind[tracing.KindMispredict], p.Branches, p.Mispredicts)
		}
	}
	// Nil sink: an observed run degenerates to Run exactly.
	plain, err := s.Run(FITS8, cal)
	if err != nil {
		t.Fatal(err)
	}
	nilTraced, err := first(s.RunAll([]Config{FITS8}, cal, RunOptions{Sink: nil}))
	if err != nil {
		t.Fatal(err)
	}
	comparePlainTraced(t, "nil-sink", plain, nilTraced)
}

// TestProfilerConservation is the attribution profiler's acceptance
// gate: the energy folded onto blocks sums — bit-for-bit, not within a
// tolerance — to the meter's own access-energy counter, for every
// kernel × configuration. The per-block re-sum must agree too, up to
// float64 reassociation.
func TestProfilerConservation(t *testing.T) {
	cal := power.DefaultCalibration()
	names := []string{"crc32", "bitcount", "jpeg"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		s, err := PrepareWith(kernels.MustGet(name), 1, PrepareOptions{Synth: synth.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range Configs {
			prof, err := s.NewProfiler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := first(s.RunAll([]Config{cfg}, cal, RunOptions{Sink: prof}))
			if err != nil {
				t.Fatal(err)
			}
			if r.AccessPJ == 0 {
				t.Fatalf("%s/%s: run metered no access energy", name, cfg.Name)
			}
			if prof.TotalPJ() != r.AccessPJ {
				t.Errorf("%s/%s: attributed %v pJ, metered %v pJ (must be identical)",
					name, cfg.Name, prof.TotalPJ(), r.AccessPJ)
			}
			if re := relErr(prof.BlockPJ(), prof.TotalPJ()); re > 1e-12 {
				t.Errorf("%s/%s: per-block re-sum off by %v relative", name, cfg.Name, re)
			}
			var fetches, misses uint64
			for _, row := range prof.Table(0) {
				fetches += row.Fetches
				misses += row.Misses
			}
			if fetches != r.Cache.Accesses || misses != r.Cache.Misses {
				t.Errorf("%s/%s: profiler saw %d/%d fetches/misses, cache %d/%d",
					name, cfg.Name, fetches, misses, r.Cache.Accesses, r.Cache.Misses)
			}
		}
	}
}

// TestSampledTracedMatchesSampled asserts the traced sampled run
// estimates exactly what the untraced one does, and that the stream
// carries the sampling structure: window boundaries bracketing every
// measured window and superblock events from the fast-forwards.
func TestSampledTracedMatchesSampled(t *testing.T) {
	s := tracedSetup(t)
	cal := power.DefaultCalibration()
	plain, err := s.RunSampled(ARM16, cal, SampleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var c tracing.Counts
	traced, err := first(s.RunAll([]Config{ARM16}, cal, RunOptions{Sample: &SampleOptions{}, Sink: &c}))
	if err != nil {
		t.Fatal(err)
	}
	comparePlainTraced(t, "sampled", plain, traced)
	if plain.Sampled.Exact {
		t.Fatal("crc32 fell back to exact — the sampling structure is untested")
	}
	if c.Kind[tracing.KindWindow] == 0 {
		t.Error("no window boundary events")
	}
	if c.Kind[tracing.KindSuperblock] == 0 {
		t.Error("no superblock events from the fast-forwards")
	}
	if c.Kind[tracing.KindFetch] == 0 || c.Kind[tracing.KindStall] == 0 {
		t.Error("detailed segments emitted no pipeline events")
	}
}

// TestSampledTracedFallbackConserves drives the short-run fallback with
// a profiler attached: the rerun re-binds a fresh meter, the profiler
// resets, and conservation holds against the result that was actually
// returned.
func TestSampledTracedFallbackConserves(t *testing.T) {
	s := tracedSetup(t)
	cal := power.DefaultCalibration()
	prof, err := s.NewProfiler(ARM16)
	if err != nil {
		t.Fatal(err)
	}
	r, err := first(s.RunAll([]Config{ARM16}, cal, RunOptions{Sample: &SampleOptions{MinWindows: 1 << 20}, Sink: prof}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampled == nil || !r.Sampled.Exact {
		t.Fatalf("expected exact fallback, got %+v", r.Sampled)
	}
	if prof.TotalPJ() != r.AccessPJ {
		t.Errorf("fallback: attributed %v pJ, metered %v pJ", prof.TotalPJ(), r.AccessPJ)
	}
}

// TestSampledAllocsPinned pins the steady-state allocation count of a
// timing run, sampled and exact, one configuration and a shared pass of
// two. The sampled estimator hoists its per-window scratch into one
// sampleState and preallocates the ratio series, so a whole sampled
// pass stays within a small fixed budget (machine, cache, meters,
// pipeline state, results — nothing per window).
func TestSampledAllocsPinned(t *testing.T) {
	s := tracedSetup(t)
	cal := power.DefaultCalibration()
	pass := []Config{FITS16, FITS8}
	sampled := RunOptions{Sample: &SampleOptions{}}
	for _, c := range []struct {
		what string
		run  func() error
		max  float64
	}{
		// The sampled steady state (16: machine, cache, meter, pipeline
		// run and result — the schedule and the result slot stay on
		// RunSampled's stack, and the sampleState scratch, meter samples,
		// ratio series and warm-once set come from the sampleFree list)
		// with a slack of 2, far below one allocation per window, the
		// regression this test exists to catch.
		{"sampled ARM16 run", func() error {
			_, err := s.RunSampled(ARM16, cal, SampleOptions{})
			return err
		}, 18},
		// A two-configuration pass adds a meter, the result slice and a
		// second result with its own PipeResult, output and SampleStats,
		// and nothing per window: measured 22.
		{"sampled FITS16+FITS8 pass", func() error {
			_, err := s.RunAll(pass, cal, sampled)
			return err
		}, 24},
		// The exact side, measured 15 and 20, with the same slack.
		{"exact ARM16 run", func() error {
			_, err := s.Run(ARM16, cal)
			return err
		}, 17},
		{"exact FITS16+FITS8 pass", func() error {
			_, err := s.RunAll(pass, cal, RunOptions{})
			return err
		}, 22},
	} {
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs", c.what, allocs)
		if allocs > c.max {
			t.Errorf("%s costs %v allocs, want ≤ %v", c.what, allocs, c.max)
		}
	}
}

// TestRunAllRejectsBadOptions asserts the option checks: a negative
// window is an error, and so is phase sampling on the sampled
// estimator (its windows would span extrapolated cycles), and so is an
// observed run of more than one configuration (a sink or a window
// observes one run), even when the configurations share a pass.
func TestRunAllRejectsBadOptions(t *testing.T) {
	s := tracedSetup(t)
	cal := power.DefaultCalibration()
	if _, err := s.RunAll([]Config{FITS8}, cal, RunOptions{WindowCycles: -5}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := s.RunAll([]Config{FITS8}, cal, RunOptions{WindowCycles: 512, Sample: &SampleOptions{}}); err == nil {
		t.Error("phase sampling on a sampled run accepted")
	}
	pass := []Config{FITS16, FITS8}
	if got, err := s.Passes(pass); err != nil || len(got) != 1 {
		t.Fatalf("FITS16+FITS8 form %d passes, want 1", len(got))
	}
	for _, opt := range []RunOptions{
		{Sink: &tracing.Counts{}},
		{WindowCycles: 512},
		{Sample: &SampleOptions{}, Sink: &tracing.Counts{}},
	} {
		if _, err := s.RunAll(pass, cal, opt); err == nil {
			t.Errorf("observed run of %s accepted (%+v)", passName(pass), opt)
		}
		if _, err := s.RunAll(Configs, cal, opt); err == nil {
			t.Errorf("observed run of all configurations accepted (%+v)", opt)
		}
	}
}

// TestGoldenChromeTrace pins the exact bytes of the Chrome trace-event
// export for crc32 at scale 1 on FITS8: a 256-event suffix capture of
// the full detailed run. The export is deterministic (cycle timestamps,
// no wall clock), so any byte drift means the event stream or the
// exporter changed and the golden must be reviewed. Refresh with
// `go test ./internal/sim -run TestGoldenChromeTrace -update`.
func TestGoldenChromeTrace(t *testing.T) {
	s := tracedSetup(t)
	ring := tracing.MustNewRing(256)
	r, err := first(s.RunAll([]Config{FITS8}, power.DefaultCalibration(), RunOptions{Sink: ring}))
	if err != nil {
		t.Fatal(err)
	}
	meta := tracing.TraceMeta{Kernel: "crc32", Config: "FITS8",
		Total: ring.Total(), Dropped: ring.Dropped()}
	var buf bytes.Buffer
	if err := tracing.WriteChromeTrace(&buf, ring.Events(), meta); err != nil {
		t.Fatal(err)
	}
	if _, err := tracing.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	if ring.Dropped() == 0 || ring.Total() <= 256 {
		t.Fatalf("capture not exercising the ring: total %d, dropped %d", ring.Total(), ring.Dropped())
	}
	if r.Pipe.Cycles == 0 {
		t.Fatal("traced run reported no cycles")
	}

	golden := filepath.Join("testdata", "trace_crc32_fits8.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export drifted from %s (%d vs %d bytes); run with -update after review",
			golden, buf.Len(), len(want))
	}
}
