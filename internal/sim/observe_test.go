package sim

import (
	"math"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
)

// observedSetup prepares crc32 once for the observation tests.
func observedSetup(t *testing.T) *Setup {
	t.Helper()
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestObservedRunMatchesPlainRun asserts attaching the phase sampler
// must not change any architectural or aggregate result.
func TestObservedRunMatchesPlainRun(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	for _, cfg := range Configs {
		plain, err := s.Run(cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := first(s.RunAll([]Config{cfg}, cal, RunOptions{WindowCycles: 512}))
		if err != nil {
			t.Fatal(err)
		}
		if obs.Phases == nil {
			t.Fatalf("%s: observed run carries no phases", cfg.Name)
		}
		if plain.Phases != nil {
			t.Fatalf("%s: plain run carries phases", cfg.Name)
		}
		comparePlainTraced(t, cfg.Name, plain, obs)
	}
}

// TestPhaseSeriesConsistency asserts the event-closed windows
// reconstruct the run totals exactly, so the time series is a lossless
// decomposition.
func TestPhaseSeriesConsistency(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	r, err := first(s.RunAll([]Config{FITS8}, cal, RunOptions{WindowCycles: 256}))
	if err != nil {
		t.Fatal(err)
	}
	ph := r.Phases
	if len(ph.Samples) < 2 {
		t.Fatalf("only %d windows at 256 cycles over %d cycles", len(ph.Samples), r.Pipe.Cycles)
	}
	var cycles, fetches, misses, instrs uint64
	var sw, in, lk float64
	for _, w := range ph.Samples {
		cycles += w.Cycles
		fetches += w.Fetches
		misses += w.Misses
		instrs += w.Instrs
		sw += w.SwitchPJ
		in += w.InternalPJ
		lk += w.LeakPJ
	}
	if cycles != r.Pipe.Cycles {
		t.Errorf("window cycles sum %d ≠ run cycles %d", cycles, r.Pipe.Cycles)
	}
	if last := ph.Samples[len(ph.Samples)-1]; last.EndCycle != r.Pipe.Cycles {
		t.Errorf("last window ends at %d, run at %d", last.EndCycle, r.Pipe.Cycles)
	}
	if fetches != r.Cache.Accesses || misses != r.Cache.Misses {
		t.Errorf("window fetch/miss sums %d/%d ≠ cache stats %d/%d",
			fetches, misses, r.Cache.Accesses, r.Cache.Misses)
	}
	if instrs != r.Pipe.Instrs {
		t.Errorf("window instr sum %d ≠ retired %d", instrs, r.Pipe.Instrs)
	}
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !relClose(sw, r.Power.SwitchingPJ) || !relClose(in, r.Power.InternalPJ) ||
		!relClose(lk, r.Power.LeakagePJ) {
		t.Errorf("window energy sums %g/%g/%g ≠ report %g/%g/%g",
			sw, in, lk, r.Power.SwitchingPJ, r.Power.InternalPJ, r.Power.LeakagePJ)
	}
}

// TestHotspotAttribution asserts the basic-block hotspot rows account
// for every access and every picojoule of fetch energy (switching +
// line fills, summed by the meter as AccessPJ).
func TestHotspotAttribution(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	r, err := first(s.RunAll([]Config{ARM16}, cal, RunOptions{WindowCycles: 1024}))
	if err != nil {
		t.Fatal(err)
	}
	ph := r.Phases
	if len(ph.Hotspots) == 0 {
		t.Fatal("no hotspots recorded")
	}
	var fetches, misses uint64
	for _, h := range ph.Hotspots {
		fetches += h.Fetches
		misses += h.Misses
	}
	if fetches != r.Cache.Accesses || misses != r.Cache.Misses {
		t.Errorf("hotspot fetch/miss totals %d/%d ≠ cache stats %d/%d",
			fetches, misses, r.Cache.Accesses, r.Cache.Misses)
	}
	if got := ph.TotalFetchPJ(); relErr(got, r.AccessPJ) > 1e-9 {
		t.Errorf("attributed fetch energy %g ≠ metered access energy %g", got, r.AccessPJ)
	}
	for _, h := range ph.Hotspots {
		if h.Label == "" {
			t.Errorf("unlabelled hotspot row %+v", h)
		}
	}
	// Rows arrive hottest-first.
	for i := 1; i < len(ph.Hotspots); i++ {
		if ph.Hotspots[i-1].FetchPJ < ph.Hotspots[i].FetchPJ {
			t.Fatalf("hotspots not sorted by energy at %d", i)
		}
	}
}
