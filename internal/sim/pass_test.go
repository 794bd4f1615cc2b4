package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"powerfits/internal/cache"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
)

// sameResult fails unless got equals want field for field: every
// PipeResult counter and output word (reflect.DeepEqual compares them
// with ==), the cache statistics, the power report, the access-energy
// sum and the sampling statistics, if any.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	switch {
	case got.Config != want.Config:
		t.Errorf("config %+v, want %+v", got.Config, want.Config)
	case !reflect.DeepEqual(got.Pipe, want.Pipe):
		t.Errorf("%s: pipe %+v, want %+v", want.Config.Name, *got.Pipe, *want.Pipe)
	case got.Cache != want.Cache:
		t.Errorf("%s: cache %+v, want %+v", want.Config.Name, got.Cache, want.Cache)
	case got.Power != want.Power:
		t.Errorf("%s: power %+v, want %+v", want.Config.Name, got.Power, want.Power)
	case got.AccessPJ != want.AccessPJ:
		t.Errorf("%s: AccessPJ %v, want %v", want.Config.Name, got.AccessPJ, want.AccessPJ)
	case (got.Sampled == nil) != (want.Sampled == nil) ||
		got.Sampled != nil && *got.Sampled != *want.Sampled:
		t.Errorf("%s: sampling %+v, want %+v", want.Config.Name, got.Sampled, want.Sampled)
	case got.Phases != nil:
		t.Errorf("%s: a shared pass reported phases", want.Config.Name)
	}
}

// passMatrix is the configuration and calibration matrix the shared-pass
// tests hold to separate runs: both ISAs at 16, 8 and 4 KB, under the
// default calibration and under a non-dyadic Hamming one.
func passMatrix() ([]Config, map[string]power.Calibration) {
	cals := map[string]power.Calibration{"default": power.DefaultCalibration()}
	ham := power.DefaultCalibration()
	ham.SwitchPJPerBit, ham.PeakWindow, ham.UseHamming = 7.3, 5, true
	cals["hamming"] = ham

	quarter := cache.Config{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 32}
	cfgs := []Config{ARM16, ARM8, FITS16, FITS8,
		{Name: "ARM4", ISA: ISAARM, Cache: quarter},
		{Name: "FITS4", ISA: ISAFITS, Cache: quarter}}
	return cfgs, cals
}

// shuffledMix returns cfgs plus a 32-byte cache for each ISA, which
// holds no kernel's text, in a fixed shuffled order: holding and
// non-holding configurations of both ISAs interleaved, so RunAll must
// scatter each pass's results back to their places in cfgs.
func shuffledMix(cfgs []Config) []Config {
	tiny := cache.Config{SizeBytes: 32, LineBytes: 16, Assoc: 2}
	mix := append(slices.Clone(cfgs),
		Config{Name: "ARM32B", ISA: ISAARM, Cache: tiny},
		Config{Name: "FITS32B", ISA: ISAFITS, Cache: tiny})
	rand.New(rand.NewSource(1)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// TestSharedPassMatchesSeparateRuns holds the shared timing pass to the
// standalone runs it replaces: for every kernel at scale 1, RunAll over
// both ISAs at 16, 8 and 4 KB, and over a shuffled mix of those with
// caches too small to hold the text (shuffledMix), returns,
// configuration by configuration and in cfgs order, exactly what Run
// returns, under the default calibration and under a non-dyadic Hamming
// one. It also pins the grouping: at 16 and 8 KB only jpeg's ARM image
// is too large to share a pass.
func TestSharedPassMatchesSeparateRuns(t *testing.T) {
	cfgs, cals := passMatrix()
	mix := shuffledMix(cfgs)

	type split struct{ kernel, isa string }
	splits := make(chan split, 2*len(kernels.All()))
	threeWay := make(chan string, 2*len(kernels.All()))
	t.Run("kernels", func(t *testing.T) {
		for _, k := range kernels.All() {
			k := k
			t.Run(k.Name, func(t *testing.T) {
				t.Parallel()
				s, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
				if err != nil {
					t.Fatal(err)
				}
				for _, pair := range [][]Config{{ARM16, ARM8}, {FITS16, FITS8}} {
					if ps, err := s.Passes(pair); err != nil || len(ps) != 1 {
						splits <- split{k.Name, pair[0].ISA.String()}
					}
				}
				passes, err := s.Passes(cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range passes {
					if len(p) == 3 {
						threeWay <- k.Name
					}
				}
				for _, isa := range []ISA{ISAARM, ISAFITS} {
					if !slices.ContainsFunc(mix, func(c Config) bool { return c.ISA == isa && !s.holds(c) }) {
						t.Fatalf("the shuffled mix holds every %s configuration", isa)
					}
				}
				for name, cal := range cals {
					for _, in := range [][]Config{cfgs, mix} {
						got, err := s.RunAll(in, cal, RunOptions{})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i, cfg := range in {
							want, err := s.Run(cfg, cal)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							sameResult(t, got[i], want)
						}
					}
				}
			})
		}
	})
	close(splits)
	close(threeWay)
	var got []split
	for sp := range splits {
		got = append(got, sp)
	}
	if want := []split{{"jpeg", "ARM"}}; !slices.Equal(got, want) {
		t.Errorf("16/8 KB pairs split into separate passes: %v, want %v", got, want)
	}
	if len(threeWay) == 0 && !t.Failed() {
		t.Error("no kernel shares one pass across 16, 8 and 4 KB")
	}
}

// TestSampledPassMatchesSeparateRuns holds the sampled pass to the
// standalone sampled runs it replaces: for every kernel at scale 1,
// RunAll with sample options over both ISAs at 16, 8 and 4 KB returns,
// configuration by configuration, exactly what RunSampled returns,
// SampleStats included, under both calibrations of passMatrix and
// three schedules: the default one, one whose window quota no run meets
// (the exact fallback), and one whose head outlasts every run.
func TestSampledPassMatchesSeparateRuns(t *testing.T) {
	cfgs, cals := passMatrix()
	opts := map[string]SampleOptions{
		"default":  {},
		"fallback": {MinWindows: 1 << 20},
		"head":     {HeadInstrs: 1 << 40},
	}
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			for cname, cal := range cals {
				for oname, opt := range opts {
					got, err := s.RunAll(cfgs, cal, RunOptions{Sample: &opt})
					if err != nil {
						t.Fatalf("%s/%s: %v", cname, oname, err)
					}
					for i, cfg := range cfgs {
						want, err := s.RunSampled(cfg, cal, opt)
						if err != nil {
							t.Fatalf("%s/%s: %v", cname, oname, err)
						}
						sameResult(t, got[i], want)
					}
				}
			}
		})
	}
}

// TestRunPassRejectsUnsharablePasses checks that configurations whose
// runs could diverge never share a pass (runPass): different ISAs,
// different line sizes, or a cache too small to hold the image text.
// Passes splits each such set into passes of one, and RunAll refuses
// counts over it, exact and sampled, as it refuses counts over no
// configuration at all; FITS16+FITS8 forms one pass that counts.
func TestRunPassRejectsUnsharablePasses(t *testing.T) {
	s, err := PrepareWith(kernels.MustGet("jpeg"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	wide := FITS16
	wide.Name, wide.Cache.LineBytes = "FITS16/64B", 64
	cal := power.DefaultCalibration()
	for _, sample := range []*SampleOptions{nil, {}} {
		for _, pass := range [][]Config{{}, {ARM16, FITS16}, {FITS16, wide}, {ARM16, ARM8}} {
			if ps, err := s.Passes(pass); err != nil || len(ps) != len(pass) {
				t.Errorf("%s forms %d passes (%v), want %d", passName(pass), len(ps), err, len(pass))
			}
			counts := make([]uint64, len(s.Fits.Image.InstrAddr))
			if _, err := s.RunAll(pass, cal, RunOptions{Sample: sample, Counts: counts}); err == nil {
				t.Errorf("pass (sampled %t) accepted %s", sample != nil, passName(pass))
			}
		}
		counts := make([]uint64, len(s.Fits.Image.InstrAddr))
		out, err := s.RunAll([]Config{FITS16, FITS8}, cal, RunOptions{Sample: sample, Counts: counts})
		if err != nil || out[1] == nil {
			t.Fatalf("pass FITS16+FITS8 (sampled %t): %v", sample != nil, err)
		}
	}
}
