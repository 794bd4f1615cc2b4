package sim

import (
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

// TestSharedPassMatchesSeparateRuns holds the shared timing pass to the
// standalone runs it replaces: for every kernel at scale 1, RunAll over
// both ISAs at 16, 8 and 4 KB returns, configuration by configuration,
// exactly what Run returns, under the default calibration and under a
// non-dyadic Hamming one. It also pins the grouping: at 16 and 8 KB only
// jpeg's ARM image is too large to share a pass.
func TestSharedPassMatchesSeparateRuns(t *testing.T) {
	cfgs, cals := passMatrix()

	type split struct{ kernel, isa string }
	splits := make(chan split, 2*len(kernels.All()))
	threeWay := make(chan string, 2*len(kernels.All()))
	t.Run("kernels", func(t *testing.T) {
		for _, k := range kernels.All() {
			k := k
			t.Run(k.Name, func(t *testing.T) {
				t.Parallel()
				s, err := Prepare(k, 1, synth.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				for _, pair := range [][]Config{{ARM16, ARM8}, {FITS16, FITS8}} {
					if len(s.Passes(pair)) != 1 {
						splits <- split{k.Name, pair[0].ISA.String()}
					}
				}
				for _, p := range s.Passes(cfgs) {
					if len(p) == 3 {
						threeWay <- k.Name
					}
				}
				for name, cal := range cals {
					got, err := s.RunAll(cfgs, cal, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, cfg := range cfgs {
						want, err := s.Run(cfg, cal)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameResult(t, got[i], want)
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
			s, err := Prepare(k, 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for cname, cal := range cals {
				for oname, opt := range opts {
					got, err := s.RunAll(cfgs, cal, &opt)
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

// TestRunPassRejectsUnsharablePasses checks that RunPass refuses
// configurations whose runs could diverge, exact or sampled: different
// ISAs, different line sizes, or a cache too small to hold the image
// text.
func TestRunPassRejectsUnsharablePasses(t *testing.T) {
	s, err := Prepare(kernels.MustGet("jpeg"), 1, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wide := FITS16
	wide.Name, wide.Cache.LineBytes = "FITS16/64B", 64
	cal := power.DefaultCalibration()
	for _, sample := range []*SampleOptions{nil, {}} {
		for _, pass := range [][]Config{{}, {ARM16, FITS16}, {FITS16, wide}, {ARM16, ARM8}} {
			if _, err := s.RunPass(pass, cal, sample); err == nil {
				t.Errorf("RunPass(sample %v) accepted %s", sample, passName(pass))
			}
		}
		rs, err := s.RunPass([]Config{FITS16, FITS8}, cal, sample)
		if err != nil || len(rs) != 2 {
			t.Fatalf("RunPass(FITS16+FITS8, sample %v) = %d results, %v", sample, len(rs), err)
		}
	}
}
