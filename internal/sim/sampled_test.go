package sim

import (
	"math"
	"reflect"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
)

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestSampledAccuracy pins the acceptance bound for the sampled timing
// simulator: across every kernel in the suite and all four
// configurations at scale 1, the default sampling schedule estimates
// total cycles and total fetch energy within 2 % of the exact
// cycle-accurate run. Outputs and instruction counts must be exact —
// sampling approximates timing, never architecture.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite exactly and sampled")
	}
	cal := power.DefaultCalibration()
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range Configs {
				exact, err := s.Run(cfg, cal)
				if err != nil {
					t.Fatal(err)
				}
				sampled, err := s.RunSampled(cfg, cal, SampleOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if sampled.Sampled == nil {
					t.Fatalf("%s: sampled run carries no SampleStats", cfg.Name)
				}
				if sampled.Pipe.Instrs != exact.Pipe.Instrs {
					t.Errorf("%s: instruction count must be exact: sampled %d, exact %d",
						cfg.Name, sampled.Pipe.Instrs, exact.Pipe.Instrs)
				}
				if len(sampled.Pipe.Output) != len(exact.Pipe.Output) {
					t.Fatalf("%s: output length %d vs exact %d",
						cfg.Name, len(sampled.Pipe.Output), len(exact.Pipe.Output))
				}
				for i := range exact.Pipe.Output {
					if sampled.Pipe.Output[i] != exact.Pipe.Output[i] {
						t.Fatalf("%s: output[%d] = %#x, exact %#x",
							cfg.Name, i, sampled.Pipe.Output[i], exact.Pipe.Output[i])
					}
				}
				if sampled.Sampled.Exact {
					// Short runs legitimately fall back to the exact
					// simulator; the estimate bounds don't apply.
					if sampled.Pipe.Cycles != exact.Pipe.Cycles {
						t.Errorf("%s: exact fallback diverged: %d vs %d cycles",
							cfg.Name, sampled.Pipe.Cycles, exact.Pipe.Cycles)
					}
					continue
				}
				if ce := relErr(float64(sampled.Pipe.Cycles), float64(exact.Pipe.Cycles)); ce > 0.02 {
					t.Errorf("%s: cycle error %.3f%% exceeds 2%% (sampled %d, exact %d, %d windows)",
						cfg.Name, 100*ce, sampled.Pipe.Cycles, exact.Pipe.Cycles, sampled.Sampled.Windows)
				}
				if ee := relErr(sampled.Power.TotalPJ(), exact.Power.TotalPJ()); ee > 0.02 {
					t.Errorf("%s: energy error %.3f%% exceeds 2%% (sampled %.1f pJ, exact %.1f pJ)",
						cfg.Name, 100*ee, sampled.Power.TotalPJ(), exact.Power.TotalPJ())
				}
				st := sampled.Sampled
				if st.Windows < DefaultSampleOptions().MinWindows {
					t.Errorf("%s: %d windows below MinWindows without exact fallback", cfg.Name, st.Windows)
				}
				if st.DetailedInstrs >= st.TotalInstrs {
					t.Errorf("%s: detailed %d of %d instructions — nothing was fast-forwarded",
						cfg.Name, st.DetailedInstrs, st.TotalInstrs)
				}
				if st.CycleRelCI < 0 || st.EnergyRelCI < 0 ||
					math.IsNaN(st.CycleRelCI) || math.IsNaN(st.EnergyRelCI) {
					t.Errorf("%s: malformed confidence intervals: cycles %v, energy %v",
						cfg.Name, st.CycleRelCI, st.EnergyRelCI)
				}
			}
		})
	}
}

// TestSampledExactFallback drives both fallback paths and checks each
// returns the exact simulation bit-for-bit.
func TestSampledExactFallback(t *testing.T) {
	cal := power.DefaultCalibration()
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Run(ARM16, cal)
	if err != nil {
		t.Fatal(err)
	}

	check := func(tag string, opt SampleOptions) {
		t.Helper()
		res, err := s.RunSampled(ARM16, cal, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sampled == nil || !res.Sampled.Exact {
			t.Fatalf("%s: expected exact fallback, got %+v", tag, res.Sampled)
		}
		got, want := *res.Pipe, *exact.Pipe
		if len(got.Output) != len(want.Output) {
			t.Fatalf("%s: output length %d vs exact %d", tag, len(got.Output), len(want.Output))
		}
		for i := range want.Output {
			if got.Output[i] != want.Output[i] {
				t.Fatalf("%s: output[%d] divergence", tag, i)
			}
		}
		got.Output, want.Output = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pipeline result diverged from exact run:\n%+v\n%+v", tag, got, want)
		}
		if res.Cache != exact.Cache {
			t.Errorf("%s: cache stats diverged: %+v vs %+v", tag, res.Cache, exact.Cache)
		}
		if res.Power != exact.Power {
			t.Errorf("%s: power report diverged", tag)
		}
		if res.Sampled.TotalInstrs != exact.Pipe.Instrs || res.Sampled.DetailedInstrs != exact.Pipe.Instrs {
			t.Errorf("%s: fallback stats must report a fully detailed run: %+v", tag, res.Sampled)
		}
	}

	// A head longer than the whole run: the program halts inside the
	// detailed prefix and that prefix IS the exact simulation.
	check("head", SampleOptions{HeadInstrs: 1 << 40})
	// An unreachable window quota: too few windows accumulate, so the
	// estimator refuses and reruns the exact pipeline.
	check("quota", SampleOptions{MinWindows: 1 << 20})
}

// TestRunSampledOnLiteralSetup runs the sampled estimator on a Setup
// built as a literal, with no profile and no predecoded tables, and
// holds it to the result on the prepared Setup it copies.
func TestRunSampledOnLiteralSetup(t *testing.T) {
	cal := power.DefaultCalibration()
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	lit := &Setup{Kernel: s.Kernel, Scale: s.Scale, Prog: s.Prog, ArmImage: s.ArmImage, Fits: s.Fits}
	for _, cfg := range []Config{ARM16, FITS8} {
		want, err := s.RunSampled(cfg, cal, SampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := lit.RunSampled(cfg, cal, SampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, got, want)
	}
}

// TestSampledOptionValidation exercises the schedule validator.
func TestSampledOptionValidation(t *testing.T) {
	cal := power.DefaultCalibration()
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	bad := []SampleOptions{
		{PeriodInstrs: 128, WindowInstrs: 128, WarmupInstrs: 64, MinWindows: 4}, // no fast-forward room
		{PeriodInstrs: 4096, WindowInstrs: 256, WarmupInstrs: 64, MinWindows: 1},
	}
	for i, opt := range bad {
		if _, err := s.RunSampled(ARM16, cal, opt); err == nil {
			t.Errorf("options %d: invalid schedule accepted: %+v", i, opt)
		}
	}
}
