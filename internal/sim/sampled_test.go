package sim

import (
	"math"
	"slices"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
	"powerfits/internal/tracing"
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

// TestSampledExactFallback drives both ways a sampled request ends as
// an exact pass, a head that reaches halt and a window quota no run
// meets (the MinWindows fallback), and holds each to RunAll in exact
// mode field for field: on one configuration, on a shared pass
// (FITS16+FITS8), on a shared pass with counts and on a pass with a
// sink. The exact results carry no SampleStats; the sampled ones report
// a fully detailed run, and their counts are the exact pass's.
func TestSampledExactFallback(t *testing.T) {
	cal := power.DefaultCalibration()
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		cfgs         []Config
		counts, sink bool
	}{
		{"ARM16", []Config{ARM16}, false, false},
		{"FITS16+FITS8", []Config{FITS16, FITS8}, false, false},
		{"FITS16+FITS8 counted", []Config{FITS16, FITS8}, true, false},
		{"FITS8 traced", []Config{FITS8}, false, true},
	} {
		run := func(sample *SampleOptions) ([]*Result, []uint64) {
			t.Helper()
			opt := RunOptions{Sample: sample}
			if c.counts {
				opt.Counts = make([]uint64, len(s.image(c.cfgs[0].ISA).InstrAddr))
			}
			if c.sink {
				opt.Sink = &tracing.Counts{}
			}
			rs, err := s.RunAll(c.cfgs, cal, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return rs, opt.Counts
		}
		exact, exactCounts := run(nil)
		for _, r := range exact {
			if r.Sampled != nil {
				t.Errorf("%s: exact %s carries SampleStats %+v", c.name, r.Config.Name, r.Sampled)
			}
		}
		if c.counts && slices.Max(exactCounts) == 0 {
			t.Fatalf("%s: the exact pass counted nothing", c.name)
		}
		for _, sc := range []struct {
			tag string
			opt SampleOptions
		}{
			// A head longer than the whole run: the program halts
			// inside the detailed prefix and that prefix IS the exact
			// simulation.
			{"head", SampleOptions{HeadInstrs: 1 << 40}},
			// An unreachable window quota: too few windows accumulate,
			// so the estimator refuses and reruns the pass exactly.
			{"quota", SampleOptions{MinWindows: 1 << 20}},
		} {
			got, counts := run(&sc.opt)
			if !slices.Equal(counts, exactCounts) {
				t.Errorf("%s/%s: counts differ from the exact pass's", c.name, sc.tag)
			}
			for i, r := range got {
				st := r.Sampled
				n := exact[i].Pipe.Instrs
				if st == nil || !st.Exact || st.TotalInstrs != n || st.DetailedInstrs != n || sc.tag == "head" && st.Windows != 0 {
					t.Errorf("%s/%s: %s reports %+v, want a fully detailed run of %d instructions", c.name, sc.tag, r.Config.Name, st, n)
				}
				unsampled := *r
				unsampled.Sampled = nil
				sameResult(t, &unsampled, exact[i])
			}
		}
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
