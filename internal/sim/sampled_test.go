package sim

import (
	"math"
	"reflect"
	"testing"

	"powerfits/internal/cpu"
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
			s, err := Prepare(k, 1, synth.DefaultOptions())
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
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
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
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
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
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
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

// TestSuperblocksMatchStepAllKernels runs every kernel on both images
// to completion twice — once on the plain interpreter, once on the
// superblock executor — and asserts identical architectural state,
// outputs and DynCount profiles. This is the suite-level counterpart
// of the per-program equivalence tests in internal/cpu, and the
// property the synthesis pipeline depends on when profiling over the
// fused executor.
func TestSuperblocksMatchStepAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice per image")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := Prepare(k, 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			images := []struct {
				tag    string
				mk     func() *cpu.Machine
				comp   *cpu.Compiled
				instrs int
			}{
				{"ARM", func() *cpu.Machine { return cpu.New(s.Prog, cpu.ImageLayout(s.ArmImage)) }, s.ArmCompiled, len(s.Prog.Instrs)},
				{"FITS", func() *cpu.Machine { return cpu.New(s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image)) }, s.FitsCompiled, len(s.Fits.Lowered.Instrs)},
			}
			for _, im := range images {
				mi := im.mk()
				ms := im.mk()
				mi.MaxInstrs = 2e8
				ms.MaxInstrs = 2e8
				mi.DynCount = make([]uint64, im.instrs)
				ms.DynCount = make([]uint64, im.instrs)
				erri := mi.Run()
				errs := ms.RunSuperblocks(im.comp)
				if (erri == nil) != (errs == nil) {
					t.Fatalf("%s: fault divergence: step %v, superblock %v", im.tag, erri, errs)
				}
				if erri != nil && erri.Error() != errs.Error() {
					t.Fatalf("%s: fault identity:\nstep:       %v\nsuperblock: %v", im.tag, erri, errs)
				}
				if mi.InstrCount != ms.InstrCount || mi.Halted != ms.Halted || mi.PCIdx != ms.PCIdx {
					t.Fatalf("%s: run shape divergence: step (n=%d halted=%v pc=%d), superblock (n=%d halted=%v pc=%d)",
						im.tag, mi.InstrCount, mi.Halted, mi.PCIdx, ms.InstrCount, ms.Halted, ms.PCIdx)
				}
				if mi.Regs != ms.Regs {
					t.Fatalf("%s: register divergence", im.tag)
				}
				if !mi.MemEqual(ms) {
					t.Fatalf("%s: memory divergence", im.tag)
				}
				for i := range mi.DynCount {
					if mi.DynCount[i] != ms.DynCount[i] {
						t.Fatalf("%s: DynCount[%d] = %d under superblocks, %d under Step",
							im.tag, i, ms.DynCount[i], mi.DynCount[i])
					}
				}
				if len(mi.Output) != len(ms.Output) {
					t.Fatalf("%s: output length divergence", im.tag)
				}
				for i := range mi.Output {
					if mi.Output[i] != ms.Output[i] {
						t.Fatalf("%s: output[%d] divergence", im.tag, i)
					}
				}
			}
		})
	}
}
