package main

import (
	"io"
	"math"
	"path/filepath"
	"slices"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/kernels"
	"powerfits/internal/sim"
)

// exactScale is suite-exact's input scale. At each kernel's default
// scale (8 to 64) one exact suite takes 6–9 s on the measuring host, so
// a run holds only three or four of them; at scale 4 it takes 1–2.5 s.
// The calibration before each operation tracks the host's speed only
// over a stretch that short (calibrate.go).
const exactScale = 4

// suiteScale is the input scale of suite-exact (sampled false) and
// suite-sampled, whose estimator is built for the default scale's long
// runs.
func suiteScale(sampled bool) int {
	if sampled {
		return 0
	}
	return exactScale
}

// suiteOracle is the suite workloads' set-up: the exact reference suite
// at the workload's scale and every kernel's expected output there,
// computed by the kernel's independent Go implementation.
type suiteOracle struct {
	ref     *suiteRef
	runs    map[[2]string]refRun
	outputs map[string][]uint32
}

func newSuiteOracle(scale int) (*suiteOracle, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	sr, err := ref.suite(scale)
	if err != nil {
		return nil, err
	}
	o := &suiteOracle{ref: sr, runs: sr.runs(), outputs: map[string][]uint32{}}
	for _, k := range kernels.All() {
		ks := scale
		if ks <= 0 {
			ks = k.DefaultScale
		}
		o.outputs[k.Name] = k.Ref(ks)
	}
	return o, nil
}

// suiteOp is one suite operation as a user runs it: every kernel
// prepared and timed on the four configurations at the given scale
// (0 = each kernel's default), every figure rendered, and the run
// archived.
func suiteOp(e *env, sampled bool, scale int) (*experiments.Suite, error) {
	s, err := experiments.RunSuite(experiments.Options{
		Scale: scale, Workers: e.workers, Sampled: sampled, Superblocks: sampled})
	if err != nil {
		return nil, err
	}
	for _, t := range s.AllFigures() {
		t.Render(io.Discard)
	}
	if err := archive.FromSuite(nil, s, 0).WriteFile(filepath.Join(e.dir, "suite.json")); err != nil {
		return nil, err
	}
	return s, nil
}

// check compares every kernel × configuration result of s with the
// oracle. Outputs must equal the kernel's reference output. An exact
// suite must match the reference bit for bit and reproduce the
// headline saving; a sampled one must match exactly in instruction
// count and FITS code size, and errPct is its largest relative cycle
// error.
func (o *suiteOracle) check(s *experiments.Suite, sampled bool) (attempted, failed int, errPct float64) {
	fail := func(format string, args ...any) {
		if failed == 0 {
			logf("check: "+format, args...)
		}
		failed++
	}
	if len(s.Setups) != len(kernels.All()) {
		fail("%d kernels in the suite, want %d", len(s.Setups), len(kernels.All()))
	}
	for _, st := range s.Setups {
		for _, cfg := range sim.Configs {
			attempted++
			r := s.Results[st.Kernel.Name][cfg.Name]
			got, want := refRunOf(st, r), o.runs[[2]string{st.Kernel.Name, cfg.Name}]
			switch {
			case !slices.Equal(r.Pipe.Output, o.outputs[st.Kernel.Name]):
				fail("%s on %s: output %x, want %x", st.Kernel.Name, cfg.Name, r.Pipe.Output, o.outputs[st.Kernel.Name])
			case !sampled && got != want:
				fail("%s on %s: %+v, reference %+v", st.Kernel.Name, cfg.Name, got, want)
			case sampled && (got.Instrs != want.Instrs || got.FitsBytes != want.FitsBytes):
				fail("%s on %s: %d instrs, %d FITS bytes; reference %d, %d",
					st.Kernel.Name, cfg.Name, got.Instrs, got.FitsBytes, want.Instrs, want.FitsBytes)
			}
			if sampled && want.Cycles > 0 {
				e := 100 * math.Abs(float64(got.Cycles)-float64(want.Cycles)) / float64(want.Cycles)
				errPct = math.Max(errPct, e)
			}
		}
	}
	if !sampled {
		attempted++
		if got := totalSaving(s); got != o.ref.TotalSavingPct {
			fail("headline total saving %v%%, reference %v%%", got, o.ref.TotalSavingPct)
		}
	}
	return attempted, failed, errPct
}

// runSuite is suite-exact (sampled false) and suite-sampled. Set-up
// computes the oracle and warms up with one suite at scale 1.
func runSuite(e *env, sampled, traced bool) (*outcome, error) {
	scale := suiteScale(sampled)
	var o *suiteOracle
	setups, err := timeSetup(e, func() (err error) {
		if o, err = newSuiteOracle(scale); err != nil {
			return err
		}
		_, err = suiteOp(e, sampled, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	if traced {
		return traceSuite(e, o, sampled, scale)
	}
	out := &outcome{}
	var results int
	var worstErr float64
	reps, err := repeatOps(e, func() (time.Duration, error) {
		t0 := time.Now()
		s, err := suiteOp(e, sampled, scale)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		a, f, errPct := o.check(s, sampled)
		out.attempted += a
		out.failed += f
		worstErr = math.Max(worstErr, errPct)
		results = len(s.Setups) * len(sim.Configs)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	logf("suite sampled=%t scale %d: %d reps, rep wall %.3f s, calibration %.4f s, at reference speed %.3f s, max sampled cycle error %.3f%%",
		sampled, scale, len(reps), walls(reps), cals(reps), atReference(reps), worstErr)
	out.metrics = map[string]float64{
		"setup_s":     atReference(setups),
		"work_per_s":  float64(results) / atReference(reps),
		"peak_rss_mb": peakRSSMB(),
	}
	return out, nil
}

// traceSuite runs one untraced suite operation, whose per-kernel
// timings give the engine's idle share, then the traced replay.
func traceSuite(e *env, o *suiteOracle, sampled bool, scale int) (*outcome, error) {
	s, err := suiteOp(e, sampled, scale)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.attempted, out.failed, _ = o.check(s, sampled)

	tr := newTracer()
	start := time.Now()
	ts, err := tr.suite(e, sampled, scale)
	if err != nil {
		return nil, err
	}
	replay := time.Since(start)
	a, f, errPct := o.check(ts, sampled)
	out.attempted += a
	out.failed += f
	out.metrics = tr.layerMetrics(1, replay)
	out.metrics["sim.sampled_cycle_err_pct"] = errPct
	var busy float64
	for _, kt := range s.Timings {
		busy += kt.PrepareSec + kt.RunSec
	}
	out.metrics["engine.idle_frac"] = 1 - busy/(s.WallSec*float64(s.Workers))
	return out, nil
}

// suite is the traced replay of suiteOp: the same RunSuite on one
// worker, so its layers run one at a time, with the tracer's stage log
// attached. The preparation stages come from that log and the timing
// runs from the suite's own per-kernel RunSec; figure rendering and the
// archive write are spans.
func (t *tracer) suite(e *env, sampled bool, scale int) (*experiments.Suite, error) {
	s, err := experiments.RunSuite(experiments.Options{
		Scale: scale, Workers: 1, Sampled: sampled, Superblocks: sampled, Log: t.log()})
	if err != nil {
		return nil, err
	}
	for _, kt := range s.Timings {
		t.add("sim", time.Duration(kt.RunSec*float64(time.Second)))
	}
	for _, st := range s.Setups {
		t.prepares++
		t.images[st.Kernel.Name] = struct{}{}
		t.profiled += st.Profile.TotalDyn
		for _, r := range s.Results[st.Kernel.Name] {
			t.simResult(r)
		}
	}
	t0 := time.Now()
	for _, tab := range s.AllFigures() {
		tab.Render(io.Discard)
	}
	t.span("render", t0)
	path := filepath.Join(e.dir, "suite-traced.json")
	t0 = time.Now()
	err = archive.FromSuite(nil, s, 0).WriteFile(path)
	t.span("archive", t0)
	if err != nil {
		return nil, err
	}
	t.saved(path)
	return s, nil
}
