package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/sim"
)

// renderAll renders every figure table of a suite into one string.
func renderAll(s *Suite) string {
	var sb strings.Builder
	for _, tb := range s.AllFigures() {
		tb.Render(&sb)
	}
	return sb.String()
}

// TestParallelMatchesSequential is the engine's determinism guarantee:
// the suite run sequentially (-j 1) and in parallel (-j 8) must render
// every figure table byte-for-byte identically. The parallel run also
// exercises the serialized progress callback: it must fire exactly once
// per kernel and never concurrently.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := RunSuite(Options{Scale: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var inCallback int32
	var lines []string
	par, err := RunSuite(Options{Scale: 1, Workers: 8, Progress: LineProgress(func(line string) {
		if atomic.AddInt32(&inCallback, 1) != 1 {
			t.Error("progress callback invoked concurrently")
		}
		lines = append(lines, line)
		atomic.AddInt32(&inCallback, -1)
	})})
	if err != nil {
		t.Fatal(err)
	}

	if par.Workers != 8 || seq.Workers != 1 {
		t.Errorf("workers recorded as %d/%d, want 1/8", seq.Workers, par.Workers)
	}
	if want := len(kernels.All()); len(lines) != want {
		t.Errorf("progress fired %d times, want %d", len(lines), want)
	}
	for _, line := range lines {
		if !strings.Contains(line, "done") {
			t.Errorf("malformed progress line %q", line)
		}
	}
	if len(par.Timings) != len(kernels.All()) {
		t.Errorf("timings cover %d kernels, want %d", len(par.Timings), len(kernels.All()))
	}
	for _, tm := range par.Timings {
		if tm.Worker < 0 || tm.Worker >= 8 {
			t.Errorf("%s prepared on worker %d, want 0..7", tm.Kernel, tm.Worker)
		}
	}

	a, b := renderAll(seq), renderAll(par)
	if a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := range al {
			if i >= len(bl) || al[i] != bl[i] {
				t.Fatalf("tables diverge at line %d:\nsequential: %q\nparallel:   %q", i, al[i], bl[i])
			}
		}
		t.Fatalf("parallel output is a strict prefix of sequential output")
	}
}

// TestSampledSuiteMatchesPerConfigRuns holds a sampled suite, whose
// configurations share sampled passes, to standalone sampled runs: every
// kernel × configuration result equals Setup.RunSampled on the suite's
// own Setup, and the rendered tables are byte-identical at one worker.
func TestSampledSuiteMatchesPerConfigRuns(t *testing.T) {
	par, err := RunSuite(Options{Scale: 1, Workers: 2, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range par.Setups {
		for _, cfg := range sim.Configs {
			want, err := s.RunSampled(cfg, par.Cal, sim.SampleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := par.Results[s.Kernel.Name][cfg.Name]
			switch {
			case got == nil || got.Sampled == nil:
				t.Fatalf("%s/%s: no sampled result", s.Kernel.Name, cfg.Name)
			case !reflect.DeepEqual(*got.Pipe, *want.Pipe):
				t.Errorf("%s/%s: pipe %+v, want %+v", s.Kernel.Name, cfg.Name, *got.Pipe, *want.Pipe)
			case got.Cache != want.Cache:
				t.Errorf("%s/%s: cache %+v, want %+v", s.Kernel.Name, cfg.Name, got.Cache, want.Cache)
			case got.Power != want.Power:
				t.Errorf("%s/%s: power %+v, want %+v", s.Kernel.Name, cfg.Name, got.Power, want.Power)
			case *got.Sampled != *want.Sampled:
				t.Errorf("%s/%s: sampling %+v, want %+v", s.Kernel.Name, cfg.Name, *got.Sampled, *want.Sampled)
			}
		}
	}
	seq, err := RunSuite(Options{Scale: 1, Workers: 1, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(seq) != renderAll(par) {
		t.Error("sampled suite tables differ between 1 and 2 workers")
	}
}

// TestSuiteSharesPredecodeTables asserts every engine-produced Setup
// carries the predecode tables built in Prepare, so the four
// configuration runs (and any rerun over the same Setup) index one
// shared table per image instead of re-deriving instruction metadata.
func TestSuiteSharesPredecodeTables(t *testing.T) {
	suite, err := RunSuite(Options{Scale: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suite.Setups {
		if s.ArmDecoded == nil || s.FitsDecoded == nil {
			t.Fatalf("%s: setup missing predecode tables", s.Kernel.Name)
		}
		if s.ArmDecoded.Program() != s.Prog {
			t.Errorf("%s: ARM table not built from the baseline program", s.Kernel.Name)
		}
		if s.FitsDecoded.Program() != s.Fits.Lowered {
			t.Errorf("%s: FITS table not built from the lowered program", s.Kernel.Name)
		}
		if n := len(s.ArmDecoded.Instrs); n != len(s.Prog.Instrs) {
			t.Errorf("%s: ARM table covers %d/%d instructions", s.Kernel.Name, n, len(s.Prog.Instrs))
		}
		if n := len(s.FitsDecoded.Instrs); n != len(s.Fits.Lowered.Instrs) {
			t.Errorf("%s: FITS table covers %d/%d instructions", s.Kernel.Name, n, len(s.Fits.Lowered.Instrs))
		}
		if s.ArmDecoded.Compiled() == nil || s.FitsDecoded.Compiled() == nil {
			t.Fatalf("%s: setup missing compiled micro-op tables", s.Kernel.Name)
		}
		if s.ArmDecoded.Compiled().Program() != s.Prog {
			t.Errorf("%s: ARM compiled table not built from the baseline program", s.Kernel.Name)
		}
		if s.FitsDecoded.Compiled().Program() != s.Fits.Lowered {
			t.Errorf("%s: FITS compiled table not built from the lowered program", s.Kernel.Name)
		}
	}
}

// TestSuiteMetricsRegistry asserts the engine publishes per-kernel
// timing through the merged run-wide registry: every kernel's prepare
// gauge and per-config run gauges are present, the engine histograms
// account for every configuration, and shared passes split their time
// evenly.
func TestSuiteMetricsRegistry(t *testing.T) {
	suite, err := RunSuite(Options{Scale: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if suite.Metrics == nil {
		t.Fatal("suite has no metrics registry")
	}
	snap := suite.Metrics.Snapshot()
	gauges := make(map[string]float64, len(snap.Gauges))
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	for _, k := range kernels.All() {
		if _, ok := gauges["kernel/"+k.Name+"/prepare_sec"]; !ok {
			t.Errorf("registry missing kernel/%s/prepare_sec", k.Name)
		}
		for _, cfg := range sim.Configs {
			if _, ok := gauges["kernel/"+k.Name+"/"+cfg.Name+"/run_sec"]; !ok {
				t.Errorf("registry missing kernel/%s/%s/run_sec", k.Name, cfg.Name)
			}
		}
		if w := gauges["kernel/"+k.Name+"/worker"]; w < 0 || w > 3 {
			t.Errorf("kernel/%s/worker = %v, want 0..3", k.Name, w)
		}
	}
	nk := uint64(len(kernels.All()))
	if got := suite.Metrics.Counter("engine/kernels_done").Value(); got != nk {
		t.Errorf("engine/kernels_done = %d, want %d", got, nk)
	}
	if got := suite.Metrics.Histogram("engine/prepare_sec", metrics.DurationBuckets).Count(); got != nk {
		t.Errorf("engine/prepare_sec observations = %d, want %d", got, nk)
	}
	if got := suite.Metrics.Histogram("engine/run_sec", metrics.DurationBuckets).Count(); got != nk*uint64(len(sim.Configs)) {
		t.Errorf("engine/run_sec observations = %d, want %d", got, nk*uint64(len(sim.Configs)))
	}
	if gauges["engine/workers"] != 4 {
		t.Errorf("engine/workers = %v, want 4", gauges["engine/workers"])
	}

	// A shared pass's wall time is split evenly across its
	// configurations, and the per-config gauges sum to the kernel's
	// RunSec.
	for i, setup := range suite.Setups {
		runSec := func(cfg sim.Config) float64 {
			return gauges["kernel/"+setup.Kernel.Name+"/"+cfg.Name+"/run_sec"]
		}
		passes, err := setup.Passes(sim.Configs)
		if err != nil {
			t.Fatal(err)
		}
		if len(passes) >= len(sim.Configs) {
			t.Errorf("%s: %d passes for %d configurations, want shared passes", setup.Kernel.Name, len(passes), len(sim.Configs))
		}
		for _, pass := range passes {
			for _, cfg := range pass {
				if v := runSec(cfg); v <= 0 || v != runSec(pass[0]) {
					t.Errorf("%s/%s/run_sec = %v, want %v > 0 like %s", setup.Kernel.Name, cfg.Name, v, runSec(pass[0]), pass[0].Name)
				}
			}
		}
		var sum float64
		for _, cfg := range sim.Configs {
			sum += runSec(cfg)
		}
		if tm := suite.Timings[i]; tm.Kernel != setup.Kernel.Name || tm.RunSec != sum {
			t.Errorf("%s: RunSec %v, per-config gauges sum to %v", tm.Kernel, tm.RunSec, sum)
		}
	}
}

// TestSequentialTimingsFitWallTime checks that per-kernel timings
// count each second of work once: on one worker, jobs run one at a
// time, so prepare and run seconds summed over every kernel cannot
// exceed the suite's wall time. Charging a shared pass's whole wall
// time to each of its configurations would break this.
func TestSequentialTimingsFitWallTime(t *testing.T) {
	suite, err := RunSuite(Options{Scale: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, tm := range suite.Timings {
		busy += tm.PrepareSec + tm.RunSec
	}
	if busy > suite.WallSec {
		t.Errorf("kernel timings sum to %.3f s on one worker, over the %.3f s wall time", busy, suite.WallSec)
	}
}

// TestSuiteObserved asserts the WindowCycles option threads phase sampling
// through every run without disturbing the aggregate tables.
func TestSuiteObserved(t *testing.T) {
	plain, err := RunSuite(Options{Scale: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := RunSuite(Options{Scale: 1, Workers: 4, WindowCycles: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for name, byCfg := range obs.Results {
		for cfg, r := range byCfg {
			if r.Phases == nil || len(r.Phases.Samples) == 0 {
				t.Fatalf("%s/%s: observed suite run has no phase series", name, cfg)
			}
		}
	}
	if a, b := renderAll(plain), renderAll(obs); a != b {
		t.Fatal("observation changed the rendered tables")
	}
}

// TestHeartbeatFormat pins the progress line contract: the "done"
// marker and completion counter always appear, and the rate/ETA tail
// appears exactly when mid-suite extrapolation is possible (some
// kernels done, some remaining, nonzero elapsed time).
func TestHeartbeatFormat(t *testing.T) {
	mid := heartbeat("crc32", 12345, 3, 21, 2*time.Second)
	for _, want := range []string{"crc32", "done", "[3/21]", "12345 dynamic instrs", "kernels/s", "ETA"} {
		if !strings.Contains(mid, want) {
			t.Errorf("mid-suite line %q missing %q", mid, want)
		}
	}
	last := heartbeat("sha", 99, 21, 21, 2*time.Second)
	if !strings.Contains(last, "done") || !strings.Contains(last, "[21/21]") {
		t.Errorf("final line %q missing completion marker", last)
	}
	if strings.Contains(last, "ETA") {
		t.Errorf("final line %q extrapolates past the end", last)
	}
	if zero := heartbeat("sha", 99, 1, 21, 0); strings.Contains(zero, "ETA") {
		t.Errorf("zero-elapsed line %q divides by zero elapsed time", zero)
	}
}

// TestEnginePriorityOrder pins the pool's queueing rule: a freed slot
// goes to the waiting job of highest priority, the earliest queued
// among equals, and a failure turns every waiting job away.
func TestEnginePriorityOrder(t *testing.T) {
	e := newEngine(1)
	held, _ := e.acquire(0)
	prios := []uint64{1, 3, 2, 3}
	order := make(chan int, len(prios))
	for i, p := range prios {
		go func() {
			id, ok := e.acquire(p)
			if ok {
				order <- i
				e.release(id)
			}
		}()
		// Queue the jobs one at a time, so arrival order is i's order.
		for queued := 0; queued <= i; {
			time.Sleep(time.Millisecond)
			e.mu.Lock()
			queued = len(e.queue)
			e.mu.Unlock()
		}
	}
	e.release(held)
	for _, want := range []int{1, 3, 2, 0} {
		if got := <-order; got != want {
			t.Fatalf("job %d ran, want job %d (priorities %v)", got, want, prios)
		}
	}

	held, _ = e.acquire(0)
	turned := make(chan bool)
	go func() {
		_, ok := e.acquire(math.MaxUint64)
		turned <- !ok
	}()
	e.fail(errors.New("stop"))
	if !<-turned {
		t.Error("a waiting job ran after the engine failed")
	}
	e.release(held)
}
