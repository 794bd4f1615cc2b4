package experiments

import (
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
	seq, err := RunParallel(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	var inCallback int32
	var lines []string
	par, err := RunParallel(1, 8, func(line string) {
		if atomic.AddInt32(&inCallback, 1) != 1 {
			t.Error("progress callback invoked concurrently")
		}
		lines = append(lines, line)
		atomic.AddInt32(&inCallback, -1)
	})
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
		if s.ArmCompiled == nil || s.FitsCompiled == nil {
			t.Fatalf("%s: setup missing compiled micro-op tables", s.Kernel.Name)
		}
		if s.ArmCompiled != s.ArmDecoded.Compiled() || s.FitsCompiled != s.FitsDecoded.Compiled() {
			t.Errorf("%s: compiled tables not shared with the decoded tables", s.Kernel.Name)
		}
		if s.ArmCompiled.Program() != s.Prog {
			t.Errorf("%s: ARM compiled table not built from the baseline program", s.Kernel.Name)
		}
		if s.FitsCompiled.Program() != s.Fits.Lowered {
			t.Errorf("%s: FITS compiled table not built from the lowered program", s.Kernel.Name)
		}
	}
}

// TestSuiteMetricsRegistry asserts the engine publishes per-kernel
// timing through the merged run-wide registry: every kernel's prepare
// gauge and per-config run gauges are present, and the engine
// histograms account for every job.
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
