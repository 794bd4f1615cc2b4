// The parallel experiment engine: a bounded worker pool that fans out
// per-kernel preparation and per-pass timing runs (sim.Setup.Passes)
// as independent jobs. Results are keyed and sorted exactly as the
// sequential path produced them, so the rendered tables are
// byte-identical at any parallelism (see TestParallelMatchesSequential).
//
// Goroutine-safety contract (audited per package):
//   - sim.Setup is immutable after PrepareWith; Setup.RunAll builds
//     all mutable state (cache.Cache, power.Meter, cpu.Machine, layout)
//     per call. Each machine leases its memory and releases it when
//     the run returns; the workers share its free list, a mutex-guarded
//     reuse.FreeList (cpu.Machine.Release).
//   - the predecoded instruction tables (Setup.ArmDecoded /
//     Setup.FitsDecoded, see cpu.Predecode) are built once in Prepare
//     and shared read-only by every configuration run of a kernel —
//     the timing pipeline only indexes them.
//   - program.Program and program.Image are read-only during runs; the
//     fetch port aliases Image.Text without copying.
//   - cache.Cache and power.Meter are single-owner (one per pass) and
//     are never shared across goroutines here.
//   - each kernel job records its timing into a private
//     metrics.Registry, merged into Suite.Metrics after the barrier in
//     deterministic kernel order.
package experiments

import (
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// KernelTiming records the wall-clock cost of one kernel: preparation
// (build, profile, synthesis, translation, Thumb sizing) and the timing
// runs summed over the four configurations (a shared pass's wall time
// split evenly across its configurations), plus the worker slot the
// preparation ran on.
type KernelTiming struct {
	Kernel     string  `json:"kernel"`
	PrepareSec float64 `json:"prepare_sec"`
	RunSec     float64 `json:"run_sec"`
	Worker     int     `json:"worker"`
}

// engine is the bounded worker pool shared by every job of one suite
// generation. Jobs acquire a numbered slot before running; the first
// error cancels all jobs that have not yet started (in-flight jobs
// finish).
type engine struct {
	ids  chan int
	done chan struct{}
	once sync.Once
	err  error
}

func newEngine(workers int) *engine {
	e := &engine{ids: make(chan int, workers), done: make(chan struct{})}
	for i := 0; i < workers; i++ {
		e.ids <- i
	}
	return e
}

// fail records the first error and cancels outstanding work.
func (e *engine) fail(err error) {
	e.once.Do(func() {
		e.err = err
		close(e.done)
	})
}

// acquire blocks until a worker slot is free and returns its id; ok is
// false when the engine has been cancelled, in which case the job must
// not run.
func (e *engine) acquire() (id int, ok bool) {
	select {
	case <-e.done:
		return 0, false
	case id = <-e.ids:
	}
	select {
	case <-e.done:
		e.ids <- id
		return 0, false
	default:
		return id, true
	}
}

func (e *engine) release(id int) { e.ids <- id }

// Options parameterises one suite generation.
type Options struct {
	// Scale is the workload scale (≤ 0 = per-kernel default).
	Scale int
	// Workers bounds the pool (≤ 0 = runtime.GOMAXPROCS(0); 1 =
	// sequential).
	Workers int
	// Progress, when non-nil, receives one typed event per completed
	// kernel from a single goroutine, in completion order. Use
	// LineProgress to adapt a legacy line consumer (ProgressEvent.Line
	// renders the classic heartbeat), MultiProgress to fan out to
	// several sinks (e.g. a CLI printer plus a telemetry tracker).
	Progress ProgressFunc
	// Log, when non-nil, receives leveled structured engine logs:
	// per-kernel prepare/run timing at Debug, the suite summary at
	// Info. The logger's handler must be safe for concurrent use (every
	// stdlib slog handler is); it is also threaded into sim.PrepareWith
	// for per-stage preparation logs.
	Log *slog.Logger
	// WindowCycles, when positive, runs every kernel × configuration
	// simulation with the phase sampler attached at this window length;
	// the per-run metrics.Series lands on each sim.Result. Ignored when
	// Sampled is set — phase series require a full detailed run.
	WindowCycles int
	// Deprecated: profiling always runs on the superblock executor, so
	// nothing reads this field. It is kept only for callers that still
	// set it.
	Superblocks bool
	// Sampled replaces every full-pipeline timing pass with the sampled
	// estimator (sim.RunOptions.Sample): exact outputs and instruction
	// counts, extrapolated cycles and energy with ≤2 % validated error.
	// Configurations share a sampled pass exactly as they share an
	// exact one, so a sampled suite costs one pass per image whose text
	// the caches hold.
	Sampled bool
	// Sample parameterises the estimator when Sampled is set; the zero
	// value selects sim.DefaultSampleOptions.
	Sample sim.SampleOptions
}

// heartbeat formats one per-kernel progress line: the kernel that just
// finished, the suite completion counter [n/total], its ARM16 dynamic
// instruction count, and — once enough has completed to extrapolate —
// the kernel completion rate and the estimated time to suite
// completion. The "done" marker is load-bearing: consumers (and
// TestRunParallelProgress) key on it.
func heartbeat(kernel string, instrs uint64, n, total int, elapsed time.Duration) string {
	line := fmt.Sprintf("%-16s done [%d/%d] (%d dynamic instrs on ARM16)",
		kernel, n, total, instrs)
	if sec := elapsed.Seconds(); sec > 0 && n > 0 && n < total {
		rate := float64(n) / sec
		line += fmt.Sprintf(" %.1f kernels/s, ETA %.0fs", rate, float64(total-n)/rate)
	}
	return line
}

// RunParallel is Run with an explicit degree of parallelism.
// workers ≤ 0 selects runtime.GOMAXPROCS(0); workers == 1 reproduces
// the sequential engine. Whatever the parallelism, the resulting Suite
// renders byte-identical tables: results are keyed by kernel and
// configuration name and Setups are sorted by kernel name, just as the
// sequential loop produced them.
func RunParallel(scale, workers int, progress func(string)) (*Suite, error) {
	return RunSuite(Options{Scale: scale, Workers: workers, Progress: LineProgress(progress)})
}

// RunSuite generates the full suite under the given options.
func RunSuite(opt Options) (*Suite, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	ks := kernels.All()
	s := &Suite{
		Results: make(map[string]map[string]*sim.Result, len(ks)),
		Cal:     power.DefaultCalibration(),
		Chip:    power.DefaultChipModel(),
		Workers: workers,
		Metrics: metrics.NewRegistry(),
		Sampled: opt.Sampled,
	}

	// One drainer goroutine serializes the progress callback.
	var progCh chan ProgressEvent
	var progWG sync.WaitGroup
	if opt.Progress != nil {
		progCh = make(chan ProgressEvent, len(ks))
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			for ev := range progCh {
				opt.Progress(ev)
			}
		}()
	}

	// completed counts finished kernels for the heartbeat lines; the
	// atomic stands in for the serialization the drain goroutine gives
	// the lines themselves.
	var completed atomic.Uint64

	// Per-kernel result slots, written only by that kernel's goroutines.
	type kernelRun struct {
		setup   *sim.Setup
		results []*sim.Result // indexed as sim.Configs
		timing  KernelTiming
		reg     *metrics.Registry
	}
	runs := make([]kernelRun, len(ks))

	eng := newEngine(workers)
	var wg sync.WaitGroup
	for i := range ks {
		wg.Add(1)
		go func(kr *kernelRun, k kernels.Kernel) {
			defer wg.Done()
			kr.timing.Kernel = k.Name
			kr.reg = metrics.NewRegistry()
			kscope := kr.reg.Scope("kernel", k.Name)
			worker, ok := eng.acquire()
			if !ok {
				return
			}
			t0 := time.Now()
			setup, err := sim.PrepareWith(k, opt.Scale, sim.PrepareOptions{
				Synth: synth.DefaultOptions(),
				Log:   opt.Log,
			})
			kr.timing.PrepareSec = time.Since(t0).Seconds()
			kr.timing.Worker = worker
			eng.release(worker)
			if err != nil {
				eng.fail(err)
				return
			}
			kr.setup = setup
			if opt.Log != nil {
				opt.Log.Debug("kernel prepared", "kernel", k.Name,
					"worker", worker, "prepare_sec", kr.timing.PrepareSec)
			}
			kscope.Gauge("prepare_sec").Set(kr.timing.PrepareSec)
			kscope.Gauge("worker").Set(float64(worker))
			kr.reg.Histogram("engine/prepare_sec", metrics.DurationBuckets).
				Observe(kr.timing.PrepareSec)

			// Fan out one job per timing pass: exact and sampled runs
			// of an image share a pass across the cache sizes that
			// hold its text (sim.Setup.Passes); phase-sampled runs
			// time one configuration each.
			var ro sim.RunOptions
			if opt.Sampled {
				ro.Sample = &opt.Sample
			} else if opt.WindowCycles > 0 {
				ro.WindowCycles = opt.WindowCycles
			}
			var passes [][]sim.Config
			if ro.WindowCycles > 0 {
				for _, cfg := range sim.Configs {
					passes = append(passes, []sim.Config{cfg})
				}
			} else {
				passes = setup.Passes(sim.Configs)
			}
			kr.results = make([]*sim.Result, len(sim.Configs))
			runSec := make([]float64, len(sim.Configs))
			var cwg sync.WaitGroup
			for _, pass := range passes {
				cwg.Add(1)
				go func(pass []sim.Config) {
					defer cwg.Done()
					worker, ok := eng.acquire()
					if !ok {
						return
					}
					t0 := time.Now()
					rs, err := setup.RunAll(pass, s.Cal, ro)
					// A pass's wall time is split evenly across its
					// configurations, so RunSec still sums to the
					// simulation time.
					sec := time.Since(t0).Seconds() / float64(len(pass))
					eng.release(worker)
					if err != nil {
						eng.fail(err)
						return
					}
					for _, r := range rs {
						ci := configIndex(r.Config.Name)
						runSec[ci] = sec
						kr.results[ci] = r
					}
				}(pass)
			}
			cwg.Wait()
			for ci, sec := range runSec {
				kr.timing.RunSec += sec
				kscope.Scope(sim.Configs[ci].Name).Gauge("run_sec").Set(sec)
				kr.reg.Histogram("engine/run_sec", metrics.DurationBuckets).Observe(sec)
			}
			for ci, r := range kr.results {
				if r == nil || r.Sampled == nil {
					continue
				}
				cs := kscope.Scope(sim.Configs[ci].Name)
				cs.Gauge("sample_windows").Set(float64(r.Sampled.Windows))
				cs.Gauge("sample_detail_frac").Set(
					float64(r.Sampled.DetailedInstrs) / float64(r.Sampled.TotalInstrs))
				cs.Gauge("sample_cycle_ci").Set(r.Sampled.CycleRelCI)
			}
			for _, r := range kr.results {
				if r == nil {
					return // cancelled mid-kernel
				}
			}
			kr.reg.Counter("engine/kernels_done").Inc()
			if opt.Log != nil {
				opt.Log.Debug("kernel simulated", "kernel", k.Name,
					"run_sec", kr.timing.RunSec, "dyn_instrs", kr.results[0].Pipe.Instrs)
			}
			if progCh != nil {
				// sim.Configs[0] is ARM16, matching the sequential line.
				n := int(completed.Add(1))
				progCh <- ProgressEvent{Kernel: k.Name, Worker: kr.timing.Worker,
					Done: n, Total: len(ks), DynInstrs: kr.results[0].Pipe.Instrs,
					Elapsed: time.Since(start)}
			}
		}(&runs[i], ks[i])
	}
	wg.Wait()
	if progCh != nil {
		close(progCh)
		progWG.Wait()
	}
	if eng.err != nil {
		return nil, eng.err
	}

	for i := range runs {
		kr := &runs[i]
		res := make(map[string]*sim.Result, len(sim.Configs))
		for ci, cfg := range sim.Configs {
			res[cfg.Name] = kr.results[ci]
		}
		s.Setups = append(s.Setups, kr.setup)
		s.Results[kr.setup.Kernel.Name] = res
		s.Timings = append(s.Timings, kr.timing)
		if err := s.Metrics.Merge(kr.reg); err != nil {
			return nil, err
		}
	}
	sort.Slice(s.Setups, func(a, b int) bool {
		return s.Setups[a].Kernel.Name < s.Setups[b].Kernel.Name
	})
	sort.Slice(s.Timings, func(a, b int) bool {
		return s.Timings[a].Kernel < s.Timings[b].Kernel
	})
	s.WallSec = time.Since(start).Seconds()
	s.Metrics.Gauge("engine/wall_sec").Set(s.WallSec)
	s.Metrics.Gauge("engine/workers").Set(float64(workers))
	if opt.Log != nil {
		opt.Log.Info("suite complete", "kernels", len(ks),
			"workers", workers, "wall_sec", s.WallSec, "sampled", opt.Sampled)
	}
	return s, nil
}

// configIndex returns the position of the named configuration in
// sim.Configs.
func configIndex(name string) int {
	for i, cfg := range sim.Configs {
		if cfg.Name == name {
			return i
		}
	}
	panic("experiments: unknown configuration " + name)
}
