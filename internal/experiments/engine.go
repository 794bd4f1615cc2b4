// The parallel experiment engine: a bounded worker pool that runs one
// preparation job per kernel (its ARM baseline, the ARM timing pass
// that yields the profile, and the FITS half) and then fans out the
// kernel's remaining timing passes (sim.Setup.Passes) as independent
// jobs. Results are keyed and sorted exactly as the sequential path
// produced them, so the rendered tables are byte-identical at any
// parallelism (see TestParallelMatchesSequential).
//
// Goroutine-safety contract (audited per package):
//   - sim.Setup is immutable once made; Setup.RunAll builds
//     all mutable state (cache.Cache, power.Meter, cpu.Machine, layout)
//     per call. Each machine leases its memory and releases it when
//     the run returns; the workers share its free list, a mutex-guarded
//     reuse.FreeList (cpu.Machine.Release).
//   - the predecoded instruction tables (Setup.ArmDecoded /
//     Setup.FitsDecoded, see cpu.Predecode) are built once per
//     preparation and shared read-only by every configuration run of a
//     kernel — the timing pipeline only indexes them.
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
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// KernelTiming records the wall-clock cost of one kernel: preparation
// (build, assemble, Thumb sizing, predecode, profile, synthesis,
// translation) and the timing runs summed over the four configurations
// (a shared pass's wall time split evenly across its configurations),
// plus the worker slot the preparation ran on. PrepareSec excludes the
// ARM pass that the profile is counted from: that pass is a timing run,
// in RunSec.
type KernelTiming struct {
	Kernel     string  `json:"kernel"`
	PrepareSec float64 `json:"prepare_sec"`
	RunSec     float64 `json:"run_sec"`
	Worker     int     `json:"worker"`
}

// engine is the bounded worker pool shared by every job of one suite
// generation. Jobs acquire a numbered slot before running; a freed slot
// goes to the waiting job of highest priority, the earliest queued
// among equals. The first error cancels all jobs that have not yet
// started (in-flight jobs finish).
type engine struct {
	mu    sync.Mutex
	wake  *sync.Cond
	free  []int     // idle slot ids
	queue []*waiter // jobs blocked in acquire, in arrival order
	err   error
}

type waiter struct{ prio uint64 }

func newEngine(workers int) *engine {
	e := &engine{}
	for i := workers - 1; i >= 0; i-- {
		e.free = append(e.free, i)
	}
	e.wake = sync.NewCond(&e.mu)
	return e
}

// fail records the first error and cancels outstanding work.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
		e.wake.Broadcast()
	}
	e.mu.Unlock()
}

// acquire blocks until a worker slot is free and no waiting job of
// higher priority, or of equal priority queued earlier, is left, and
// returns the slot's id; ok is false when the engine has been
// cancelled, in which case the job must not run.
func (e *engine) acquire(prio uint64) (id int, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := &waiter{prio}
	e.queue = append(e.queue, w)
	for e.err == nil && (len(e.free) == 0 || e.next() != w) {
		e.wake.Wait()
	}
	e.queue = slices.DeleteFunc(e.queue, func(q *waiter) bool { return q == w })
	if e.err != nil {
		return 0, false
	}
	id = e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	if len(e.free) > 0 {
		e.wake.Broadcast() // the next waiter may take another slot
	}
	return id, true
}

// next returns the waiting job the next free slot goes to.
func (e *engine) next() *waiter {
	best := e.queue[0]
	for _, w := range e.queue[1:] {
		if w.prio > best.prio {
			best = w
		}
	}
	return best
}

func (e *engine) release(id int) {
	e.mu.Lock()
	e.free = append(e.free, id)
	e.wake.Broadcast()
	e.mu.Unlock()
}

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
	// stdlib slog handler is); it is also threaded into
	// sim.PrepareBaseline and Setup.WithFITS for per-stage preparation
	// logs.
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
// TestParallelMatchesSequential) key on it.
func heartbeat(kernel string, instrs uint64, n, total int, elapsed time.Duration) string {
	line := fmt.Sprintf("%-16s done [%d/%d] (%d dynamic instrs on ARM16)",
		kernel, n, total, instrs)
	if sec := elapsed.Seconds(); sec > 0 && n > 0 && n < total {
		rate := float64(n) / sec
		line += fmt.Sprintf(" %.1f kernels/s, ETA %.0fs", rate, float64(total-n)/rate)
	}
	return line
}

// RunSuite prepares and simulates the whole benchmark suite under the
// given options. Whatever opt.Workers, the resulting Suite renders
// byte-identical tables: results are keyed by kernel and configuration
// name and Setups are sorted by kernel name, just as the sequential
// loop (Workers 1) produces them.
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

	var ro sim.RunOptions
	if opt.Sampled {
		ro.Sample = &opt.Sample
	} else if opt.WindowCycles > 0 {
		ro.WindowCycles = opt.WindowCycles
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
			kr.results = make([]*sim.Result, len(sim.Configs))
			kr.runSec = make([]float64, len(sim.Configs))
			kscope := kr.reg.Scope("kernel", k.Name)
			// Preparations go first; the passes they leave queue
			// longest first by the ARM pass's instruction count, so the
			// suite does not end on one long kernel's passes.
			worker, ok := eng.acquire(math.MaxUint64)
			if !ok {
				return
			}
			rest, err := kr.prepare(k, opt, ro, s.Cal)
			kr.timing.Worker = worker
			eng.release(worker)
			if err != nil {
				eng.fail(err)
				return
			}
			if opt.Log != nil {
				opt.Log.Debug("kernel prepared", "kernel", k.Name,
					"worker", worker, "prepare_sec", kr.timing.PrepareSec)
			}
			kscope.Gauge("prepare_sec").Set(kr.timing.PrepareSec)
			kscope.Gauge("worker").Set(float64(worker))
			kr.reg.Histogram("engine/prepare_sec", metrics.DurationBuckets).
				Observe(kr.timing.PrepareSec)

			// Fan out one job per remaining timing pass.
			prio := kr.results[0].Pipe.Instrs
			var cwg sync.WaitGroup
			for _, pass := range rest {
				cwg.Add(1)
				go func(pass []sim.Config) {
					defer cwg.Done()
					worker, ok := eng.acquire(prio)
					if !ok {
						return
					}
					err := kr.run(kr.setup, pass, s.Cal, ro)
					eng.release(worker)
					if err != nil {
						eng.fail(err)
					}
				}(pass)
			}
			cwg.Wait()
			for ci, sec := range kr.runSec {
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

// kernelRun is one kernel's share of a suite: its Setup, its results
// and per-configuration run seconds indexed as sim.Configs, its timing
// and a private metrics registry. Only the kernel's own goroutines
// write it, each pass its own configurations' slots.
type kernelRun struct {
	setup   *sim.Setup
	results []*sim.Result
	runSec  []float64
	timing  KernelTiming
	reg     *metrics.Registry
}

// prepare prepares one kernel as the paper's flow does, profiling the
// application on the baseline before synthesizing: the ARM baseline,
// then the timing pass holding ARM16, which counts every instruction it
// executes, then the FITS half synthesized from the profile built from
// those counts (profile.FromCounts). It returns the passes left to
// time. The ARM pass is a timing run (RunSec); the rest is preparation
// (PrepareSec), logged as "prepare stages" records.
func (kr *kernelRun) prepare(k kernels.Kernel, opt Options, ro sim.RunOptions, cal power.Calibration) ([][]sim.Config, error) {
	t0 := time.Now()
	base, err := sim.PrepareBaseline(k, opt.Scale, opt.Log)
	prep := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var arm []sim.Config
	for _, cfg := range sim.Configs {
		if cfg.ISA == sim.ISAARM {
			arm = append(arm, cfg)
		}
	}
	armPasses, err := passesOf(base, arm, ro)
	if err != nil {
		return nil, err
	}
	counts := make([]uint64, len(base.Prog.Instrs))
	ro.Counts = counts
	if err := kr.run(base, armPasses[0], cal, ro); err != nil {
		return nil, err
	}
	arm16 := kr.results[0].Pipe // sim.Configs[0] is ARM16
	t0 = time.Now()
	kr.setup, err = base.WithFITS(func() (*profile.Profile, error) {
		return profile.FromCounts(base.Prog, counts, slices.Clone(arm16.Output)), nil
	}, synth.DefaultOptions(), opt.Log)
	kr.timing.PrepareSec = (prep + time.Since(t0)).Seconds()
	if err != nil {
		return nil, err
	}
	passes, err := passesOf(kr.setup, sim.Configs, ro)
	if err != nil {
		return nil, err
	}
	// Passes lists passes in order of first appearance, so the first
	// is the ARM pass already run.
	return passes[1:], nil
}

// passesOf groups cfgs into one kernel's timing jobs: the passes of
// Setup.Passes, or one per configuration for phase-sampled runs.
func passesOf(s *sim.Setup, cfgs []sim.Config, ro sim.RunOptions) ([][]sim.Config, error) {
	if ro.WindowCycles == 0 {
		return s.Passes(cfgs)
	}
	passes := make([][]sim.Config, len(cfgs))
	for i, cfg := range cfgs {
		passes[i] = []sim.Config{cfg}
	}
	return passes, nil
}

// run times one pass and stores its results. A pass's wall time is
// split evenly across its configurations, so RunSec still sums to the
// simulation time.
func (kr *kernelRun) run(s *sim.Setup, pass []sim.Config, cal power.Calibration, ro sim.RunOptions) error {
	t0 := time.Now()
	rs, err := s.RunAll(pass, cal, ro)
	sec := time.Since(t0).Seconds() / float64(len(pass))
	if err != nil {
		return err
	}
	for _, r := range rs {
		ci := configIndex(r.Config.Name)
		kr.runSec[ci] = sec
		kr.results[ci] = r
	}
	return nil
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
