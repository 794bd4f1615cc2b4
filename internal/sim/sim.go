// Package sim wires the pieces into the paper's experimental setup:
// for one kernel it prepares the ARM baseline image, the profile, the
// synthesized FITS ISA and translation, and the Thumb sizing; it then
// runs any of the four simulated processor configurations (ARM16, ARM8,
// FITS16, FITS8 — ISA × I-cache size on the fixed SA-1100-class core)
// through the timing pipeline with the cache and power models attached.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"time"

	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/isa/thumb"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/synth"
	"powerfits/internal/tracing"
	"powerfits/internal/translate"

	"powerfits/internal/isa/arm"
)

// ISA selects the instruction encoding a configuration runs.
type ISA int

const (
	ISAARM ISA = iota
	ISAFITS
)

func (i ISA) String() string {
	if i == ISAFITS {
		return "FITS"
	}
	return "ARM"
}

// Config is one simulated processor configuration.
type Config struct {
	Name  string
	ISA   ISA
	Cache cache.Config
}

// The paper's four configurations.
var (
	ARM16  = Config{Name: "ARM16", ISA: ISAARM, Cache: cache.SA1100ICache()}
	ARM8   = Config{Name: "ARM8", ISA: ISAARM, Cache: cache.SA1100ICacheHalf()}
	FITS16 = Config{Name: "FITS16", ISA: ISAFITS, Cache: cache.SA1100ICache()}
	FITS8  = Config{Name: "FITS8", ISA: ISAFITS, Cache: cache.SA1100ICacheHalf()}
)

// Configs lists the four configurations in the paper's order.
var Configs = []Config{ARM16, ARM8, FITS16, FITS8}

// MissPenalty is the I-cache miss stall in cycles (SA-1100-class
// memory latency at 200 MHz).
const MissPenalty = 24

// Setup holds everything derived from one kernel before timing runs.
//
// A Setup is immutable once Prepare returns: Run only reads it, so one
// Setup may serve any number of concurrent Run calls (the parallel
// experiment engine relies on this). Each Run builds its own cache,
// power meter, layout and machine; the shared Program and Images are
// treated as read-only by the pipeline.
type Setup struct {
	Kernel kernels.Kernel
	Scale  int

	Prog     *program.Program
	ArmImage *program.Image
	Profile  *profile.Profile
	Synth    *synth.Synthesis
	Fits     *translate.Result
	Thumb    *thumb.Sizing

	// ArmDecoded and FitsDecoded are the predecoded static-instruction
	// tables (cpu.Predecode) for the two target images. They are built
	// once in Prepare and shared read-only by every configuration run
	// and engine worker, so the timing pipeline never re-derives
	// per-instruction metadata per cycle.
	ArmDecoded  *cpu.Decoded
	FitsDecoded *cpu.Decoded

	// ArmCompiled and FitsCompiled are the semantic micro-op tables
	// (cpu.Compile) built alongside the decoded tables — the execute
	// stage's counterpart to the timing predecode, likewise shared
	// read-only across configurations and engine workers.
	ArmCompiled  *cpu.Compiled
	FitsCompiled *cpu.Compiled
}

// PrepareOptions extends Prepare beyond the synthesis options.
type PrepareOptions struct {
	// Synth parameterises the ISA synthesis stage.
	Synth synth.Options
	// Superblocks runs the profiling pass through the fused superblock
	// executor (profile.CollectOptions.Superblocks). The resulting
	// Setup is identical; only preparation wall-clock changes.
	Superblocks bool
	// Profiles, when non-nil, memoizes the profiling stage: the run is
	// keyed by a content hash of the program (ARM text, load addresses,
	// data segment, entry point) plus the effective profile budget, so
	// repeated preparations of the same program — thousands of
	// synthesis points in a design-space sweep — share one
	// profile.Collect. Superblocks is deliberately excluded from the
	// key: both executors produce bit-identical profiles.
	Profiles *profile.Cache
	// Log, when non-nil, receives one Debug record per preparation with
	// the wall-clock cost of every stage (build, assemble, profile,
	// synth, translate, thumb, predecode). The produced Setup is
	// identical with or without logging.
	Log *slog.Logger
}

// Prepare builds, profiles, synthesizes and translates one kernel.
// scale ≤ 0 selects the kernel's default scale.
func Prepare(k kernels.Kernel, scale int, opts synth.Options) (*Setup, error) {
	return PrepareWith(k, scale, PrepareOptions{Synth: opts})
}

// PrepareWith is Prepare with full options.
func PrepareWith(k kernels.Kernel, scale int, popts PrepareOptions) (*Setup, error) {
	opts := popts.Synth
	if scale <= 0 {
		scale = k.DefaultScale
	}
	// stage records per-stage wall-clock when logging is requested; with
	// Log nil it degenerates to two time.Now calls per stage and no
	// allocation beyond the fixed slice.
	var stages []slog.Attr
	last := time.Now()
	stage := func(name string) {
		if popts.Log == nil {
			return
		}
		now := time.Now()
		stages = append(stages, slog.Float64(name+"_sec", now.Sub(last).Seconds()))
		last = now
	}
	p := k.Build(scale)
	stage("build")
	armIm, err := arm.Assemble(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Name, err)
	}
	stage("assemble")
	budget, err := opts.EffectiveProfileBudget()
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Name, err)
	}
	prof, err := popts.Profiles.Collect(profileKey(p, armIm, budget), func() (*profile.Profile, error) {
		return profile.CollectWith(p, profile.CollectOptions{MaxInstrs: budget, Superblocks: popts.Superblocks})
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %s: profile: %w", k.Name, err)
	}
	stage("profile")
	syn, err := synth.Synthesize(prof, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: synth: %w", k.Name, err)
	}
	stage("synth")
	res, err := translate.Translate(p, syn.Spec)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: translate: %w", k.Name, err)
	}
	stage("translate")
	ts, err := thumb.Translate(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: thumb: %w", k.Name, err)
	}
	stage("thumb")
	armDec := cpu.Predecode(p, cpu.ImageLayout(armIm))
	fitsDec := cpu.Predecode(res.Lowered, cpu.ImageLayout(res.Image))
	s := &Setup{Kernel: k, Scale: scale, Prog: p, ArmImage: armIm,
		Profile: prof, Synth: syn, Fits: res, Thumb: ts,
		ArmDecoded: armDec, FitsDecoded: fitsDec,
		ArmCompiled: armDec.Compiled(), FitsCompiled: fitsDec.Compiled(),
	}
	if popts.Log != nil {
		stage("predecode")
		popts.Log.LogAttrs(context.Background(), slog.LevelDebug, "prepare stages",
			append([]slog.Attr{slog.String("kernel", k.Name), slog.Int("scale", scale)}, stages...)...)
	}
	return s, nil
}

// profileKey derives the memoization key of the profiling stage: a
// content hash over everything the functional run can observe — the
// bit-accurate ARM encoding of every instruction, the load addresses,
// the data segment and the entry point — plus the effective budget.
// Two programs with the same key produce bit-identical profiles, so a
// cached Profile may be shared even though it references the program
// object of whichever preparation ran first.
func profileKey(p *program.Program, armIm *program.Image, budget uint64) profile.CacheKey {
	var meta [28]byte
	binary.LittleEndian.PutUint32(meta[0:], armIm.TextBase)
	binary.LittleEndian.PutUint32(meta[4:], p.TextBase)
	binary.LittleEndian.PutUint32(meta[8:], p.DataBase)
	binary.LittleEndian.PutUint64(meta[12:], uint64(p.Entry))
	binary.LittleEndian.PutUint64(meta[20:], budget)
	return profile.CacheKey{
		Image:  metrics.HashConfig(armIm.Text, p.Data, meta[:]),
		Budget: budget,
	}
}

// PrepareByName is Prepare for a kernel name with default options.
func PrepareByName(name string, scale int) (*Setup, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	return Prepare(k, scale, synth.DefaultOptions())
}

// Result is the outcome of one configuration's timing run.
type Result struct {
	Config Config
	Pipe   *cpu.PipeResult
	Cache  cache.Stats
	Power  power.Report

	// Phases is the phase-resolved telemetry of a run with a positive
	// RunOptions.WindowCycles; nil otherwise.
	Phases *metrics.Series

	// Sampled describes the sampling estimator behind the result when
	// it came from RunSampled; nil for exact (full-pipeline) runs.
	Sampled *SampleStats

	// AccessPJ is the power meter's exact running sum of per-access
	// fetch energies in access order (power.Meter.AccessPJ), covering
	// every access the run simulated in detail. It is the conservation
	// anchor of the tracing profiler: a profiler attached to the run
	// reports TotalPJ() equal to this value bit-for-bit.
	AccessPJ float64
}

// target resolves the configuration's ISA to its program, image and
// shared predecode/compile tables, predecoding per run for Setups
// constructed outside Prepare (tests, literals) — still once per run
// rather than once per cycle.
func (s *Setup) target(cfg Config) (prog *program.Program, im *program.Image, dec *cpu.Decoded, comp *cpu.Compiled) {
	switch cfg.ISA {
	case ISAARM:
		prog, im, dec, comp = s.Prog, s.ArmImage, s.ArmDecoded, s.ArmCompiled
	case ISAFITS:
		prog, im, dec, comp = s.Fits.Lowered, s.Fits.Image, s.FitsDecoded, s.FitsCompiled
	}
	if dec == nil {
		dec = cpu.Predecode(prog, cpu.ImageLayout(im))
	}
	if comp == nil {
		comp = dec.Compiled()
	}
	return prog, im, dec, comp
}

// icachePort implements cpu.FetchPort over the cache and power models.
// A port is owned by exactly one pipeline run (it is not safe for
// concurrent use). The fetch path is allocation-free in the steady
// state: blocks fully inside the text segment alias the image directly,
// and blocks straddling the bounds reuse a per-port scratch buffer
// (asserted by BenchmarkFetchPort and TestFetchPortNoAllocs). The port
// carries no instrumentation: runs are observed through the pipeline's
// event stream (RunOptions).
type icachePort struct {
	c        *cache.Cache
	m        *power.Meter
	text     []byte
	textBase uint32
	block    int
	buf      []byte // scratch for blocks straddling the text bounds
}

func newICachePort(c *cache.Cache, m *power.Meter, im *program.Image, blockBytes int) *icachePort {
	return &icachePort{c: c, m: m, text: im.Text, textBase: im.TextBase,
		block: blockBytes, buf: make([]byte, blockBytes)}
}

// NewFetchPort returns the simulator's I-cache fetch port — the cache
// lookup plus power accrual behind every instruction fetch — for use by
// benchmarks and custom pipelines. The port must not be shared across
// concurrent pipeline runs.
func NewFetchPort(c *cache.Cache, m *power.Meter, im *program.Image, blockBytes int) cpu.FetchPort {
	return newICachePort(c, m, im, blockBytes)
}

func (p *icachePort) FetchBlock(addr uint32) int {
	hit := p.c.Access(addr)
	off := int64(addr) - int64(p.textBase)
	blk := p.buf
	if off >= 0 && off+int64(p.block) <= int64(len(p.text)) {
		blk = p.text[off : off+int64(p.block)]
	} else {
		for i := range blk {
			b := byte(0)
			if o := off + int64(i); o >= 0 && o < int64(len(p.text)) {
				b = p.text[o]
			}
			blk[i] = b
		}
	}
	p.m.Access(addr, blk, !hit)
	if hit {
		return 0
	}
	return MissPenalty
}

func (p *icachePort) Tick() {
	p.m.Tick()
}

// RunOptions selects how a run is simulated and what observes it. The
// zero value is a plain exact run (Run).
type RunOptions struct {
	// Sample, when non-nil, replaces the exact pipeline run with the
	// sampled estimator under these options (RunSampled).
	Sample *SampleOptions
	// Sink, when non-nil, receives the run's event stream: every fetch,
	// miss, zero-issue cycle, branch and mispredict of the detailed
	// pipeline, plus, on a sampled run, one KindSuperblock event per
	// fast-forward batch and a KindWindow event at every sampling
	// boundary. Results are bit-identical to an unobserved run. A sink
	// that attributes energy (tracing.Profiler) is bound to the run's
	// power meter before the first cycle, so its total matches
	// Result.AccessPJ.
	Sink tracing.EventSink
	// WindowCycles, when positive, attaches the phase sampler:
	// Result.Phases carries the cycle-windowed series and the
	// basic-block fetch-energy hotspots. It requires an exact run
	// (Sample nil); a negative value is an error.
	WindowCycles int
}

// Run executes the prepared kernel under one configuration. It is safe
// to call concurrently on the same Setup: every piece of mutable state
// (cache, meter, layout index, machine) is created per call.
func (s *Setup) Run(cfg Config, cal power.Calibration) (*Result, error) {
	return s.RunWith(cfg, cal, RunOptions{})
}

// RunWith is the single run entry point: an exact or sampled run of one
// configuration, observed as opt requests. Like Run, it is safe to call
// concurrently on one Setup.
func (s *Setup) RunWith(cfg Config, cal power.Calibration, opt RunOptions) (*Result, error) {
	switch {
	case opt.WindowCycles < 0:
		return nil, fmt.Errorf("sim: negative sample window %d", opt.WindowCycles)
	case opt.WindowCycles > 0 && opt.Sample != nil:
		return nil, fmt.Errorf("sim: phase sampling requires an exact run, not the sampled estimator")
	case opt.Sample != nil:
		return s.runSampled(cfg, cal, *opt.Sample, opt.Sink)
	}
	return s.runExact(cfg, cal, opt.Sink, opt.WindowCycles)
}

// runExact runs the full cycle-accurate pipeline, streaming its events
// to sink and, when window is positive, to the phase sampler and the
// hotspot profiler behind Result.Phases.
func (s *Setup) runExact(cfg Config, cal power.Calibration, sink tracing.EventSink, window int) (*Result, error) {
	prog, im, dec, _ := s.target(cfg)
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	meter, err := power.NewMeter(cfg.Cache, cal)
	if err != nil {
		return nil, err
	}
	bindEnergy(sink, meter)
	pc := cpu.DefaultPipeConfig()
	m := cpu.New(prog, cpu.ImageLayout(im))
	var sampler *tracing.Sampler
	var prof *tracing.Profiler
	if window > 0 {
		if sampler, err = tracing.NewSampler(window, meter, func() uint64 { return m.InstrCount }); err != nil {
			return nil, err
		}
		if prof, err = s.NewProfiler(cfg); err != nil {
			return nil, err
		}
		prof.BindEnergy(meter)
		sink = tracing.Tee(sampler, prof, sink)
	}
	pipe := new(cpu.PipeResult)
	if err := cpu.RunPipelineTraced(m, pc, newICachePort(c, meter, im, pc.BlockBytes), dec, pipe, sink); err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", s.Kernel.Name, cfg.Name, err)
	}
	res := &Result{Config: cfg, Pipe: pipe, Cache: c.Stats(), Power: meter.Report(), AccessPJ: meter.AccessPJ()}
	if sampler != nil {
		res.Phases = sampler.Series(pipe.Cycles)
		res.Phases.Hotspots = prof.Hotspots()
	}
	return res, nil
}

// RunAll executes the kernel under every configuration.
func (s *Setup) RunAll(cal power.Calibration) (map[string]*Result, error) {
	out := make(map[string]*Result, len(Configs))
	for _, cfg := range Configs {
		r, err := s.Run(cfg, cal)
		if err != nil {
			return nil, err
		}
		out[cfg.Name] = r
	}
	return out, nil
}
