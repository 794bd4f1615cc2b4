// Package sim wires the pieces into the paper's experimental setup:
// for one kernel it prepares the ARM baseline image, the profile, the
// synthesized FITS ISA and translation, and the Thumb sizing; it then
// runs any of the four simulated processor configurations (ARM16, ARM8,
// FITS16, FITS8 — ISA × I-cache size on the fixed SA-1100-class core)
// through the timing pipeline with the cache and power models attached.
// Configurations of one ISA whose caches hold its whole image text share
// one timing pass (Setup.Passes), exact or sampled: one pipeline run, or
// one fast-forward with one set of detailed windows.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math/bits"
	"slices"
	"strings"
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
// A Setup is immutable once Prepare returns: Run and RunPass only read
// it, so one Setup may serve any number of concurrent runs (the
// parallel experiment engine relies on this). Each run builds its own
// cache, power meters, layout and machine, leasing the machine's memory
// and releasing it when the run returns; the shared Program and Images
// are treated as read-only by the pipeline.
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
	// Profiles, when non-nil, memoizes the profiling stage: the run is
	// keyed by a content hash of the program (ARM text, load addresses,
	// data segment, entry point) plus the effective profile budget, so
	// repeated preparations of the same program — thousands of
	// synthesis points in a design-space sweep — share one
	// profile.Collect.
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
		return profile.CollectWith(p, profile.CollectOptions{MaxInstrs: budget})
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

	// Sampled describes how the estimate was formed when the result
	// came from the sampled estimator (RunSampled, or RunPass with
	// sample options); nil for exact (full-pipeline) runs.
	Sampled *SampleStats

	// AccessPJ is the power meter's total of per-access fetch energies
	// (power.Meter.AccessPJ), covering every access the run simulated
	// in detail. It is the conservation anchor of the tracing profiler:
	// a profiler attached to the run reports TotalPJ() equal to this
	// value, bit-for-bit under dyadic unit costs such as the default
	// calibration's.
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

// icachePort implements cpu.FetchPort over one cache and the power
// stream that every meter of a pass prices (Setup.RunPass); a plain run
// is a pass of one. Each fetch is one stream access and each cycle one
// stream tick, however many meters the pass has. A port is owned by
// exactly one pipeline run (it is not safe for concurrent use). The
// fetch path is allocation-free in the steady state: blocks fully
// inside the text segment alias the image directly, and blocks
// straddling the bounds reuse a per-port scratch buffer (asserted by
// BenchmarkFetchPort and TestFetchPortZeroAlloc). The port carries no
// instrumentation: runs are observed through the pipeline's event
// stream (RunOptions).
type icachePort struct {
	c         *cache.Cache
	stream    *power.Stream
	text      []byte
	textBase  uint32
	block     int
	buf       []byte // scratch for blocks straddling the text bounds
	lineShift uint32 // log2 of the cache's line size

	// holds is set when the cache holds the image text (Setup.holds):
	// it never evicts, so Replay needs no residency probe and replayed
	// hits are counted in one step per unit.
	holds bool
}

// probeHolding, when set (by tests only, before any run starts), makes
// holding passes probe residency before each replay and receives each
// probe's answer, which the no-eviction invariant says is always true.
var probeHolding func(resident bool)

func newICachePort(c *cache.Cache, im *program.Image, blockBytes int, stream *power.Stream) *icachePort {
	return &icachePort{c: c, stream: stream, text: im.Text, textBase: im.TextBase,
		block: blockBytes, buf: make([]byte, blockBytes),
		lineShift: uint32(bits.TrailingZeros(uint(c.Config().LineBytes)))}
}

// NewFetchPort returns the simulator's I-cache fetch port — the cache
// lookup plus the power stream behind every instruction fetch — for use
// by benchmarks and custom pipelines. Every meter built on stream
// prices every access and cycle, as in a shared pass; that is exact
// only while c cannot evict (Setup.Passes). The port must not be shared
// across concurrent pipeline runs.
func NewFetchPort(c *cache.Cache, im *program.Image, blockBytes int, stream *power.Stream) cpu.FetchPort {
	return newICachePort(c, im, blockBytes, stream)
}

// NewHoldingFetchPort is NewFetchPort for a cache that holds the image
// text, the port of a shared pass: it trusts residency without probing
// and counts replayed hits in bulk. It is an error when c cannot hold
// the text.
func NewHoldingFetchPort(c *cache.Cache, im *program.Image, blockBytes int, stream *power.Stream) (cpu.FetchPort, error) {
	if !holdsText(c.Config(), im, blockBytes) {
		return nil, fmt.Errorf("sim: a %+v cache does not hold a %d-byte text", c.Config(), len(im.Text))
	}
	p := newICachePort(c, im, blockBytes, stream)
	p.holds = true
	return p, nil
}

func (p *icachePort) FetchBlock(addr uint32) int {
	hit := p.c.Access(addr)
	p.stream.Access(addr, p.fetched(addr), !hit)
	if hit {
		return 0
	}
	return MissPenalty
}

// fetched returns the bytes the block at addr delivers: the image text
// it overlaps, zero outside it.
func (p *icachePort) fetched(addr uint32) []byte {
	off := int64(addr) - int64(p.textBase)
	if off >= 0 && off+int64(p.block) <= int64(len(p.text)) {
		return p.text[off : off+int64(p.block)]
	}
	blk := p.buf
	for i := range blk {
		b := byte(0)
		if o := off + int64(i); o >= 0 && o < int64(len(p.text)) {
			b = p.text[o]
		}
		blk[i] = b
	}
	return blk
}

func (p *icachePort) Tick() { p.stream.Tick() }

// Replay makes the cache side of a replayed segment's n fetches of
// consecutive blocks from lo when every line under them is resident:
// then each fetch hits, and hits evict nothing. Any port but a holding
// one probes the cache first and makes the hits one by one, in order,
// before the pipeline's next probe or fetch, so its LRU order stays
// exact.
//
// A holding port neither probes nor makes them. The pipeline asks only
// about a memoized segment's blocks, a segment is memoized only when
// every one of its fetches hit, and a cache that holds the text never
// evicts a line once filled, so they are resident. Their hits are
// counted with their unit (ReplayUnit): such a cache never reads the
// LRU stamps and hints they would set (cache.Cache.AddHits).
func (p *icachePort) Replay(lo, block uint32, n int) bool {
	if p.holds {
		if probeHolding != nil {
			probeHolding(p.resident(lo, lo+uint32(n)*block))
		}
		return true
	}
	if !p.resident(lo, lo+uint32(n)*block) {
		return false
	}
	for ; n > 0; n-- {
		p.c.Access(lo)
		lo += block
	}
	return true
}

// Summarize appends the stream summary of a replay unit (power.RunBuilder).
func (p *icachePort) Summarize(dst []uint64, at, addr []uint32, cycles uint32) []uint64 {
	b := p.stream.BeginRun(dst)
	for k, a := range addr {
		b.Access(at[k], a, p.fetched(a))
	}
	return b.End(cycles)
}

// ReplayUnit applies a unit summary to the stream in one step, and in a
// holding port adds the unit's hits to the cache's statistics.
func (p *icachePort) ReplayUnit(sum []uint64) int {
	n, bulk := p.stream.ReplayRun(sum)
	if p.holds {
		p.c.AddHits(uint64(n))
	}
	return int(bulk)
}

// resident probes the cache for every line under [lo, hi).
func (p *icachePort) resident(lo, hi uint32) bool {
	if hi <= lo {
		return true
	}
	shift := p.lineShift
	for l := lo >> shift; l <= (hi-1)>>shift; l++ {
		if !p.c.Contains(l << shift) {
			return false
		}
	}
	return true
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
		var out [1]*Result
		if err := s.runSampled([]Config{cfg}, cal, *opt.Sample, opt.Sink, out[:], nil); err != nil {
			return nil, err
		}
		return out[0], nil
	}
	rs, err := s.runPass([]Config{cfg}, cal, opt.Sink, opt.WindowCycles)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// image returns the image an ISA's configurations fetch from.
func (s *Setup) image(i ISA) *program.Image {
	if i == ISAFITS {
		return s.Fits.Image
	}
	return s.ArmImage
}

// holds reports whether cfg's cache keeps every line its image's fetch
// stream can touch resident at once. The pipeline fetches only aligned
// blocks that overlap the instructions on the executed path, so every
// fetch address lies in the image text, widened down to a block
// boundary.
func (s *Setup) holds(cfg Config) bool {
	return holdsText(cfg.Cache, s.image(cfg.ISA), cpu.DefaultPipeConfig().BlockBytes)
}

// holdsText reports whether a cache of geometry geom holds every block
// of block bytes that overlaps im's text.
func holdsText(geom cache.Config, im *program.Image, block int) bool {
	lo := im.TextBase &^ uint32(block-1)
	return geom.Holds(lo, int(im.TextBase-lo)+len(im.Text))
}

// passKey is what configurations must share to share a pass: the image
// and the line size that fixes which accesses are first touches.
type passKey struct {
	isa  ISA
	line int
}

// passIndices groups cfgs into passes as Passes does, by index.
func (s *Setup) passIndices(cfgs []Config) [][]int {
	var passes [][]int
	shared := map[passKey]int{}
	for i, cfg := range cfgs {
		if !s.holds(cfg) {
			passes = append(passes, []int{i})
			continue
		}
		k := passKey{cfg.ISA, cfg.Cache.LineBytes}
		if p, ok := shared[k]; ok {
			passes[p] = append(passes[p], i)
			continue
		}
		shared[k] = len(passes)
		passes = append(passes, []int{i})
	}
	return passes
}

// Passes groups cfgs into timing passes, in order of first appearance:
// the configurations of one ISA and line size whose caches each hold
// that ISA's image text share a pass, and every other configuration is
// a pass of one. A cache that holds the text never evicts and misses
// exactly on the first touch of each line (cache.Config.Holds), so
// every geometry in a pass sees the same hit/miss sequence, the
// pipeline the same stalls, and the pass's one power stream exactly the
// accesses and cycles each standalone run would count. The grouping
// depends only on the image and the geometries.
func (s *Setup) Passes(cfgs []Config) [][]Config {
	idx := s.passIndices(cfgs)
	passes := make([][]Config, len(idx))
	for p, is := range idx {
		for _, i := range is {
			passes[p] = append(passes[p], cfgs[i])
		}
	}
	return passes
}

// RunPass times one pass of Passes: exactly, in a single pipeline run
// with one cache, one power stream, and one meter per configuration
// pricing it, or, with sample options, in a single sampled run that
// shares the fast-forward and the detailed windows in the same way.
// Each result is bit-identical to Run (or RunSampled) of its
// configuration. Configurations that cannot share a pass are an error.
// Like Run, it is safe to call concurrently on one Setup.
func (s *Setup) RunPass(cfgs []Config, cal power.Calibration, sample *SampleOptions) ([]*Result, error) {
	if sample == nil {
		return s.runPass(cfgs, cal, nil, 0)
	}
	out := make([]*Result, len(cfgs))
	if err := s.runSampled(cfgs, cal, *sample, nil, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// RunAll times cfgs, one RunPass per pass of Passes, and returns the
// results in cfgs order: exactly when sample is nil, with the sampled
// estimator otherwise.
func (s *Setup) RunAll(cfgs []Config, cal power.Calibration, sample *SampleOptions) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	for _, is := range s.passIndices(cfgs) {
		pass := make([]Config, len(is))
		for j, i := range is {
			pass[j] = cfgs[i]
		}
		rs, err := s.RunPass(pass, cal, sample)
		if err != nil {
			return nil, err
		}
		for j, i := range is {
			out[i] = rs[j]
		}
	}
	return out, nil
}

// checkPass rejects configurations that cannot share a pass: none at
// all, or several that differ in ISA or line size or whose caches do
// not all hold the text.
func (s *Setup) checkPass(cfgs []Config) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("sim: %s: empty pass", s.Kernel.Name)
	}
	if len(cfgs) == 1 {
		return nil
	}
	cfg := cfgs[0]
	for _, other := range cfgs {
		if other.ISA != cfg.ISA || other.Cache.LineBytes != cfg.Cache.LineBytes || !s.holds(other) {
			return fmt.Errorf("sim: %s on %s: configurations cannot share a pass", s.Kernel.Name, passName(cfgs))
		}
	}
	return nil
}

// runPass runs the full cycle-accurate pipeline once for a pass,
// streaming its events to sink and, when window is positive, to the
// phase sampler and the hotspot profiler behind Result.Phases. Sinks
// and windows observe single-configuration passes only (RunWith).
func (s *Setup) runPass(cfgs []Config, cal power.Calibration, sink tracing.EventSink, window int) ([]*Result, error) {
	if err := s.checkPass(cfgs); err != nil {
		return nil, err
	}
	cfg := cfgs[0]
	prog, im, dec, _ := s.target(cfg)
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	stream, err := power.NewStream(cal, cfg.Cache.LineBytes)
	if err != nil {
		return nil, err
	}
	meters := make([]*power.Meter, len(cfgs))
	for i := range cfgs {
		if meters[i], err = stream.NewMeter(cfgs[i].Cache); err != nil {
			return nil, err
		}
	}
	meter := meters[0]
	bindEnergy(sink, meter)
	pc := cpu.DefaultPipeConfig()
	m := cpu.New(prog, cpu.ImageLayout(im))
	defer m.Release()
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
	port := newICachePort(c, im, pc.BlockBytes, stream)
	port.holds = s.holds(cfg)
	if err := cpu.RunPipelineTraced(m, pc, port, dec, pipe, sink); err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", s.Kernel.Name, passName(cfgs), err)
	}
	out := make([]*Result, len(cfgs))
	for i := range cfgs {
		out[i] = &Result{Config: cfgs[i], Pipe: ownPipe(pipe, i), Cache: c.Stats(), Power: meters[i].Report(), AccessPJ: meters[i].AccessPJ()}
	}
	if sampler != nil {
		out[0].Phases = sampler.Series(pipe.Cycles)
		out[0].Phases.Hotspots = prof.Hotspots()
	}
	return out, nil
}

// ownPipe returns the PipeResult of a pass's i-th result: p itself for
// the first, a copy with its own Output for the others, so the results
// of a pass are equal but share nothing.
func ownPipe(p *cpu.PipeResult, i int) *cpu.PipeResult {
	if i == 0 {
		return p
	}
	cp := *p
	cp.Output = slices.Clone(p.Output)
	return &cp
}

// passName names a pass in errors: its configuration names joined by
// "+", which is the configuration's own name for a pass of one.
func passName(cfgs []Config) string {
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		names[i] = cfg.Name
	}
	return strings.Join(names, "+")
}
