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
// A Setup is immutable once the call that made it returns: RunAll only
// reads it, so one Setup may serve any number of concurrent runs (the
// parallel experiment engine relies on this). Each run builds its own
// cache, power meters and machine, leasing the machine's memory and
// releasing it when the run returns; the machine takes its layout from
// the shared micro-op table (cpu.Compiled.Layout), and the shared
// Program and Images are treated as read-only by the pipeline.
//
// A baseline Setup (PrepareBaseline) holds the ARM half only: Profile,
// Synth, Fits, FitsDecoded and FitsCompiled are nil, and it times ARM
// configurations only. WithFITS adds the FITS half. Fits is the
// translation synthesis built (Synth.Translation): it lowers
// Profile.Prog, which under a memoized profile is the content-identical
// program of whichever preparation profiled first.
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
	// once per preparation and shared read-only by every configuration
	// run and engine worker, so the timing pipeline never re-derives
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

// PrepareOptions parameterises PrepareWith.
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
	// Log, when non-nil, receives the two Debug "prepare stages"
	// records of PrepareBaseline and WithFITS: the wall-clock cost of
	// build, assemble, thumb and predecode, then of profile, synth,
	// translate and predecode. The produced Setup is identical with or
	// without logging.
	Log *slog.Logger
}

// PrepareWith builds, profiles, synthesizes and translates one kernel:
// PrepareBaseline, then WithFITS over the baseline's Profiler. scale ≤ 0
// selects the kernel's default scale. An invalid profile budget is an
// error before any work starts.
func PrepareWith(k kernels.Kernel, scale int, popts PrepareOptions) (*Setup, error) {
	if _, err := popts.Synth.EffectiveProfileBudget(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Name, err)
	}
	base, err := PrepareBaseline(k, scale, popts.Log)
	if err != nil {
		return nil, err
	}
	return base.WithFITS(base.Profiler(popts.Profiles, popts.Synth), popts.Synth, popts.Log)
}

// Profiler returns the profile source PrepareWith hands WithFITS: a
// profile.Collect run of s's program under opts' profile budget,
// memoized by profiles (nil = a run per call). An invalid budget is an
// error before any profiling work starts.
func (s *Setup) Profiler(profiles *profile.Cache, opts synth.Options) func() (*profile.Profile, error) {
	return func() (*profile.Profile, error) {
		budget, err := opts.EffectiveProfileBudget()
		if err != nil {
			return nil, err
		}
		return profiles.Collect(profileKey(s.Prog, s.ArmImage, budget), func() (*profile.Profile, error) {
			return profile.Collect(s.Prog, budget)
		})
	}
}

// PrepareBaseline builds the ARM half of a Setup: the program, its ARM
// image, the Thumb sizing and the ARM predecode and micro-op tables.
// scale ≤ 0 selects the kernel's default scale. log, when non-nil,
// receives one "prepare stages" record with the build, assemble, thumb
// and predecode stages.
func PrepareBaseline(k kernels.Kernel, scale int, log *slog.Logger) (*Setup, error) {
	clk := stageClock{log: log, last: time.Now()}
	if scale <= 0 {
		scale = k.DefaultScale
	}
	p := k.Build(scale)
	clk.mark("build")
	armIm, err := arm.Assemble(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Name, err)
	}
	clk.mark("assemble")
	ts, err := thumb.Translate(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: thumb: %w", k.Name, err)
	}
	clk.mark("thumb")
	armDec := cpu.Predecode(p, cpu.ImageLayout(armIm))
	s := &Setup{Kernel: k, Scale: scale, Prog: p, ArmImage: armIm, Thumb: ts,
		ArmDecoded: armDec, ArmCompiled: armDec.Compiled()}
	clk.mark("predecode")
	clk.emit(k.Name, scale)
	return s, nil
}

// WithFITS returns a copy of s with the FITS half added: the profile
// that profileFn returns, the ISA synthesized from it under opts, the
// FITS translation synthesis built for it (synth.Synthesis.Translation)
// and that translation's predecode and micro-op tables. The copy shares
// s's ARM half, and s is left unchanged, so one baseline serves any
// number of synthesis images. profileFn runs as the profile stage; log,
// when non-nil, receives one "prepare stages" record with the profile,
// synth, translate and predecode stages, translate being the part of
// synthesis that translated the chosen spec.
func (s *Setup) WithFITS(profileFn func() (*profile.Profile, error), opts synth.Options, log *slog.Logger) (*Setup, error) {
	clk := stageClock{log: log, last: time.Now()}
	prof, err := profileFn()
	if err != nil {
		return nil, fmt.Errorf("sim: %s: profile: %w", s.Kernel.Name, err)
	}
	clk.mark("profile")
	syn, err := synth.Synthesize(prof, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: synth: %w", s.Kernel.Name, err)
	}
	clk.mark("synth")
	// Synthesis translated the chosen spec to cost it; that part of its
	// time is the translate stage.
	clk.carve("synth", "translate", syn.TranslateTime())
	res := syn.Translation()
	f := *s
	f.Profile, f.Synth, f.Fits = prof, syn, res
	f.FitsDecoded = cpu.Predecode(res.Lowered, cpu.ImageLayout(res.Image))
	f.FitsCompiled = f.FitsDecoded.Compiled()
	clk.mark("predecode")
	clk.emit(s.Kernel.Name, s.Scale)
	return &f, nil
}

// stageClock times preparation stages for a "prepare stages" record,
// one "<stage>_sec" attribute per stage in the order first marked. With
// no logger it marks and emits nothing.
type stageClock struct {
	log   *slog.Logger
	last  time.Time
	attrs []slog.Attr
}

// mark charges the time since the previous mark to stage.
func (c *stageClock) mark(stage string) {
	if c.log == nil {
		return
	}
	now := time.Now()
	c.add(stage, now.Sub(c.last).Seconds())
	c.last = now
}

// carve moves d of the time already charged to from onto stage.
func (c *stageClock) carve(from, stage string, d time.Duration) {
	if c.log == nil {
		return
	}
	c.add(from, -d.Seconds())
	c.add(stage, d.Seconds())
}

func (c *stageClock) add(stage string, d float64) {
	key := stage + "_sec"
	for i := range c.attrs {
		if c.attrs[i].Key == key {
			c.attrs[i].Value = slog.Float64Value(c.attrs[i].Value.Float64() + d)
			return
		}
	}
	c.attrs = append(c.attrs, slog.Float64(key, d))
}

// emit logs one record with every stage marked so far.
func (c *stageClock) emit(kernel string, scale int) {
	if c.log != nil {
		c.log.LogAttrs(context.Background(), slog.LevelDebug, "prepare stages",
			append([]slog.Attr{slog.String("kernel", kernel), slog.Int("scale", scale)}, c.attrs...)...)
	}
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
	// came from the sampled estimator (RunOptions.Sample); nil for
	// exact (full-pipeline) runs.
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
// constructed as literals (tests) — still once per run rather than once
// per cycle.
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
// stream that every meter of a pass prices (Setup.Passes); a plain run
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

// RunOptions selects how RunAll simulates and what observes the run.
// The zero value is a plain exact run.
type RunOptions struct {
	// Sample, when non-nil, replaces the exact pipeline run with the
	// sampled estimator under these options.
	Sample *SampleOptions
	// Sink, when non-nil, receives the event stream of a run of one
	// configuration: every fetch, miss, zero-issue cycle, branch and
	// mispredict of the detailed pipeline, plus, on a sampled run, one
	// KindSuperblock event per fast-forward batch and a KindWindow
	// event at every sampling boundary. Results are bit-identical to an
	// unobserved run. A sink that attributes energy (tracing.Profiler)
	// is bound to the run's power meter before the first cycle, so its
	// total matches Result.AccessPJ.
	Sink tracing.EventSink
	// WindowCycles, when positive, attaches the phase sampler:
	// Result.Phases carries the cycle-windowed series and the
	// basic-block fetch-energy hotspots. It requires an exact run of
	// one configuration (Sample nil); a negative value is an error.
	WindowCycles int
	// Counts, when non-nil, makes the run add its machine's
	// per-instruction execution counts (cpu.Machine.DynCount) into
	// Counts[i] for instruction i of the pass's program. It requires
	// configurations that form one pass and one slot per instruction
	// of that program. A sampled pass that falls back to an exact run
	// clears Counts first, so a zeroed slice ends holding the counts of
	// one whole run, the input of profile.FromCounts.
	Counts []uint64
}

// passOptions is RunOptions as a pass reads it, with the sampling
// schedule by value: every sampled run leaks its sink to the heap, and
// a schedule behind a pointer in the same struct would leak with it
// (TestSampledAllocsPinned).
type passOptions struct {
	sampled bool
	sample  SampleOptions
	sink    tracing.EventSink
	window  int
	counts  []uint64
}

// Run is RunAll of one configuration, exact and unobserved.
func (s *Setup) Run(cfg Config, cal power.Calibration) (*Result, error) {
	return s.runOne(cfg, cal, passOptions{})
}

// runOne times one configuration as a pass of one, with the
// configuration and result slices on the stack.
func (s *Setup) runOne(cfg Config, cal power.Calibration, po passOptions) (*Result, error) {
	cfgs := [1]Config{cfg}
	var out [1]*Result
	if err := s.runOnePass(cfgs[:], cal, po, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// image returns the image an ISA's configurations fetch from.
func (s *Setup) image(i ISA) *program.Image {
	if i == ISAFITS {
		return s.Fits.Image
	}
	return s.ArmImage
}

// checkTargets rejects FITS configurations on a Setup that has no FITS
// half (a baseline Setup).
func (s *Setup) checkTargets(cfgs []Config) error {
	if s.Fits != nil {
		return nil
	}
	for _, cfg := range cfgs {
		if cfg.ISA == ISAFITS {
			return fmt.Errorf("sim: %s on %s: the Setup has no FITS image (see WithFITS)", s.Kernel.Name, cfg.Name)
		}
	}
	return nil
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
// depends only on the image and the geometries. A FITS configuration on
// a baseline Setup is an error.
func (s *Setup) Passes(cfgs []Config) ([][]Config, error) {
	if err := s.checkTargets(cfgs); err != nil {
		return nil, err
	}
	idx := s.passIndices(cfgs)
	passes := make([][]Config, len(idx))
	for p, is := range idx {
		for _, i := range is {
			passes[p] = append(passes[p], cfgs[i])
		}
	}
	return passes, nil
}

// RunAll times cfgs and returns the results in cfgs order: exactly, or
// with the sampled estimator when opt.Sample is set, in one timing run
// per pass of Passes. An exact pass is a single pipeline run with one
// cache, one power stream and one meter per configuration pricing it; a
// sampled pass shares the fast-forward and the detailed windows in the
// same way. Each result is bit-identical to a run of its configuration
// alone. A sink or a phase window observes one configuration, so an
// observed run of several is an error, as are a negative window, a
// window on a sampled run, counts over more than one pass or of the
// wrong length, and a FITS configuration on a baseline Setup. It is
// safe to call concurrently on one Setup: every piece of mutable state
// (cache, meters, machine) is created per call.
func (s *Setup) RunAll(cfgs []Config, cal power.Calibration, opt RunOptions) ([]*Result, error) {
	switch {
	case opt.WindowCycles < 0:
		return nil, fmt.Errorf("sim: negative sample window %d", opt.WindowCycles)
	case opt.WindowCycles > 0 && opt.Sample != nil:
		return nil, fmt.Errorf("sim: phase sampling requires an exact run, not the sampled estimator")
	case (opt.Sink != nil || opt.WindowCycles > 0) && len(cfgs) != 1:
		return nil, fmt.Errorf("sim: an observed run times one configuration, not %d", len(cfgs))
	}
	if err := s.checkTargets(cfgs); err != nil {
		return nil, err
	}
	po := passOptions{sink: opt.Sink, window: opt.WindowCycles, counts: opt.Counts}
	if opt.Sample != nil {
		po.sampled, po.sample = true, *opt.Sample
	}
	out := make([]*Result, len(cfgs))
	// Callers that already grouped cfgs into one pass (the experiment
	// engine, the sweep) skip the grouping and its allocations.
	if s.sharesPass(cfgs) {
		if err := s.runOnePass(cfgs, cal, po, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if opt.Counts != nil {
		return nil, fmt.Errorf("sim: %s on %s: counts need configurations that share one pass", s.Kernel.Name, passName(cfgs))
	}
	for _, is := range s.passIndices(cfgs) {
		pass := make([]Config, len(is))
		for j, i := range is {
			pass[j] = cfgs[i]
		}
		rs := make([]*Result, len(is))
		if err := s.runOnePass(pass, cal, po, rs); err != nil {
			return nil, err
		}
		for j, i := range is {
			out[i] = rs[j]
		}
	}
	return out, nil
}

// runOnePass times one pass of Passes, exactly or sampled as po asks,
// and stores the results in out, in cfgs order.
func (s *Setup) runOnePass(cfgs []Config, cal power.Calibration, po passOptions, out []*Result) error {
	if err := s.checkPass(cfgs, po.counts); err != nil {
		return err
	}
	if po.sampled {
		return s.runSampled(cfgs, cal, po, out, nil)
	}
	return s.runPass(cfgs, cal, po, out)
}

// sharesPass reports whether cfgs form one pass: a single
// configuration, or several of one ISA and line size whose caches all
// hold the text.
func (s *Setup) sharesPass(cfgs []Config) bool {
	if len(cfgs) == 1 {
		return true
	}
	for _, cfg := range cfgs {
		if cfg.ISA != cfgs[0].ISA || cfg.Cache.LineBytes != cfgs[0].Cache.LineBytes || !s.holds(cfg) {
			return false
		}
	}
	return len(cfgs) > 0
}

// checkPass rejects what cannot run as one pass: no configurations, a
// FITS configuration on a baseline Setup, several configurations that
// sharesPass refuses, and counts whose length is not the instruction
// count of the pass's program.
func (s *Setup) checkPass(cfgs []Config, counts []uint64) error {
	if err := s.checkTargets(cfgs); err != nil {
		return err
	}
	switch {
	case len(cfgs) == 0:
		return fmt.Errorf("sim: %s: empty pass", s.Kernel.Name)
	case !s.sharesPass(cfgs):
		return fmt.Errorf("sim: %s on %s: configurations cannot share a pass", s.Kernel.Name, passName(cfgs))
	case counts != nil && len(counts) != len(s.image(cfgs[0].ISA).InstrAddr):
		return fmt.Errorf("sim: %s on %s: %d counts for %d instructions", s.Kernel.Name, passName(cfgs),
			len(counts), len(s.image(cfgs[0].ISA).InstrAddr))
	}
	return nil
}

// runPass runs the full cycle-accurate pipeline once for a pass,
// streaming its events to po.sink and, when po.window is positive, to
// the phase sampler and the hotspot profiler behind Result.Phases, and
// counting executions into po.counts. Sinks and windows observe
// single-configuration passes only (RunAll).
func (s *Setup) runPass(cfgs []Config, cal power.Calibration, po passOptions, out []*Result) error {
	cfg := cfgs[0]
	prog, im, dec, comp := s.target(cfg)
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return err
	}
	stream, err := power.NewStream(cal, cfg.Cache.LineBytes)
	if err != nil {
		return err
	}
	meters := make([]*power.Meter, len(cfgs))
	for i := range cfgs {
		if meters[i], err = stream.NewMeter(cfgs[i].Cache); err != nil {
			return err
		}
	}
	meter := meters[0]
	sink := po.sink
	bindEnergy(sink, meter)
	pc := cpu.DefaultPipeConfig()
	m := cpu.New(prog, comp.Layout())
	defer m.Release()
	m.DynCount = po.counts
	var sampler *tracing.Sampler
	var prof *tracing.Profiler
	if po.window > 0 {
		if sampler, err = tracing.NewSampler(po.window, meter, func() uint64 { return m.InstrCount }); err != nil {
			return err
		}
		if prof, err = s.NewProfiler(cfg); err != nil {
			return err
		}
		prof.BindEnergy(meter)
		sink = tracing.Tee(sampler, prof, sink)
	}
	pipe := new(cpu.PipeResult)
	port := newICachePort(c, im, pc.BlockBytes, stream)
	port.holds = s.holds(cfg)
	if err := cpu.RunPipeline(m, pc, port, dec, pipe, sink); err != nil {
		return fmt.Errorf("sim: %s on %s: %w", s.Kernel.Name, passName(cfgs), err)
	}
	for i := range cfgs {
		out[i] = &Result{Config: cfgs[i], Pipe: ownPipe(pipe, i), Cache: c.Stats(), Power: meters[i].Report(), AccessPJ: meters[i].AccessPJ()}
	}
	if sampler != nil {
		out[0].Phases = sampler.Series(pipe.Cycles)
		out[0].Phases.Hotspots = prof.Hotspots()
	}
	return nil
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
