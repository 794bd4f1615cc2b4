package sim

import (
	"fmt"
	"math"
	"slices"

	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/power"
	"powerfits/internal/reuse"
	"powerfits/internal/tracing"
)

// SampleOptions parameterises the sampled timing run: a detailed head,
// then systematic periods of [functional fast-forward][detailed warmup]
// [measured window] over the rest of the instruction stream. All counts
// are in instructions; zero fields take the defaults below.
type SampleOptions struct {
	// HeadInstrs is the exact detailed prefix. The cold-start miss burst
	// lives here, so it is measured rather than extrapolated.
	HeadInstrs uint64
	// PeriodInstrs is the sampling period: one warmup+window pair is
	// simulated in detail out of every period.
	PeriodInstrs uint64
	// WindowInstrs is the measured window length per period.
	WindowInstrs uint64
	// WarmupInstrs is the detailed-but-unmeasured run before each
	// window, re-warming the pipeline interlocks and cache after the
	// functional fast-forward.
	WarmupInstrs uint64
	// MinWindows is the minimum number of measured windows for the
	// estimate to stand; runs that halt earlier fall back to an exact
	// full simulation (reported via SampleStats.Exact).
	MinWindows int
}

// DefaultSampleOptions returns the tuning validated by
// TestSampledAccuracy: ~5 % of the stream simulated in detail, with
// the error bound documented in DESIGN.md §11. The period is kept off
// powers of two on purpose — 4096 resonates with the phase structure
// of the block-structured kernels (jpeg in particular) and triples the
// cycle error there.
func DefaultSampleOptions() SampleOptions {
	return SampleOptions{
		HeadInstrs:   1024,
		PeriodInstrs: 6144,
		WindowInstrs: 256,
		WarmupInstrs: 64,
		MinWindows:   6,
	}
}

func (o SampleOptions) withDefaults() SampleOptions {
	d := DefaultSampleOptions()
	if o.HeadInstrs == 0 {
		o.HeadInstrs = d.HeadInstrs
	}
	if o.PeriodInstrs == 0 {
		o.PeriodInstrs = d.PeriodInstrs
	}
	if o.WindowInstrs == 0 {
		o.WindowInstrs = d.WindowInstrs
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = d.WarmupInstrs
	}
	if o.MinWindows == 0 {
		o.MinWindows = d.MinWindows
	}
	return o
}

// Validate checks the sampling geometry: the warmup and window must
// leave room in the period for a fast-forward, or the "sampled" run
// would simulate everything in detail while paying resync churn.
func (o SampleOptions) Validate() error {
	if o.WarmupInstrs+o.WindowInstrs >= o.PeriodInstrs {
		return fmt.Errorf("sim: sample options: warmup %d + window %d must be < period %d",
			o.WarmupInstrs, o.WindowInstrs, o.PeriodInstrs)
	}
	if o.WindowInstrs == 0 {
		return fmt.Errorf("sim: sample options: window must be positive")
	}
	if o.MinWindows < 2 {
		return fmt.Errorf("sim: sample options: MinWindows %d (need ≥ 2 for a variance estimate)", o.MinWindows)
	}
	return nil
}

// SampleStats describes how a sampled estimate was formed.
type SampleStats struct {
	// Windows is the number of measured windows behind the estimate.
	Windows int
	// TotalInstrs is the exact dynamic instruction count (every
	// instruction executes functionally; only timing is sampled).
	TotalInstrs uint64
	// DetailedInstrs counts instructions simulated cycle-accurately
	// (head + warmups + windows); the rest were fast-forwarded.
	DetailedInstrs uint64
	// SampledInstrs counts instructions inside measured windows.
	SampledInstrs uint64
	// CycleRelCI and EnergyRelCI are the half-widths of the 95 %
	// confidence intervals on total cycles and total fetch energy,
	// relative to the estimates (0 for an exact run).
	CycleRelCI  float64
	EnergyRelCI float64
	// Exact is set when the run halted before MinWindows measured
	// windows and the result is a full detailed simulation instead of
	// an estimate.
	Exact bool
}

// sampleSnap is a point-in-time capture of every counter of a pass the
// estimator extrapolates. The energies, which differ per configuration,
// are captured beside it by each meterSample.
type sampleSnap struct {
	pipe   cpu.PipeResult
	instrs uint64
	miss   uint64
}

func takeSnap(res *cpu.PipeResult, m *cpu.Machine, c *cache.Cache) sampleSnap {
	return sampleSnap{pipe: *res, instrs: m.InstrCount, miss: c.Stats().Misses}
}

// sub returns the counter deltas a-b. The Output slice inside the
// embedded PipeResult is not meaningful on a delta and is cleared.
func (a sampleSnap) sub(b sampleSnap) sampleSnap {
	d := sampleSnap{
		instrs: a.instrs - b.instrs,
		miss:   a.miss - b.miss,
	}
	d.pipe = cpu.PipeResult{
		Cycles:          a.pipe.Cycles - b.pipe.Cycles,
		Instrs:          a.pipe.Instrs - b.pipe.Instrs,
		FetchAccesses:   a.pipe.FetchAccesses - b.pipe.FetchAccesses,
		FetchStalls:     a.pipe.FetchStalls - b.pipe.FetchStalls,
		Bubbles:         a.pipe.Bubbles - b.pipe.Bubbles,
		Branches:        a.pipe.Branches - b.pipe.Branches,
		Taken:           a.pipe.Taken - b.pipe.Taken,
		Mispredicts:     a.pipe.Mispredicts - b.pipe.Mispredicts,
		ZeroIssueMiss:   a.pipe.ZeroIssueMiss - b.pipe.ZeroIssueMiss,
		ZeroIssueBubble: a.pipe.ZeroIssueBubble - b.pipe.ZeroIssueBubble,
		ZeroIssueFetch:  a.pipe.ZeroIssueFetch - b.pipe.ZeroIssueFetch,
		ZeroIssueHazard: a.pipe.ZeroIssueHazard - b.pipe.ZeroIssueHazard,
		DualIssueCycles: a.pipe.DualIssueCycles - b.pipe.DualIssueCycles,
	}
	return d
}

func (a *sampleSnap) add(d sampleSnap) {
	a.instrs += d.instrs
	a.miss += d.miss
	a.pipe.Cycles += d.pipe.Cycles
	a.pipe.Instrs += d.pipe.Instrs
	a.pipe.FetchAccesses += d.pipe.FetchAccesses
	a.pipe.FetchStalls += d.pipe.FetchStalls
	a.pipe.Bubbles += d.pipe.Bubbles
	a.pipe.Taken += d.pipe.Taken
	a.pipe.Branches += d.pipe.Branches
	a.pipe.Mispredicts += d.pipe.Mispredicts
	a.pipe.ZeroIssueMiss += d.pipe.ZeroIssueMiss
	a.pipe.ZeroIssueBubble += d.pipe.ZeroIssueBubble
	a.pipe.ZeroIssueFetch += d.pipe.ZeroIssueFetch
	a.pipe.ZeroIssueHazard += d.pipe.ZeroIssueHazard
	a.pipe.DualIssueCycles += d.pipe.DualIssueCycles
}

// energy is a meter's cumulative switching, internal and leakage energy.
type energy struct{ sw, in, lk float64 }

func meterEnergy(m *power.Meter) energy {
	sw, in, lk := m.EnergyPJ()
	return energy{sw, in, lk}
}

// meterSample is one configuration's share of a sampled pass: the meter
// pricing the pass's stream for its geometry, its energy at the end of
// the head and at the start of the open window, its energy summed over
// the measured windows, and the per-window energy ratios.
type meterSample struct {
	m        *power.Meter
	head, w0 energy
	sum      energy
	ratios   []float64
}

// window closes a measured window of instrs instructions: it adds
// the meter's energy since w0 to the sum and appends the window's
// energy per instruction.
func (ms *meterSample) window(instrs uint64) {
	e := meterEnergy(ms.m)
	d := energy{e.sw - ms.w0.sw, e.in - ms.w0.in, e.lk - ms.w0.lk}
	ms.sum.sw += d.sw
	ms.sum.in += d.in
	ms.sum.lk += d.lk
	ms.ratios = append(ms.ratios, (d.sw+d.in+d.lk)/float64(instrs))
}

// covRange is one remembered warm-cover window (see sampleState).
type covRange struct{ lo, hi uint32 }

// sampleState is the per-pass scratch of a timing pass (runPass),
// hoisted into one allocation so the window loop itself stays off the
// heap: the warm-cover memo and the warm-once set behind the functional
// fast-forward, the per-window cycle-ratio series, and one meterSample
// per configuration, the ratio series preallocated from the profile's
// dynamic instruction count. The run's total allocation count is
// pinned by TestSampledAllocsPinned.
type sampleState struct {
	c         *cache.Cache
	lineMask  uint32
	lineBytes uint32

	// The executor reports the same few ranges over and over inside a
	// hot loop (block body, exit branch, callee); remembering the
	// recently covered windows avoids a cache probe per iteration — the
	// lines are resident and their relative recency cannot change while
	// execution cycles within them. The memo is cleared at each
	// segment start because detailed windows run between segments and
	// may evict lines the memo still claims as covered.
	cov    [4]covRange
	covIdx int

	// seen is the warm-once set of a pass whose cache holds the text
	// (cpu.Machine.RunSuperblocks): one bit per instruction
	// index, set once the batch starting there has been witnessed
	// whole; nil when every batch is witnessed. witnessed counts the
	// witness calls, for the tests.
	seen      []uint64
	witnessed int

	cycleRatios []float64
	meters      []meterSample
}

// sampleFree recycles sampleStates (and the ratio slices and warm-once
// sets they carry) across passes. A one-shot CLI run never notices,
// but the serve hot path issues one pass per request and pass, and
// without the list each pays the scratch allocations anew.
var sampleFree = reuse.NewFreeList[*sampleState](8)

// newSampleState leases a recycled (or fresh) sampleState, bound to
// this pass's cache and geometry, with n meter samples, ratio capacity
// of at least hint, and, when instrs is positive, a cleared warm-once
// set of at least instrs bits.
func newSampleState(c *cache.Cache, lineBytes, n, hint, instrs int) *sampleState {
	st, ok := sampleFree.Get()
	if !ok {
		st = new(sampleState)
	}
	st.c = c
	st.lineMask = ^uint32(lineBytes - 1)
	st.lineBytes = uint32(lineBytes)
	st.cov = [4]covRange{}
	st.covIdx = 0
	st.seen = bitSlice(st.seen, instrs)
	st.witnessed = 0
	st.cycleRatios = ratioSlice(st.cycleRatios, hint)
	st.meters = slices.Grow(st.meters[:0], n)[:n]
	for i := range st.meters {
		st.meters[i] = meterSample{ratios: ratioSlice(st.meters[i].ratios, hint)}
	}
	return st
}

// ratioSlice empties r for reuse, reallocating it if its capacity is
// below hint.
func ratioSlice(r []float64, hint int) []float64 {
	if cap(r) < hint {
		return make([]float64, 0, hint)
	}
	return r[:0]
}

// bitSlice returns a cleared set of at least n bits in b's storage,
// reallocating it if too small, or nil when n is not positive.
func bitSlice(b []uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	w := (n + 63) / 64
	if cap(b) < w {
		return make([]uint64, w)
	}
	b = b[:w]
	clear(b)
	return b
}

// release puts the state back on the free list, or drops it when the
// list is full. The cache and meter references are dropped so a listed
// state never pins a dead run's cache arrays or stream.
func (st *sampleState) release() {
	st.c = nil
	for i := range st.meters {
		st.meters[i].m = nil
	}
	sampleFree.Put(st)
}

// warm is the fast-forward's fetch witness: functional cache warming.
// Fast-forwarded code still touches its I-cache lines (without charging
// time or energy), so each measured window opens on the cache contents
// the exact run would have. The snapshots bracketing windows make the
// warming traffic itself invisible to the estimator.
func (st *sampleState) warm(lo, hi uint32) {
	st.witnessed++
	for _, r := range st.cov {
		if lo >= r.lo && hi <= r.hi {
			return
		}
	}
	l := lo & st.lineMask
	for a := l; a < hi; a += st.lineBytes {
		st.c.Access(a)
	}
	st.cov[st.covIdx] = covRange{l, hi}
	st.covIdx = (st.covIdx + 1) & 3
}

func (st *sampleState) resetWarm() {
	st.cov = [4]covRange{}
}

// RunSampled is RunAll of one configuration with the sampled
// estimator (runPass; DESIGN.md §11): outputs and instruction counts
// are exact, cycles and energy are extrapolated from periodic detailed
// windows, and the Result carries a SampleStats.
func (s *Setup) RunSampled(cfg Config, cal power.Calibration, opt SampleOptions) (*Result, error) {
	var out [1]*Result
	err := s.runAll([]Config{cfg}, cal, passOptions{sampled: true, sample: opt}, out[:])
	return out[0], err
}

// runPass times one pass of Passes, exactly or with the sampled
// estimator as po asks, and stores the results in out, in cfgs order.
// The pass has one cache, one power stream with one meter per
// configuration pricing it, one machine and one pipeline run, whose
// detailed head runs to halt in an exact pass and for
// SampleOptions.HeadInstrs in a sampled one. A pass that halts inside
// its head is the exact simulation; a sampled pass that does not goes
// on with one fast-forward with functional warming and one set of
// detailed warmup and window segments. A cache that holds the text sees
// the same hits and misses on every warming touch and detailed fetch at
// every geometry of the pass, so the counts, windows and ratios are
// those of each standalone run, and each configuration's energies use
// exactly its standalone run's expressions: every result is
// bit-identical to a pass of one.
//
// A sink or a phase window observes single-configuration passes only,
// and a phase window exact ones (RunAll); the phase sampler and the
// hotspot profiler behind Result.Phases join the sink before the head.
// The detailed segments stream the pipeline's events, the fast-forwards
// emit one KindSuperblock event per executed batch, and every sampling
// boundary (head end, warmup start, measure start/end) emits a
// KindWindow event, so a consumer can tell measured cycles from
// extrapolated ones. When a sampled pass halts before MinWindows
// measured windows, it is re-run as an exact pass; a traced fallback's
// events follow the aborted sampled prefix's in the same sink, with a
// fresh meter bound for energy attribution, and its counts replace the
// prefix's in po.counts.
//
// Functional warming witnesses every fast-forward batch, except in an
// untraced pass whose caches hold the text: such a cache never evicts,
// so once a batch's lines have been touched every later touch of them
// hits, and the fast-forward witnesses each block only the first time
// it runs whole (the warm-once set of cpu.Machine.RunSuperblocks). The
// extra touches would change only LRU stamps and the access count,
// which no result reads. A non-nil probe is the tests' window on this:
// it can force the per-batch witness and receives the witness call
// count.
func (s *Setup) runPass(cfgs []Config, cal power.Calibration, po passOptions, out []*Result, probe *warmProbe) error {
	opt, sink := po.sample.withDefaults(), po.sink
	headInstrs, mode := uint64(math.MaxUint64), ""
	if po.sampled {
		if err := opt.Validate(); err != nil {
			return err
		}
		headInstrs, mode = opt.HeadInstrs, " (sampled)"
	}
	cfg := cfgs[0]
	prog, dec := s.target(cfg.ISA)
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return err
	}
	// Recycled per-pass scratch: the meters, and in a sampled pass the
	// warm-cover memo, the warm-once set of a holding pass and the ratio
	// series, the latter sized from the profiled dynamic instruction
	// count (a hint — the FITS stream may run slightly longer or shorter
	// than the profiled ARM one; none without a profile). The deferred
	// release runs after the results below have consumed the ratio
	// series. A pass whose caches hold the text warms each block once
	// and trusts residency; the tests' reference (everyBatch) does
	// neither.
	holds := s.holds(cfg) && (probe == nil || !probe.everyBatch)
	var hint, onceBits int
	if po.sampled && s.Profile != nil {
		hint = int(s.Profile.TotalDyn/opt.PeriodInstrs) + 4
	}
	if po.sampled && holds && sink == nil {
		onceBits = len(prog.Instrs)
	}
	st := newSampleState(c, cfg.Cache.LineBytes, len(cfgs), hint, onceBits)
	defer st.release()
	if probe != nil {
		defer func() { probe.witnessed = st.witnessed }()
	}
	// The first meter owns the pass's stream; the others price it.
	meters := st.meters
	if meters[0].m, err = power.NewMeter(cfg.Cache, cal); err != nil {
		return err
	}
	stream := meters[0].m.Stream()
	for i := 1; i < len(cfgs); i++ {
		if meters[i].m, err = stream.NewMeter(cfgs[i].Cache); err != nil {
			return err
		}
	}
	bindEnergy(sink, meters[0].m)
	pc := cpu.DefaultPipeConfig()
	comp := dec.Compiled()
	m := cpu.New(prog, comp.Layout())
	defer m.Release()
	m.DynCount = po.counts
	var sampler *tracing.Sampler
	var prof *tracing.Profiler
	if po.window > 0 {
		if sampler, err = tracing.NewSampler(po.window, meters[0].m, func() uint64 { return m.InstrCount }); err != nil {
			return err
		}
		if prof, err = s.NewProfiler(cfg); err != nil {
			return err
		}
		prof.BindEnergy(meters[0].m)
		sink = tracing.Tee(sampler, prof, sink)
	}
	port := newICachePort(c, s.image(cfg.ISA), pc.BlockBytes, stream)
	port.holds = holds

	var pres cpu.PipeResult
	wrap := func(err error) error {
		return fmt.Errorf("sim: %s on %s%s: %w", s.Kernel.Name, passName(cfgs), mode, err)
	}
	run, err := cpu.NewPipelineRun(m, pc, port, dec, &pres)
	if err != nil {
		return wrap(err)
	}
	defer run.Release()
	run.SetSink(sink)
	boundary := func(code uint8) {
		if sink != nil {
			sink.Emit(tracing.Event{Cycle: run.Cycles(), PC: 0,
				Payload: uint32(m.InstrCount), Kind: tracing.KindWindow, Cause: code})
		}
	}

	// Detailed head: the cold-start behaviour is measured exactly, and
	// an exact pass is all head.
	if err := run.RunUntil(headInstrs); err != nil {
		return wrap(err)
	}
	if po.sampled {
		boundary(tracing.WindowHead)
	}
	if m.Halted {
		// The program halted inside the detailed head: this pass IS the
		// exact simulation.
		for i := range cfgs {
			out[i] = &Result{Config: cfgs[i], Pipe: ownPipe(&pres, i), Cache: c.Stats(),
				Power: meters[i].m.Report(), AccessPJ: meters[i].m.AccessPJ()}
			if po.sampled {
				out[i].Sampled = &SampleStats{TotalInstrs: m.InstrCount, DetailedInstrs: m.InstrCount, Exact: true}
			}
		}
		if sampler != nil {
			out[0].Phases = sampler.Series(pres.Cycles)
			out[0].Phases.Hotspots = prof.Hotspots()
		}
		return nil
	}
	head := takeSnap(&pres, m, c)
	for i := range meters {
		meters[i].head = meterEnergy(meters[i].m)
	}

	ff := opt.PeriodInstrs - opt.WarmupInstrs - opt.WindowInstrs
	warm := st.warm // bind the method value once, not per fast-forward
	var wsum sampleSnap
	detailed := head.instrs
	for !m.Halted {
		// Functional fast-forward on the superblock executor: the
		// architectural state (and Output) advances exactly; the
		// stream stands still and the cache sees only warming touches.
		st.resetWarm()
		if err := m.RunSuperblocks(comp, ff, warm, st.seen, sink); err != nil {
			return wrap(err)
		}
		if m.Halted {
			break
		}
		if err := run.Resync(); err != nil {
			return wrap(err)
		}
		// Detailed but unmeasured warmup: re-warms the fetch window,
		// interlocks and cache before measurement resumes.
		boundary(tracing.WindowWarmup)
		preWarm := m.InstrCount
		if err := run.RunUntil(preWarm + opt.WarmupInstrs); err != nil {
			return wrap(err)
		}
		detailed += m.InstrCount - preWarm
		if m.Halted {
			break
		}
		// Measured window.
		boundary(tracing.WindowMeasure)
		w0 := takeSnap(&pres, m, c)
		for i := range meters {
			meters[i].w0 = meterEnergy(meters[i].m)
		}
		if err := run.RunUntil(w0.instrs + opt.WindowInstrs); err != nil {
			return wrap(err)
		}
		d := takeSnap(&pres, m, c).sub(w0)
		boundary(tracing.WindowEnd)
		detailed += d.instrs
		if d.instrs == 0 {
			continue
		}
		wsum.add(d)
		// The per-window ratios feeding the variance estimate exclude
		// miss stalls: miss totals come from the warmed cache's actual
		// count, not from window extrapolation (see below).
		st.cycleRatios = append(st.cycleRatios, float64(d.pipe.Cycles-d.pipe.FetchStalls)/float64(d.instrs))
		for i := range meters {
			meters[i].window(d.instrs)
		}
	}

	total := m.InstrCount
	windows := len(st.cycleRatios)
	if windows < opt.MinWindows {
		// Too short to estimate: fall back to an exact pass (traced when
		// a sink is attached, so the event stream and any bound energy
		// attribution follow the run that produced the result, and the
		// counts are that run's alone).
		clear(po.counts)
		if err := s.runPass(cfgs, cal, passOptions{sink: sink, counts: po.counts}, out, nil); err != nil {
			return err
		}
		for _, res := range out {
			res.Sampled = &SampleStats{
				Windows:        windows,
				TotalInstrs:    res.Pipe.Instrs,
				DetailedInstrs: res.Pipe.Instrs,
				Exact:          true,
			}
		}
		return nil
	}

	// The estimate splits into a transient and a stationary part.
	//
	// Misses are transient: compulsory first-touches land wherever the
	// program first reaches code, not at a steady per-instruction rate,
	// so extrapolating window miss rates is badly biased in either
	// direction. Instead, the warmed cache has seen (at line
	// granularity) the whole run's fetch stream — head, fast-forwards,
	// warmups and windows alike — so its own cumulative miss count IS
	// the miss estimate, and stalls follow as misses × MissPenalty.
	//
	// Everything else (issue behaviour, hazards, branches, accesses) is
	// stationary per instruction and uses the ratio estimator:
	// total_q = head_q + (Σ window Δq / Σ window Δinstrs) × tail.
	tail := float64(total - head.instrs)
	wi := float64(wsum.instrs)
	est := func(headQ uint64, sumQ uint64) uint64 {
		return headQ + uint64(math.Round(float64(sumQ)/wi*tail))
	}
	estMiss := c.Stats().Misses
	estStalls := uint64(MissPenalty) * estMiss
	nmCycles := est(head.pipe.Cycles-head.pipe.FetchStalls, wsum.pipe.Cycles-wsum.pipe.FetchStalls)
	estCycles := nmCycles + estStalls
	estAcc := est(head.pipe.FetchAccesses, wsum.pipe.FetchAccesses)

	// Zero-issue miss cycles scale with the stall count at the ratio the
	// detailed segments observed.
	detStalls := head.pipe.FetchStalls + wsum.pipe.FetchStalls
	var estZMiss uint64
	if detStalls > 0 {
		zm := float64(head.pipe.ZeroIssueMiss+wsum.pipe.ZeroIssueMiss) / float64(detStalls)
		estZMiss = uint64(math.Round(zm * float64(estStalls)))
	}

	pipe := cpu.PipeResult{
		Cycles:          estCycles,
		Instrs:          total,
		FetchAccesses:   estAcc,
		FetchStalls:     estStalls,
		Bubbles:         est(head.pipe.Bubbles, wsum.pipe.Bubbles),
		Branches:        est(head.pipe.Branches, wsum.pipe.Branches),
		Taken:           est(head.pipe.Taken, wsum.pipe.Taken),
		Mispredicts:     est(head.pipe.Mispredicts, wsum.pipe.Mispredicts),
		ZeroIssueMiss:   estZMiss,
		ZeroIssueBubble: est(head.pipe.ZeroIssueBubble, wsum.pipe.ZeroIssueBubble),
		ZeroIssueFetch:  est(head.pipe.ZeroIssueFetch, wsum.pipe.ZeroIssueFetch),
		ZeroIssueHazard: est(head.pipe.ZeroIssueHazard, wsum.pipe.ZeroIssueHazard),
		DualIssueCycles: est(head.pipe.DualIssueCycles, wsum.pipe.DualIssueCycles),
		Output:          m.Output,
	}
	stats := cache.Stats{Accesses: estAcc, Misses: estMiss}
	cycleCI := relCI(st.cycleRatios, float64(wsum.pipe.Cycles-wsum.pipe.FetchStalls)/wi, tail, float64(estCycles))

	// Energy mirrors the meter's exactly linear structure: switching is
	// per access, internal is per cycle plus a line fill per miss, and
	// leakage is per cycle. The rates come from the detailed segments
	// (where they are measured, not assumed) and apply to the estimated
	// counts, so the only approximation left is in the counts
	// themselves. Each configuration prices them with its own meter.
	fillPJ := cal.FillPJPerBit * float64(cfg.Cache.LineBytes*8)
	detCyc := float64(head.pipe.Cycles + wsum.pipe.Cycles)
	detAcc := float64(head.pipe.FetchAccesses + wsum.pipe.FetchAccesses)
	detMiss := float64(head.miss + wsum.miss)
	for i := range cfgs {
		ms := &meters[i]
		var estSw, estIn, estLk float64
		if detAcc > 0 {
			estSw = (ms.head.sw + ms.sum.sw) / detAcc * float64(estAcc)
		}
		if detCyc > 0 {
			estIn = (ms.head.in+ms.sum.in-fillPJ*detMiss)/detCyc*float64(estCycles) + fillPJ*float64(estMiss)
			estLk = (ms.head.lk + ms.sum.lk) / detCyc * float64(estCycles)
		}

		detailedRep := ms.m.Report()
		rep := power.Report{
			SwitchingPJ: estSw,
			InternalPJ:  estIn,
			LeakagePJ:   estLk,
			Cycles:      estCycles,
			Accesses:    estAcc,
			Misses:      estMiss,
			// Peak power is a max, not a mean: the detailed windows' peak
			// is the best available observation (an underestimate if the
			// true peak falls in a skipped region — documented in
			// DESIGN.md §11).
			PeakPowerW: detailedRep.PeakPowerW,
			FreqHz:     detailedRep.FreqHz,
		}

		ss := &SampleStats{
			Windows:        windows,
			TotalInstrs:    total,
			DetailedInstrs: detailed,
			SampledInstrs:  wsum.instrs,
			CycleRelCI:     cycleCI,
			EnergyRelCI:    relCI(ms.ratios, (ms.sum.sw+ms.sum.in+ms.sum.lk)/wi, tail, rep.TotalPJ()),
		}
		out[i] = &Result{Config: cfgs[i], Pipe: ownPipe(&pipe, i), Cache: stats, Power: rep, Sampled: ss,
			AccessPJ: ms.m.AccessPJ()}
	}
	return nil
}

// warmProbe lets tests compare a sampled pass (runPass) against its
// reference: everyBatch keeps the per-batch witness and the residency
// probe in a holding pass, and witnessed receives the pass's witness
// calls.
type warmProbe struct {
	everyBatch bool
	witnessed  int
}

// relCI returns the half-width of the 95 % confidence interval on an
// extrapolated total, relative to the estimate: the sample standard
// deviation of the per-window ratios around the pooled ratio, scaled by
// √windows and the extrapolated tail length.
func relCI(ratios []float64, pooled, tail, estTotal float64) float64 {
	if len(ratios) < 2 || estTotal <= 0 {
		return 0
	}
	var ss float64
	for _, r := range ratios {
		d := r - pooled
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(ratios)-1))
	return 1.96 * sd / math.Sqrt(float64(len(ratios))) * tail / estTotal
}
