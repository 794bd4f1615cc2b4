package sim

import (
	"fmt"
	"math"
	"sync"

	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/power"
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

// sampleSnap is a point-in-time capture of every counter the estimator
// extrapolates.
type sampleSnap struct {
	pipe   cpu.PipeResult
	instrs uint64
	acc    uint64
	miss   uint64
	swPJ   float64
	inPJ   float64
	lkPJ   float64
}

func takeSnap(res *cpu.PipeResult, m *cpu.Machine, c *cache.Cache, meter *power.Meter) sampleSnap {
	s := sampleSnap{pipe: *res, instrs: m.InstrCount}
	st := c.Stats()
	s.acc, s.miss = st.Accesses, st.Misses
	s.swPJ, s.inPJ, s.lkPJ = meter.EnergyPJ()
	return s
}

// sub returns the counter deltas a-b. The Output slice inside the
// embedded PipeResult is not meaningful on a delta and is cleared.
func (a sampleSnap) sub(b sampleSnap) sampleSnap {
	d := sampleSnap{
		instrs: a.instrs - b.instrs,
		acc:    a.acc - b.acc,
		miss:   a.miss - b.miss,
		swPJ:   a.swPJ - b.swPJ,
		inPJ:   a.inPJ - b.inPJ,
		lkPJ:   a.lkPJ - b.lkPJ,
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
	a.acc += d.acc
	a.miss += d.miss
	a.swPJ += d.swPJ
	a.inPJ += d.inPJ
	a.lkPJ += d.lkPJ
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

// covRange is one remembered warm-cover window (see sampleState).
type covRange struct{ lo, hi uint32 }

// sampleState is the per-run scratch of the sampled loop, hoisted into
// one allocation so the window loop itself stays off the heap: the
// warm-cover memo behind the functional fast-forward, and the
// per-window ratio series preallocated from the profile's dynamic
// instruction count. The run's total allocation count is pinned by
// TestSampledAllocsPinned.
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

	cycleRatios  []float64
	energyRatios []float64
}

// samplePool recycles sampleStates (and the ratio slices they carry)
// across sampled runs. A one-shot CLI run never notices, but the serve
// hot path issues one RunSampled per request per configuration, and
// without the pool each pays the scratch allocations anew.
var samplePool = sync.Pool{New: func() any { return new(sampleState) }}

// newSampleState checks a recycled (or fresh) sampleState out of the
// pool, bound to this run's cache and geometry, with ratio capacity of
// at least hint.
func newSampleState(c *cache.Cache, lineBytes int, hint int) *sampleState {
	st := samplePool.Get().(*sampleState)
	st.c = c
	st.lineMask = ^uint32(lineBytes - 1)
	st.lineBytes = uint32(lineBytes)
	st.cov = [4]covRange{}
	st.covIdx = 0
	if cap(st.cycleRatios) < hint {
		st.cycleRatios = make([]float64, 0, hint)
		st.energyRatios = make([]float64, 0, hint)
	} else {
		st.cycleRatios = st.cycleRatios[:0]
		st.energyRatios = st.energyRatios[:0]
	}
	return st
}

// release returns the state to the pool. The cache reference is
// dropped so a pooled state never pins a dead run's cache arrays.
func (st *sampleState) release() {
	st.c = nil
	samplePool.Put(st)
}

// warm is the fast-forward's fetch witness: functional cache warming.
// Fast-forwarded code still touches its I-cache lines (without charging
// time or energy), so each measured window opens on the cache contents
// the exact run would have. The snapshots bracketing windows make the
// warming traffic itself invisible to the estimator.
func (st *sampleState) warm(lo, hi uint32) {
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

// RunSampled executes the prepared kernel under one configuration with
// sampled timing: the whole instruction stream runs functionally (so
// outputs and instruction counts are exact), but only a detailed head
// plus periodic warmup+measure windows pass through the cycle-accurate
// pipeline. Cycles, stalls, cache and energy totals are extrapolated
// with the ratio estimator described in DESIGN.md §11, and the Result
// carries a SampleStats with the window count and 95 % confidence
// intervals. Runs that halt before MinWindows windows fall back to an
// exact full simulation.
//
// RunSampled is RunWith with RunOptions{Sample: &opt}, calling the
// sampled run directly so opt stays off the heap. Like Run, it is safe
// to call concurrently on one Setup.
func (s *Setup) RunSampled(cfg Config, cal power.Calibration, opt SampleOptions) (*Result, error) {
	return s.runSampled(cfg, cal, opt, nil)
}

// runSampled is the sampled run behind RunWith. With a sink attached,
// the detailed segments stream the same pipeline events an exact run
// would, the fast-forwards emit one KindSuperblock event per executed
// batch, and every sampling boundary (head end, warmup start, measure
// start/end) emits a KindWindow event, so a consumer can tell measured
// cycles from extrapolated ones. When the run halts before MinWindows
// measured windows, the fallback exact simulation is traced too: its
// events follow the aborted sampled prefix's in the same sink, with a
// fresh meter bound for energy attribution.
func (s *Setup) runSampled(cfg Config, cal power.Calibration, opt SampleOptions, sink tracing.EventSink) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	prog, im, dec, comp := s.target(cfg)
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
	port := NewFetchPort(c, meter, im, pc.BlockBytes)

	var pres cpu.PipeResult
	run, err := cpu.NewPipelineRun(m, pc, port, dec, &pres)
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s (sampled): %w", s.Kernel.Name, cfg.Name, err)
	}
	run.SetSink(sink)
	wrap := func(err error) error {
		return fmt.Errorf("sim: %s on %s (sampled): %w", s.Kernel.Name, cfg.Name, err)
	}
	boundary := func(code uint8) {
		if sink != nil {
			sink.Emit(tracing.Event{Cycle: run.Cycles(), PC: 0,
				Payload: uint32(m.InstrCount), Kind: tracing.KindWindow, Cause: code})
		}
	}

	// Detailed head: the cold-start behaviour is measured exactly.
	if err := run.RunUntil(opt.HeadInstrs); err != nil {
		return nil, wrap(err)
	}
	head := takeSnap(&pres, m, c, meter)
	boundary(tracing.WindowHead)

	ff := opt.PeriodInstrs - opt.WarmupInstrs - opt.WindowInstrs
	// Pooled per-window scratch: the warm-cover memo and the ratio
	// series, the latter sized from the profiled dynamic instruction
	// count (a hint — the FITS stream may run slightly longer or
	// shorter than the profiled ARM one). The deferred release runs
	// after the SampleStats below has consumed the ratio series.
	hint := int(s.Profile.TotalDyn/opt.PeriodInstrs) + 4
	st := newSampleState(c, cfg.Cache.LineBytes, hint)
	defer st.release()
	warm := st.warm // bind the method value once, not per fast-forward
	var wsum sampleSnap
	detailed := head.instrs
	for !m.Halted {
		// Functional fast-forward on the superblock executor: the
		// architectural state (and Output) advances exactly; the meter
		// stands still and the cache sees only warming touches.
		st.resetWarm()
		if err := m.RunSuperblocksTraced(comp, ff, warm, sink); err != nil {
			return nil, wrap(err)
		}
		if m.Halted {
			break
		}
		if err := run.Resync(); err != nil {
			return nil, wrap(err)
		}
		// Detailed but unmeasured warmup: re-warms the fetch window,
		// interlocks and cache before measurement resumes.
		boundary(tracing.WindowWarmup)
		preWarm := m.InstrCount
		if err := run.RunUntil(preWarm + opt.WarmupInstrs); err != nil {
			return nil, wrap(err)
		}
		detailed += m.InstrCount - preWarm
		if m.Halted {
			break
		}
		// Measured window.
		boundary(tracing.WindowMeasure)
		w0 := takeSnap(&pres, m, c, meter)
		if err := run.RunUntil(w0.instrs + opt.WindowInstrs); err != nil {
			return nil, wrap(err)
		}
		w1 := takeSnap(&pres, m, c, meter)
		boundary(tracing.WindowEnd)
		d := w1.sub(w0)
		detailed += d.instrs
		if d.instrs == 0 {
			continue
		}
		wsum.add(d)
		// The per-window ratios feeding the variance estimate exclude
		// miss stalls: miss totals come from the warmed cache's actual
		// count, not from window extrapolation (see below).
		st.cycleRatios = append(st.cycleRatios, float64(d.pipe.Cycles-d.pipe.FetchStalls)/float64(d.instrs))
		st.energyRatios = append(st.energyRatios, (d.swPJ+d.inPJ+d.lkPJ)/float64(d.instrs))
	}

	total := m.InstrCount
	windows := len(st.cycleRatios)
	if windows < opt.MinWindows {
		if wsum.instrs == 0 && detailed == total {
			// The program halted inside the detailed head: this run IS
			// the exact simulation — no rerun needed.
			res := &Result{Config: cfg, Pipe: &pres, Cache: c.Stats(),
				Power: meter.Report(), AccessPJ: meter.AccessPJ()}
			res.Sampled = &SampleStats{TotalInstrs: total, DetailedInstrs: total, Exact: true}
			return res, nil
		}
		// Too short to estimate: fall back to the exact full pipeline
		// (traced when a sink is attached, so the event stream and any
		// bound energy attribution follow the run that produced the
		// result).
		res, err := s.runExact(cfg, cal, sink, 0)
		if err != nil {
			return nil, err
		}
		res.Sampled = &SampleStats{
			Windows:        windows,
			TotalInstrs:    res.Pipe.Instrs,
			DetailedInstrs: res.Pipe.Instrs,
			Exact:          true,
		}
		return res, nil
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

	pipe := &cpu.PipeResult{
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

	// Energy mirrors the meter's exactly linear structure: switching is
	// per access, internal is per cycle plus a line fill per miss, and
	// leakage is per cycle. The rates come from the detailed segments
	// (where they are measured, not assumed) and apply to the estimated
	// counts, so the only approximation left is in the counts
	// themselves.
	fillPJ := cal.FillPJPerBit * float64(cfg.Cache.LineBytes*8)
	detCyc := float64(head.pipe.Cycles + wsum.pipe.Cycles)
	detAcc := float64(head.pipe.FetchAccesses + wsum.pipe.FetchAccesses)
	detMiss := float64(head.miss + wsum.miss)
	var estSw, estIn, estLk float64
	if detAcc > 0 {
		estSw = (head.swPJ + wsum.swPJ) / detAcc * float64(estAcc)
	}
	if detCyc > 0 {
		estIn = (head.inPJ+wsum.inPJ-fillPJ*detMiss)/detCyc*float64(estCycles) + fillPJ*float64(estMiss)
		estLk = (head.lkPJ + wsum.lkPJ) / detCyc * float64(estCycles)
	}

	detailedRep := meter.Report()
	rep := power.Report{
		SwitchingPJ: estSw,
		InternalPJ:  estIn,
		LeakagePJ:   estLk,
		Cycles:      estCycles,
		Accesses:    estAcc,
		Misses:      estMiss,
		// Peak power is a max, not a mean: the detailed windows' peak is
		// the best available observation (an underestimate if the true
		// peak falls in a skipped region — documented in DESIGN.md §11).
		PeakPowerW: detailedRep.PeakPowerW,
		FreqHz:     detailedRep.FreqHz,
	}

	ss := &SampleStats{
		Windows:        windows,
		TotalInstrs:    total,
		DetailedInstrs: detailed,
		SampledInstrs:  wsum.instrs,
		CycleRelCI:     relCI(st.cycleRatios, float64(wsum.pipe.Cycles-wsum.pipe.FetchStalls)/wi, tail, float64(estCycles)),
		EnergyRelCI:    relCI(st.energyRatios, (wsum.swPJ+wsum.inPJ+wsum.lkPJ)/wi, tail, rep.TotalPJ()),
	}
	return &Result{Config: cfg, Pipe: pipe, Cache: stats, Power: rep, Sampled: ss,
		AccessPJ: meter.AccessPJ()}, nil
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
