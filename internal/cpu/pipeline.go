package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"powerfits/internal/isa"
	"powerfits/internal/tracing"
)

// FetchPort is the pipeline's window onto the instruction memory
// hierarchy. The simulation layer implements it with the I-cache and the
// power meter behind it.
type FetchPort interface {
	// FetchBlock initiates a fetch of the pipeline's block width at the
	// given aligned address and returns the extra stall cycles beyond
	// the single access cycle (0 on a hit).
	FetchBlock(addr uint32) (stall int)
	// Tick is called once at the end of every pipeline cycle. The
	// simulation layer counts it once per run; the power model prices
	// its per-cycle clock, leakage and peak-window effects from that
	// count.
	Tick()
	// Replay makes the cache side of a replayed segment's fetches, the
	// n consecutive blocks from lo, if a FetchBlock of each would return
	// 0 stall cycles now, and reports whether it did; otherwise it
	// changes nothing. A memoized segment is replayed only when it
	// returns true; false is always safe (the cycle loop then times the
	// segment). The port may count the hits with the segment's replay
	// unit (ReplayUnit) when its cache cannot evict.
	Replay(lo, block uint32, n int) bool
	// Summarize appends to dst the port's summary of a replay unit, a run
	// of replayed segments whose k-th fetch is of block addr[k], at[k]
	// ticks after the unit's start, and which closes cycles ticks in
	// all. The pipeline keeps the summary and never looks inside it.
	Summarize(dst []uint64, at, addr []uint32, cycles uint32) []uint64
	// ReplayUnit makes the unit's fetches and ticks in bulk from sum,
	// which starts with the unit's summary (words after it are not
	// read): afterwards the port is where the unit's FetchBlock and
	// Tick calls would have left it. The pipeline applies a unit before
	// any other FetchBlock or Tick and before RunUntil returns. It
	// returns the unit's fetches that the port priced in bulk, a
	// diagnostic.
	ReplayUnit(sum []uint64) (bulk int)
}

// nullPort satisfies FetchPort with an ideal (always-hit) memory.
type nullPort struct{}

func (nullPort) FetchBlock(uint32) int                                    { return 0 }
func (nullPort) Tick()                                                    {}
func (nullPort) Replay(uint32, uint32, int) bool                          { return true }
func (nullPort) Summarize(dst []uint64, _, _ []uint32, _ uint32) []uint64 { return dst }
func (nullPort) ReplayUnit([]uint64) int                                  { return 0 }

// NullFetchPort returns an ideal instruction memory (every access hits).
var NullFetchPort FetchPort = nullPort{}

// PipeConfig parameterises the dual-issue in-order pipeline, modelled
// after the SA-1100-class core the paper holds fixed.
type PipeConfig struct {
	// IssueWidth is the maximum instructions issued per cycle.
	IssueWidth int
	// BlockBytes is the fetch-bus width: bytes delivered per I-cache
	// access. Must be a power of two.
	BlockBytes int
	// LoadUseDelay is the bubble between a load and its first consumer.
	LoadUseDelay int
	// MulLatency is the extra cycles before a multiply result is ready.
	MulLatency int
	// MispredictPenalty is the flush cost of a wrong static prediction.
	MispredictPenalty int
	// MaxInstrs bounds execution (0 = unlimited).
	MaxInstrs uint64
}

// Validate checks the configuration for structural errors: non-positive
// issue width, a fetch-bus width that is zero or not a power of two, or
// negative hazard latencies (which would move regReady deadlines into
// the past and silently corrupt the interlock model).
func (cfg PipeConfig) Validate() error {
	switch {
	case cfg.IssueWidth <= 0:
		return fmt.Errorf("cpu: invalid pipeline config: IssueWidth %d (must be positive)", cfg.IssueWidth)
	case cfg.BlockBytes <= 0 || cfg.BlockBytes&(cfg.BlockBytes-1) != 0:
		return fmt.Errorf("cpu: invalid pipeline config: BlockBytes %d (must be a positive power of two)", cfg.BlockBytes)
	case cfg.LoadUseDelay < 0:
		return fmt.Errorf("cpu: invalid pipeline config: LoadUseDelay %d (must be non-negative)", cfg.LoadUseDelay)
	case cfg.MulLatency < 0:
		return fmt.Errorf("cpu: invalid pipeline config: MulLatency %d (must be non-negative)", cfg.MulLatency)
	case cfg.MispredictPenalty < 0:
		return fmt.Errorf("cpu: invalid pipeline config: MispredictPenalty %d (must be non-negative)", cfg.MispredictPenalty)
	}
	return nil
}

// cycleBudget returns the deadlock guard for a run: generous slack over
// the instruction budget, saturating instead of wrapping when MaxInstrs
// is near the uint64 ceiling (the product would otherwise overflow into
// a tiny budget and abort healthy runs).
func (cfg PipeConfig) cycleBudget() uint64 {
	if cfg.MaxInstrs == 0 {
		return 1 << 40
	}
	const slack = uint64(1) << 20
	if cfg.MaxInstrs > (math.MaxUint64-slack)/64 {
		return math.MaxUint64
	}
	return cfg.MaxInstrs*64 + slack
}

// DefaultPipeConfig returns the SA-1100-class configuration used by all
// experiments: dual-issue with the StrongARM's 32-bit I-fetch port (one
// word per cache access per cycle — the fetch bandwidth that makes
// 16-bit instructions halve the access count), and classic short-pipe
// hazards.
func DefaultPipeConfig() PipeConfig {
	return PipeConfig{
		IssueWidth:        2,
		BlockBytes:        4,
		LoadUseDelay:      1,
		MulLatency:        2,
		MispredictPenalty: 2,
	}
}

// PipeResult aggregates the timing run.
type PipeResult struct {
	Cycles        uint64
	Instrs        uint64
	FetchAccesses uint64
	FetchStalls   uint64 // cycles lost to I-cache misses
	Bubbles       uint64 // cycles lost to mispredictions
	Branches      uint64
	Taken         uint64
	Mispredicts   uint64
	Output        []uint32

	// The CPI stack: every cycle that issued no instruction is
	// attributed to its blocking cause, in priority order.
	ZeroIssueMiss   uint64 // I-cache miss stall in the fetch unit
	ZeroIssueBubble uint64 // misprediction flush
	ZeroIssueFetch  uint64 // next instruction's bytes not yet fetched
	ZeroIssueHazard uint64 // data or structural interlock
	DualIssueCycles uint64 // cycles that issued the full width
}

// IPC returns instructions per cycle.
func (r *PipeResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// RunPipeline executes the machine's program through the timing model
// from start to halt, fetching encoded instruction bytes through port
// (nil is an ideal memory) and writing the timing result into res,
// which it resets first. d is the predecode table (Predecode), built
// from the machine's exact program and layout; it is read-only, so any
// number of concurrent runs may share one. The machine must be freshly
// constructed with the image layout of the target encoding, and
// concurrent runs are safe as long as each has its own machine and
// port: the run mutates only those two.
//
// A non-nil sink receives every fetch, miss, zero-issue cycle, branch
// and mispredict as a cycle-stamped event; the results are
// bit-identical to an untraced run. The run itself performs no heap
// allocations, so a caller that reuses res — and pre-sizes
// Machine.Output when the program emits — keeps the whole timing loop
// allocation-free (pinned by TestPipelineSteadyStateZeroAlloc and the
// ci.sh benchmark smoke).
func RunPipeline(m *Machine, cfg PipeConfig, port FetchPort, d *Decoded, res *PipeResult, sink tracing.EventSink) error {
	var p PipelineRun
	if err := p.init(m, cfg, port, d, res); err != nil {
		return err
	}
	defer p.Release()
	p.sink = sink
	return p.RunUntil(math.MaxUint64)
}

// PipelineRun is the timing model's cycle loop packaged as a resumable
// state machine. RunPipeline drives one from start to halt in a single
// call; the sampled simulator interleaves bounded RunUntil windows with
// functional fast-forwards, calling Resync after each fast-forward to
// discard the stale fetch and interlock state. An untraced run
// memoizes the cycle loop per segment (segment.go); its memo is leased
// on the first RunUntil and handed back by Release.
//
// The zero value is not usable; construct with NewPipelineRun.
type PipelineRun struct {
	m    *Machine
	cfg  PipeConfig
	port FetchPort
	res  *PipeResult
	recs []DecodedInstr
	sem  *Compiled

	blockMask uint32
	latLoad   uint64
	latMul    uint64
	maxCycles uint64

	// Fetch state: [fStart,fEnd) is the contiguous fetched region the
	// issue stage may consume. fetchBusy counts remaining miss-stall
	// cycles for the in-flight block; bubble counts mispredict flush
	// cycles during which the fetch unit idles.
	fStart      uint32
	fEnd        uint32
	inflight    uint32
	fetchBusy   int
	bubble      int
	hasInflight bool

	// regReady[r] is the first cycle a consumer of r may issue; index
	// flagsReg is the NZCV pseudo-register.
	regReady [isa.NumRegs + 1]uint64

	cycle uint64

	// sink, when non-nil, receives the cycle loop's events. Appended
	// after the hot fields: inserting fields ahead of them has cost real
	// throughput before (DESIGN.md §6).
	sink tracing.EventSink

	// The segment memo (segment.go): the run's memo, the queue of
	// instructions executed ahead of their timing, the boundary state
	// a replay left packed (regReady is stale while lazy; see
	// materialize), and the count of instructions timed by replay.
	// noMemo keeps a run on the plain cycle loop, for tests to compare.
	memo     *segMemo
	q        segQueue
	st       uint64
	lazy     bool
	replayed uint64
	noMemo   bool
	// The pending replay unit's trie node + 1 (0 when none), and the
	// fetches replayed and, of those, priced in bulk (ReplayedFetches).
	unit            int32
	replayedFetches uint64
	bulkFetches     uint64
}

// NewPipelineRun validates the inputs and returns a run positioned at
// the machine's current PC, ready for RunUntil. res receives the
// accumulated timing result; it is reset here and kept current at every
// RunUntil return.
func NewPipelineRun(m *Machine, cfg PipeConfig, port FetchPort, d *Decoded, res *PipeResult) (*PipelineRun, error) {
	p := new(PipelineRun)
	if err := p.init(m, cfg, port, d, res); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *PipelineRun) init(m *Machine, cfg PipeConfig, port FetchPort, d *Decoded, res *PipeResult) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := d.check(m); err != nil {
		return err
	}
	sem := d.sem
	if err := sem.check(m); err != nil {
		return err
	}
	if port == nil {
		port = NullFetchPort
	}
	m.MaxInstrs = cfg.MaxInstrs

	*res = PipeResult{}
	recs := d.Instrs
	if m.PCIdx < 0 || m.PCIdx >= len(recs) {
		return fmt.Errorf("cpu: entry PC index %d out of range", m.PCIdx)
	}
	*p = PipelineRun{
		m:         m,
		cfg:       cfg,
		port:      port,
		res:       res,
		recs:      recs,
		sem:       sem,
		blockMask: ^uint32(cfg.BlockBytes - 1),
		latLoad:   uint64(1 + cfg.LoadUseDelay),
		latMul:    uint64(1 + cfg.MulLatency),
		maxCycles: cfg.cycleBudget(),
	}
	addr := recs[m.PCIdx].Addr
	p.fStart, p.fEnd = addr, addr
	return nil
}

// SetSink attaches an event sink to the run (nil detaches) for
// subsequent RunUntil calls; results are bit-identical to an untraced
// run (TestTracedRunMatchesPlainRun in internal/sim).
func (p *PipelineRun) SetSink(sink tracing.EventSink) { p.sink = sink }

// Release hands the run's segment memo back for reuse by a later run.
// The run stays usable (a later RunUntil leases a fresh memo).
// RunPipeline releases its own run; owners of a NewPipelineRun defer
// it.
func (p *PipelineRun) Release() {
	if p.memo != nil {
		releaseMemo(p.memo)
		p.memo = nil
	}
}

// Replayed returns how many of the run's instructions were timed by
// replaying a memoized segment instead of by the cycle loop. It is a
// diagnostic: the timing result does not depend on it.
func (p *PipelineRun) Replayed() uint64 { return p.replayed }

// ReplayedFetches returns how many of the run's fetches were replayed,
// and how many of those the port priced in bulk (FetchPort.ReplayUnit).
// It is a diagnostic like Replayed.
func (p *PipelineRun) ReplayedFetches() (fetches, bulk uint64) {
	return p.replayedFetches, p.bulkFetches
}

// Done reports whether the machine behind the run has halted.
func (p *PipelineRun) Done() bool { return p.m.Halted }

// Cycles returns the cycles simulated so far.
func (p *PipelineRun) Cycles() uint64 { return p.cycle }

// Resync re-aims the pipeline front end at the machine's current PC
// after the architectural state was advanced outside the timing model
// (a functional fast-forward). The fetch window, in-flight miss and
// flush bubble are discarded and every register is marked ready — the
// caller is expected to run an unmeasured warmup window before trusting
// the timing again.
func (p *PipelineRun) Resync() error {
	p.flushUnit()
	m := p.m
	if m.Halted {
		return nil
	}
	if m.PCIdx < 0 || m.PCIdx >= len(p.recs) {
		return fmt.Errorf("cpu: PC index %d out of range", m.PCIdx)
	}
	addr := p.recs[m.PCIdx].Addr
	p.fStart, p.fEnd = addr, addr
	p.fetchBusy = 0
	p.hasInflight = false
	p.bubble = 0
	p.regReady = [isa.NumRegs + 1]uint64{}
	p.lazy = false
	return nil
}

// RunUntil advances the cycle loop until the machine halts or its
// cumulative instruction count reaches target (an absolute
// Machine.InstrCount value, not a delta; math.MaxUint64 means run to
// halt). The bound is checked at cycle boundaries, so a dual-issue
// cycle may overshoot by up to IssueWidth-1 instructions; callers
// measure actual deltas rather than assuming exact landing. The result
// passed at construction is kept current (Cycles, Output) on every
// return.
//
// An untraced run goes segment by segment: at each segment boundary it
// replays the segment from the memo when it can, and otherwise times it
// with the cycle loop (segment.go). A traced run keeps to the cycle
// loop, which emits every event.
func (p *PipelineRun) RunUntil(target uint64) error {
	if p.sink != nil || p.noMemo {
		return p.cycles(target, false)
	}
	if p.memo == nil {
		var ok bool
		if p.memo, ok = memoFree.Get(); !ok {
			p.memo = new(segMemo)
		}
	}
	m := p.m
	unbounded := target == math.MaxUint64
	boundary := p.atBoundary()
	for !m.Halted && (unbounded || m.InstrCount < target) {
		limit := uint64(math.MaxUint64)
		if !unbounded {
			limit = target - m.InstrCount
		}
		if boundary && p.replay(limit) {
			continue // a replay ends at a boundary
		}
		p.flushUnit()
		if err := p.cycles(target, true); err != nil {
			return err
		}
		boundary = !m.Halted && p.atBoundary()
	}
	p.flushUnit()
	p.res.Cycles, p.res.Output = p.cycle, m.Output
	return nil
}

// cycles is the cycle loop. It issues the instructions queued by
// execSegment first (their outcomes are known; the machine is already
// past them) and then steps the machine itself, until the machine halts
// or the instruction count reaches target. With seg set it also stops
// at the end of the first cycle that redirects fetch, and records the
// segment it timed when the queue asks for that and every fetch hit.
func (p *PipelineRun) cycles(target uint64, seg bool) error {
	if p.lazy {
		p.materialize()
	}
	// Copy the hot state to locals for the duration of the loop; write
	// back through save() on every exit path.
	m := p.m
	cfg := p.cfg
	port := p.port
	res := p.res
	recs := p.recs
	sem := p.sem
	blockMask := p.blockMask
	latLoad, latMul := p.latLoad, p.latMul
	maxCycles := p.maxCycles
	fStart, fEnd := p.fStart, p.fEnd
	fetchBusy, inflight, hasInflight := p.fetchBusy, p.inflight, p.hasInflight
	bubble := p.bubble
	cycle := p.cycle
	regReady := &p.regReady
	// Every Emit below sits behind this one loop-invariant bool, so an
	// untraced run pays a predictable not-taken branch per event site and
	// nothing else (DESIGN.md §12).
	sink := p.sink
	traced := sink != nil

	// The issue stage's view of the machine: pc is the next instruction
	// to issue and icount the instructions issued, which run behind the
	// machine's own PCIdx and InstrCount while queued outcomes remain.
	q := &p.q
	qi, qn := 0, q.n
	pc, icount := m.PCIdx, m.InstrCount
	if qn > 0 || q.err != nil {
		pc, icount = q.pc, q.ic
	}
	halted := m.Halted && qn == 0

	// Recording: the segment's start, its counters there, the block its
	// next fetch must be for the fetch list to stay the run of
	// consecutive blocks a segment entry stores, and the cycle of its
	// latest fetch.
	record := seg && q.record
	c0 := cycle
	var before [nSegCounters]uint64
	var lo, nextBlk uint32
	var gapsAt int
	lastFetch := c0
	if record {
		gapsAt = len(p.memo.gaps)
		before = res.segCounters()
		lo = recs[pc].Addr & blockMask
		nextBlk = lo
	}

	save := func() {
		p.fStart, p.fEnd = fStart, fEnd
		p.fetchBusy, p.inflight, p.hasInflight = fetchBusy, inflight, hasInflight
		p.bubble = bubble
		p.cycle = cycle
		res.Cycles = cycle
		res.Output = m.Output
	}
	redirect := func(addr uint32) {
		fStart, fEnd = addr, addr
		fetchBusy = 0
		hasInflight = false
	}
	fail := func(err error) error {
		if record {
			p.memo.gaps = p.memo.gaps[:gapsAt]
		}
		save()
		q.n, q.err, q.record = 0, nil, false
		return err
	}

	unbounded := target == math.MaxUint64
	redirected := false
	for !halted && (unbounded || icount < target) {
		cycle++
		if cycle > maxCycles {
			return fail(fmt.Errorf("cpu: cycle budget exhausted (deadlock?)"))
		}

		// ---- Fetch stage ----
		const (
			fetchOK = iota
			fetchBubble
			fetchMiss
		)
		fetchState := fetchOK
		switch {
		case bubble > 0:
			bubble--
			res.Bubbles++
			fetchState = fetchBubble
		case fetchBusy > 0:
			fetchBusy--
			res.FetchStalls++
			fetchState = fetchMiss
			if fetchBusy == 0 && hasInflight {
				fEnd = inflight + uint32(cfg.BlockBytes)
				hasInflight = false
			}
		default:
			// Demand exactly the bytes the issue stage could consume
			// this cycle: the next IssueWidth instructions.
			last := pc + cfg.IssueWidth - 1
			if last >= len(recs) {
				last = len(recs) - 1
			}
			need := recs[last].End
			if fEnd < need {
				blk := fEnd & blockMask
				if fEnd == fStart {
					blk = fStart & blockMask
					fStart = blk
				}
				stall := port.FetchBlock(blk)
				res.FetchAccesses++
				if stall > 0 {
					fetchBusy = stall
					inflight = blk
					hasInflight = true
				} else {
					fEnd = blk + uint32(cfg.BlockBytes)
				}
				if record {
					if gap := cycle - 1 - lastFetch; stall > 0 || blk != nextBlk || gap > math.MaxUint8 {
						record = false
						p.memo.gaps = p.memo.gaps[:gapsAt]
					} else {
						p.memo.gaps = append(p.memo.gaps, uint8(gap))
						nextBlk += uint32(cfg.BlockBytes)
						lastFetch = cycle - 1
					}
				}
				if traced {
					kind := tracing.KindFetch
					if stall > 0 {
						kind = tracing.KindMiss
					}
					sink.Emit(tracing.Event{Cycle: cycle, PC: blk, Payload: uint32(stall), Kind: kind})
				}
			}
		}

		// ---- Issue stage ----
		memUsed, mulUsed := false, false
		issued := 0
		stallCause := &res.ZeroIssueHazard
		for slot := 0; slot < cfg.IssueWidth && !halted; slot++ {
			rec := &recs[pc]
			if rec.Addr < fStart || rec.End > fEnd {
				stallCause = &res.ZeroIssueFetch
				break // bytes not fetched yet
			}

			// Structural hazards.
			fl := rec.Flags
			if fl&DecMem != 0 && memUsed {
				break
			}
			if fl&DecMul != 0 && mulUsed {
				break
			}

			// Data hazards: every used register (and, via bit flagsReg,
			// the NZCV flags for predicated or flag-reading ops) must be
			// ready. The mask walk visits only the set bits.
			ready := true
			for u := rec.Uses; u != 0; u &= u - 1 {
				if regReady[bits.TrailingZeros32(u)] > cycle {
					ready = false
					break
				}
			}
			if !ready {
				break
			}

			// Execute: take the next queued outcome, or dispatch through
			// the semantic micro-op table built alongside the timing
			// records (d.check above also vouches for sem, which
			// Predecode compiles from the same program+layout).
			var stepRes StepResult
			if qi < qn {
				stepRes.Executed = q.executed(qi)
				qi++
				if qi < qn {
					pc++ // a queued segment is straight-line code
				} else {
					stepRes.Taken = q.taken
					pc, halted = m.PCIdx, m.Halted
				}
			} else {
				if q.err != nil {
					return fail(q.err)
				}
				var err error
				if stepRes, err = m.stepCompiled(sem); err != nil {
					return fail(err)
				}
				pc, halted = m.PCIdx, m.Halted
			}
			icount++
			res.Instrs++
			issued++
			if fl&DecMem != 0 {
				memUsed = true
			}
			if fl&DecMul != 0 {
				mulUsed = true
			}

			// Writeback latencies.
			if stepRes.Executed {
				lat := uint64(1)
				if fl&DecLoad != 0 {
					lat = latLoad
				} else if fl&DecMul != 0 {
					lat = latMul
				}
				wb := cycle + lat
				for dm := uint32(rec.Defs); dm != 0; dm &= dm - 1 {
					regReady[bits.TrailingZeros32(dm)] = wb
				}
				if fl&DecSetsFlags != 0 {
					regReady[flagsReg] = cycle + 1
				}
			}

			// Control flow.
			if fl&DecBranch != 0 {
				res.Branches++
				predTaken := fl&DecPredTaken != 0
				if stepRes.Taken {
					res.Taken++
				}
				if traced {
					var taken uint32
					if stepRes.Taken {
						taken = 1
					}
					sink.Emit(tracing.Event{Cycle: cycle, PC: rec.Addr, Payload: taken, Kind: tracing.KindBranch})
				}
				if predTaken != stepRes.Taken {
					res.Mispredicts++
					bubble += cfg.MispredictPenalty
					if traced {
						sink.Emit(tracing.Event{Cycle: cycle, PC: rec.Addr,
							Payload: uint32(cfg.MispredictPenalty), Kind: tracing.KindMispredict})
					}
				}
				if stepRes.Taken || predTaken != stepRes.Taken {
					redirect(recs[pc].Addr)
					redirected = true
					slot = cfg.IssueWidth // stop issuing this cycle
				}
			}
		}

		// CPI-stack accounting.
		switch {
		case issued >= cfg.IssueWidth:
			res.DualIssueCycles++
		case issued == 0 && !halted:
			switch fetchState {
			case fetchMiss:
				res.ZeroIssueMiss++
			case fetchBubble:
				res.ZeroIssueBubble++
			default:
				*stallCause++
			}
			if traced {
				cause := tracing.CauseHazard
				switch {
				case fetchState == fetchMiss:
					cause = tracing.CauseMiss
				case fetchState == fetchBubble:
					cause = tracing.CauseBubble
				case stallCause == &res.ZeroIssueFetch:
					cause = tracing.CauseFetch
				}
				sink.Emit(tracing.Event{Cycle: cycle, PC: recs[pc].Addr, Kind: tracing.KindStall, Cause: cause})
			}
		}

		port.Tick()
		if seg && redirected {
			break
		}
	}

	// A recorded segment ends at the redirect of its last queued
	// instruction (only that one can redirect).
	save()
	if record {
		if redirected && qi == qn {
			p.memo.record(p, q, c0, before, lo, gapsAt)
		} else {
			p.memo.gaps = p.memo.gaps[:gapsAt]
		}
	}
	q.n, q.err, q.record = 0, nil, false
	return nil
}
