// Package tracing is the cycle-level structured event stream behind
// `powerfits trace`, `powerfits profile` and the phase-series exports:
// the timing pipeline, the superblock executor and the sampled
// simulator emit fixed-size binary event records through an EventSink,
// and the sinks in this package turn the stream into a bounded ring
// capture, per-kind counters, a Chrome trace-event export, a
// PC→basic-block energy attribution profile, or a cycle-windowed phase
// series.
//
// The package imports nothing from the simulator, so the cpu and sim
// packages can depend on it without cycles. The hot-path contract: Emit
// implementations must not allocate per event, and an untraced run
// (nil sink) pays only a not-taken branch per event site — the cycle
// loop guards every Emit with one loop-invariant bool (pinned by the
// 0-alloc benchmarks in ci.sh).
package tracing

// Kind classifies one event record.
type Kind uint8

const (
	// KindFetch is one I-cache access that hit. PC is the block-aligned
	// fetch address; Payload is 0.
	KindFetch Kind = iota
	// KindMiss is one I-cache access that missed. PC is the
	// block-aligned fetch address; Payload is the extra stall cycles.
	KindMiss
	// KindStall is one pipeline cycle that issued no instruction.
	// Cause carries the blocking reason (Cause* below) and matches the
	// PipeResult CPI stack exactly: one KindStall event per ZeroIssue*
	// cycle.
	KindStall
	// KindBranch is one executed branch. PC is the branch instruction's
	// address; Payload is 1 when the branch was taken.
	KindBranch
	// KindMispredict is a static-prediction miss. PC is the branch
	// instruction's address; Payload is the flush penalty in cycles.
	KindMispredict
	// KindSuperblock is the entry of one functionally executed batch
	// (a fused superblock, or a single fallback instruction) during a
	// fast-forward. Cycle carries the machine's InstrCount (functional
	// execution has no cycle clock); PC is the batch's first encoded
	// address and Payload its encoded length in bytes.
	KindSuperblock
	// KindWindow is a sampled-simulation boundary. Cause carries the
	// Window* code; Cycle is the pipeline cycle at the boundary and
	// Payload the machine's low 32 bits of InstrCount.
	KindWindow

	numKinds = int(KindWindow) + 1
)

var kindNames = [numKinds]string{
	"fetch", "miss", "stall", "branch", "mispredict", "superblock", "window",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Stall causes (Event.Cause for KindStall), in the CPI stack's priority
// order. Each zero-issue cycle is attributed to exactly one cause, so
// per-cause stall counts sum to the run's total zero-issue cycles.
const (
	// CauseMiss: the fetch unit is stalled on an I-cache miss.
	CauseMiss uint8 = iota
	// CauseBubble: the front end is flushing a mispredicted branch.
	CauseBubble
	// CauseFetch: the next instruction's bytes are not yet fetched.
	CauseFetch
	// CauseHazard: a data or structural interlock blocked issue.
	CauseHazard

	numCauses = int(CauseHazard) + 1
)

var causeNames = [numCauses]string{"icache-miss", "branch-mispredict", "fetch", "hazard"}

// CauseName renders a stall cause code.
func CauseName(c uint8) string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// Window boundary codes (Event.Cause for KindWindow).
const (
	// WindowHead closes the exact detailed head of a sampled run.
	WindowHead uint8 = iota
	// WindowWarmup opens a detailed-but-unmeasured warmup segment.
	WindowWarmup
	// WindowMeasure opens a measured window.
	WindowMeasure
	// WindowEnd closes a measured window.
	WindowEnd
)

// Event is the fixed-size binary event record: 24 bytes, flat, no
// pointers, so a preallocated ring of them costs the GC nothing and an
// Emit is a single struct store.
type Event struct {
	// Cycle is the pipeline cycle the event occurred on (for
	// KindSuperblock, the machine's InstrCount — functional execution
	// has no cycle clock).
	Cycle uint64
	// PC is the event's program-counter anchor: the fetch address for
	// KindFetch/KindMiss, the branch address for
	// KindBranch/KindMispredict, the batch start for KindSuperblock,
	// and the next-to-issue instruction's address for KindStall (the
	// instruction the stalled cycle was waiting to issue).
	PC uint32
	// Payload is per-kind data: miss stall cycles, branch taken flag,
	// mispredict penalty, superblock byte length, window instruction
	// count (low 32 bits).
	Payload uint32
	// Kind classifies the record; Cause sub-classifies KindStall and
	// KindWindow.
	Kind  Kind
	Cause uint8
	_     [6]byte // explicit padding: keep the record a fixed 24 bytes
}

// EventSink receives the event stream of one run. Implementations sit
// on the simulation hot path: Emit must not allocate per event. A sink
// belongs to exactly one run at a time (none of the sinks in this
// package are safe for concurrent Emit).
type EventSink interface {
	Emit(Event)
}

// Tee fans one event stream out to several sinks in order, skipping nil
// ones. It returns nil when no sink remains and the sink itself when
// exactly one does, so a single consumer pays no fan-out.
func Tee(sinks ...EventSink) EventSink {
	var t tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

type tee []EventSink

func (t tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// AccessEnergy exposes the per-access energy of a run's power model for
// attribution sinks. power.Meter implements it: LastAccessPJ is the
// energy charged by the most recent cache access, and AccessPJ the
// exact running sum of those charges in access order — the profiler's
// conservation anchor.
type AccessEnergy interface {
	LastAccessPJ() float64
	AccessPJ() float64
}

// Counts is an EventSink that aggregates the stream into counters:
// per-kind event counts, per-cause stall cycles, and branch outcomes.
// It is the cheapest possible sink (a handful of integer increments per
// event) and the cross-check that the event stream and the pipeline's
// own CPI stack tell the same story (TestTracedRunMatchesPlainRun in
// internal/sim).
type Counts struct {
	// Kind[k] counts events of kind k.
	Kind [numKinds]uint64
	// StallCycles[c] counts KindStall events with cause c; the sum over
	// causes is the run's total zero-issue cycles.
	StallCycles [numCauses]uint64
	// Taken counts KindBranch events whose Payload was 1.
	Taken uint64
	// MissStallCycles sums the Payload of KindMiss events (the total
	// extra stall cycles incurred by I-cache misses).
	MissStallCycles uint64
}

// Emit implements EventSink.
func (c *Counts) Emit(e Event) {
	if int(e.Kind) >= numKinds {
		return
	}
	c.Kind[e.Kind]++
	switch e.Kind {
	case KindStall:
		if int(e.Cause) < numCauses {
			c.StallCycles[e.Cause]++
		}
	case KindBranch:
		if e.Payload != 0 {
			c.Taken++
		}
	case KindMiss:
		c.MissStallCycles += uint64(e.Payload)
	}
}

// Stalls returns the total zero-issue cycles over every cause.
func (c *Counts) Stalls() uint64 {
	var t uint64
	for _, n := range c.StallCycles {
		t += n
	}
	return t
}
