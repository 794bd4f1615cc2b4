package tracing

import (
	"fmt"

	"powerfits/internal/metrics"
)

// EnergySource exposes a power model's cumulative energy counters.
// power.Meter implements it.
type EnergySource interface {
	// EnergyPJ returns cumulative switching, internal and leakage
	// energy in picojoules.
	EnergyPJ() (switchPJ, internalPJ, leakPJ float64)
}

// Sampler is an EventSink that cuts a detailed run's event stream into
// a cycle-windowed phase series: per window, the fetches and misses
// counted from KindFetch/KindMiss events, plus the energy and retired
// instruction deltas read from the run at each window close.
//
// A window closes when the first event stamped past its nominal end
// arrives; the window then ends on the cycle before that event, and the
// next nominal end is the following multiple of the window length. The
// close reads the run's counters at the triggering event, so a window's
// energy and instruction deltas may include the opening work of the
// cycle that triggered the close (at most one access and one issue
// group); the series as a whole is exact, because Series closes the
// last window on the run's final counters.
type Sampler struct {
	window uint64
	energy EnergySource
	instrs func() uint64

	next            uint64 // nominal end of the open window
	lastEnd         uint64 // EndCycle of the last closed window
	fetches, misses uint64 // counted in the open window
	samples         []metrics.WindowSample

	// Cumulative values at the last window close.
	lastSw, lastIn, lastLk float64
	lastInstr              uint64
}

// NewSampler builds a sampler with the given window length in cycles
// over one run's power model. instrs, when non-nil, returns the run's
// cumulative retired-instruction count (for per-window IPC).
func NewSampler(windowCycles int, energy EnergySource, instrs func() uint64) (*Sampler, error) {
	if windowCycles <= 0 {
		return nil, fmt.Errorf("tracing: non-positive sample window %d", windowCycles)
	}
	if energy == nil {
		return nil, fmt.Errorf("tracing: sampler requires an energy source")
	}
	w := uint64(windowCycles)
	return &Sampler{window: w, energy: energy, instrs: instrs, next: w}, nil
}

// Emit implements EventSink. The stream must come from an exact
// pipeline run: a sampled run's fast-forward events carry no pipeline
// cycle stamp (sim.Setup.RunAll rejects the combination).
func (s *Sampler) Emit(e Event) {
	if e.Cycle > s.next {
		s.close(e.Cycle - 1)
		s.next = (s.lastEnd/s.window + 1) * s.window
	}
	switch e.Kind {
	case KindMiss:
		s.misses++
		fallthrough
	case KindFetch:
		s.fetches++
	}
}

// close records the open window as ending at cycle end, from the deltas
// since the last close.
func (s *Sampler) close(end uint64) {
	sw, in, lk := s.energy.EnergyPJ()
	var instr uint64
	if s.instrs != nil {
		instr = s.instrs()
	}
	s.samples = append(s.samples, metrics.WindowSample{
		EndCycle:   end,
		Cycles:     end - s.lastEnd,
		Fetches:    s.fetches,
		Misses:     s.misses,
		SwitchPJ:   sw - s.lastSw,
		InternalPJ: in - s.lastIn,
		LeakPJ:     lk - s.lastLk,
		Instrs:     instr - s.lastInstr,
	})
	s.lastSw, s.lastIn, s.lastLk = sw, in, lk
	s.lastInstr = instr
	s.lastEnd = end
	s.fetches, s.misses = 0, 0
}

// Series closes the last window at the run's final cycle count and
// returns the phase series. Call it once, after the run completes.
func (s *Sampler) Series(endCycle uint64) *metrics.Series {
	if endCycle > s.lastEnd {
		s.close(endCycle)
	}
	return &metrics.Series{WindowCycles: int(s.window), Samples: s.samples}
}
