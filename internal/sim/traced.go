package sim

import (
	"powerfits/internal/cpu"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/tracing"
)

// The tracing helpers of the simulation layer: energy binding for
// attribution sinks, the CPI-stack export, and the construction of the
// attribution profiler over a configuration's image. Runs take their
// sink through RunOptions.

// energyBinder is implemented by sinks that attribute per-access fetch
// energy (tracing.Profiler); traced runs bind their power meter to such
// sinks before the first cycle.
type energyBinder interface{ BindEnergy(tracing.AccessEnergy) }

// bindEnergy attaches the run's meter to an attribution sink.
func bindEnergy(sink tracing.EventSink, m *power.Meter) {
	if b, ok := sink.(energyBinder); ok {
		b.BindEnergy(m)
	}
}

// Stalls extracts the CPI stack of a pipeline result as the export
// layer's stall-cause breakdown.
func Stalls(p *cpu.PipeResult) *metrics.StallBreakdown {
	return &metrics.StallBreakdown{
		MissCycles:   p.ZeroIssueMiss,
		BubbleCycles: p.ZeroIssueBubble,
		FetchCycles:  p.ZeroIssueFetch,
		HazardCycles: p.ZeroIssueHazard,
		DualIssue:    p.DualIssueCycles,
	}
}

// TraceBlocks derives the attribution targets for cfg's image: one
// tracing.Block per basic block of the predecoded program, labeled by
// its containing function.
func (s *Setup) TraceBlocks(cfg Config) []tracing.Block {
	_, _, dec, _ := s.target(cfg)
	bbs := dec.BasicBlocks()
	blocks := make([]tracing.Block, len(bbs))
	for i, b := range bbs {
		label := b.Func
		if label == "" {
			label = "(nofunc)"
		}
		blocks[i] = tracing.Block{Label: label, Addr: b.Addr, End: b.End}
	}
	return blocks
}

// NewProfiler builds the energy/stall attribution profiler for cfg's
// image, ready to pass as RunOptions.Sink (the run binds its meter to
// it). One profiler serves one run.
func (s *Setup) NewProfiler(cfg Config) (*tracing.Profiler, error) {
	_, im, _, _ := s.target(cfg)
	return tracing.NewProfiler(s.TraceBlocks(cfg), im.TextBase, len(im.Text))
}
