package metrics

import (
	"fmt"
	"io"
	"os"
)

// StallBreakdown splits one run's zero-issue cycles by blocking cause —
// the timing pipeline's CPI stack, which the tracing event stream
// mirrors one KindStall event per cycle (the two tallies are asserted
// equal by TestTracedRunMatchesPlainRun in internal/sim). The
// cause cycles sum to the run's total zero-issue cycles; DualIssue
// counts the cycles that issued the full width.
type StallBreakdown struct {
	// MissCycles: the fetch unit was stalled on an I-cache miss.
	MissCycles uint64 `json:"miss_cycles"`
	// BubbleCycles: the front end was flushing a mispredicted branch.
	BubbleCycles uint64 `json:"bubble_cycles"`
	// FetchCycles: the next instruction's bytes were not yet fetched.
	FetchCycles uint64 `json:"fetch_cycles"`
	// HazardCycles: a data or structural interlock blocked issue.
	HazardCycles uint64 `json:"hazard_cycles"`
	// DualIssue counts full-width issue cycles (not a stall cause; kept
	// in the breakdown as the CPI stack's opposite pole).
	DualIssue uint64 `json:"dual_issue_cycles"`
}

// Total returns the zero-issue cycles over every cause.
func (b *StallBreakdown) Total() uint64 {
	return b.MissCycles + b.BubbleCycles + b.FetchCycles + b.HazardCycles
}

// RunExport is one observed kernel × configuration run: its phase
// series and stall-cause breakdown, the element of an archive record's
// phase_runs.
type RunExport struct {
	Kernel string  `json:"kernel"`
	Config string  `json:"config"`
	Series *Series `json:"series,omitempty"`
	// Stalls is the run's stall-cause breakdown; `powerfits report`
	// renders the per-kernel/config table from it.
	Stalls *StallBreakdown `json:"stalls,omitempty"`
}

// phaseCSVHeader is the column layout of WritePhasesCSV.
const phaseCSVHeader = "kernel,config,end_cycle,cycles,fetches,misses,switch_pj,internal_pj,leak_pj,instrs,ipc\n"

// WritePhasesCSV writes the phase series of the given runs as one flat
// CSV (`-phases out.csv`), rows in the order given — callers pass runs
// in deterministic (sorted) order.
func WritePhasesCSV(w io.Writer, runs []RunExport) error {
	if _, err := io.WriteString(w, phaseCSVHeader); err != nil {
		return err
	}
	for _, run := range runs {
		if run.Series == nil {
			continue
		}
		for _, s := range run.Series.Samples {
			_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.6g,%.6g,%.6g,%d,%.4f\n",
				run.Kernel, run.Config, s.EndCycle, s.Cycles, s.Fetches, s.Misses,
				s.SwitchPJ, s.InternalPJ, s.LeakPJ, s.Instrs, s.IPC())
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePhasesCSVFile writes the phase CSV to path.
func WritePhasesCSVFile(path string, runs []RunExport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePhasesCSV(f, runs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
