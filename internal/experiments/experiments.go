// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): instruction mapping coverage (Figures 3–4),
// code size (Figure 5), I-cache power breakdown and component savings
// (Figures 6–11), chip power saving (Figure 12), miss rate (Figure 13)
// and IPC (Figure 14), plus the abstract's headline averages and the
// design-choice ablations.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/sim"
)

// Table is one rendered experiment result.
type Table struct {
	ID      string // e.g. "fig7"
	Title   string
	Unit    string
	Columns []string
	Rows    []Row
	// PaperAvg, when non-nil, records the paper's reported averages for
	// the same columns (for EXPERIMENTS.md comparison).
	PaperAvg []float64
	Note     string
}

// Row is one benchmark's values.
type Row struct {
	Name string
	Vals []float64
}

// Average returns the arithmetic mean per column.
func (t *Table) Average() []float64 {
	if len(t.Rows) == 0 {
		return nil
	}
	avg := make([]float64, len(t.Columns))
	for _, r := range t.Rows {
		for i, v := range r.Vals {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= float64(len(t.Rows))
	}
	return avg
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s", strings.ToUpper(t.ID), t.Title)
	if t.Unit != "" {
		fmt.Fprintf(w, " [%s]", t.Unit)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s", "benchmark")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-18s", r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(w, "%12.2f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s", "AVERAGE")
	for _, v := range t.Average() {
		fmt.Fprintf(w, "%12.2f", v)
	}
	fmt.Fprintln(w)
	if t.PaperAvg != nil {
		fmt.Fprintf(w, "%-18s", "paper avg")
		for _, v := range t.PaperAvg {
			if v < 0 {
				fmt.Fprintf(w, "%12s", "—")
			} else {
				fmt.Fprintf(w, "%12.2f", v)
			}
		}
		fmt.Fprintln(w)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

// Suite holds prepared setups and timing results for every kernel.
type Suite struct {
	Setups  []*sim.Setup
	Results map[string]map[string]*sim.Result // kernel -> config -> result
	Cal     power.Calibration
	Chip    power.ChipModel

	// Workers is the parallelism the suite was generated with.
	Workers int
	// WallSec is the wall-clock time of the whole generation.
	WallSec float64
	// Timings records per-kernel prepare/run costs, sorted by kernel.
	Timings []KernelTiming
	// Metrics is the run-wide registry: per-kernel prepare/run gauges
	// and engine histograms, merged from the worker pool in
	// deterministic kernel order (nil for hand-built suites).
	Metrics *metrics.Registry
	// Sampled marks a suite whose timing runs used the sampled
	// estimator: cycles and energy are extrapolated (≤2 % validated
	// error), outputs and instruction counts exact. Archive diffs
	// against a full-simulation baseline will show small deltas.
	Sampled bool
}

// kernelNames returns the suite's kernels in order.
func (s *Suite) kernelNames() []string {
	out := make([]string, len(s.Setups))
	for i, st := range s.Setups {
		out[i] = st.Kernel.Name
	}
	return out
}

// setup returns the setup for a kernel name.
func (s *Suite) setup(name string) *sim.Setup {
	for _, st := range s.Setups {
		if st.Kernel.Name == name {
			return st
		}
	}
	return nil
}

// ---- Figures 3 and 4: mapping coverage ----

// Fig3 reports the ARM→FITS static one-to-one mapping rate.
func (s *Suite) Fig3() *Table {
	t := &Table{ID: "fig3", Title: "ARM-to-FITS static mapping (1:1)", Unit: "%",
		Columns: []string{"static 1:1"}, PaperAvg: []float64{96}}
	for _, name := range s.kernelNames() {
		st := s.setup(name)
		t.Rows = append(t.Rows, Row{name, []float64{100 * st.Fits.StaticMappingRate()}})
	}
	return t
}

// Fig4 reports the dynamic (execution-weighted) mapping rate.
func (s *Suite) Fig4() *Table {
	t := &Table{ID: "fig4", Title: "ARM-to-FITS dynamic mapping (1:1)", Unit: "%",
		Columns: []string{"dynamic 1:1"}, PaperAvg: []float64{98}}
	for _, name := range s.kernelNames() {
		st := s.setup(name)
		t.Rows = append(t.Rows, Row{name, []float64{100 * st.Fits.DynamicMappingRate(st.Profile.Dyn)}})
	}
	return t
}

// ---- Figure 5: code size ----

// Fig5 reports program text size normalised to ARM (=100).
func (s *Suite) Fig5() *Table {
	t := &Table{ID: "fig5", Title: "Code size footprint (normalised to ARM)", Unit: "% of ARM",
		Columns: []string{"ARM", "THUMB", "FITS"}, PaperAvg: []float64{100, 67, 53},
		Note: "THUMB here is a translation-based upper bound: the hand-authored ARM kernels already use predication and DSP extensions that Thumb lacks, so Thumb saves less than against compiler-generated ARM (see EXPERIMENTS.md)."}
	for _, name := range s.kernelNames() {
		st := s.setup(name)
		armB := float64(st.ArmImage.Size())
		t.Rows = append(t.Rows, Row{name, []float64{
			100,
			100 * float64(st.Thumb.TotalBytes()) / armB,
			100 * float64(st.Fits.Image.Size()) / armB,
		}})
	}
	return t
}

// ---- Figure 6: I-cache power breakdown ----

// Fig6 reports the switching/internal/leakage share of total I-cache
// power for one configuration (the paper's Figure 6a–d).
func (s *Suite) Fig6(cfg sim.Config) *Table {
	t := &Table{ID: "fig6" + strings.ToLower(cfg.Name), Title: "I-cache power breakdown, " + cfg.Name, Unit: "%",
		Columns: []string{"switching", "internal", "leakage"}}
	for _, name := range s.kernelNames() {
		r := s.Results[name][cfg.Name]
		sw, in, lk := r.Power.Share()
		t.Rows = append(t.Rows, Row{name, []float64{100 * sw, 100 * in, 100 * lk}})
	}
	return t
}

// ---- Figures 7–11: component power savings vs ARM16 ----

// componentSaving builds a savings table for one extractor.
func (s *Suite) componentSaving(id, title string, paper []float64, get func(power.Report) float64) *Table {
	t := &Table{ID: id, Title: title, Unit: "% saving vs ARM16",
		Columns: []string{"FITS16", "FITS8", "ARM8"}, PaperAvg: paper}
	for _, name := range s.kernelNames() {
		base := get(s.Results[name][sim.ARM16.Name].Power)
		row := Row{Name: name}
		for _, cfg := range []sim.Config{sim.FITS16, sim.FITS8, sim.ARM8} {
			row.Vals = append(row.Vals, 100*power.Saving(base, get(s.Results[name][cfg.Name].Power)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7 reports switching-power savings.
func (s *Suite) Fig7() *Table {
	return s.componentSaving("fig7", "I-cache switching power saving",
		[]float64{50, 50, 0}, func(r power.Report) float64 { return r.SwitchingPJ })
}

// Fig8 reports internal-power savings.
func (s *Suite) Fig8() *Table {
	return s.componentSaving("fig8", "I-cache internal power saving",
		[]float64{-1, 44, 44}, func(r power.Report) float64 { return r.InternalPJ })
}

// Fig9 reports leakage-power savings.
func (s *Suite) Fig9() *Table {
	return s.componentSaving("fig9", "I-cache leakage power saving",
		[]float64{-1, 50, 45}, func(r power.Report) float64 { return r.LeakagePJ })
}

// Fig10 reports peak-power savings.
func (s *Suite) Fig10() *Table {
	t := &Table{ID: "fig10", Title: "I-cache peak power saving", Unit: "% saving vs ARM16",
		Columns: []string{"FITS16", "FITS8", "ARM8"}, PaperAvg: []float64{46, 63, 31}}
	for _, name := range s.kernelNames() {
		base := s.Results[name][sim.ARM16.Name].Power.PeakPowerW
		row := Row{Name: name}
		for _, cfg := range []sim.Config{sim.FITS16, sim.FITS8, sim.ARM8} {
			row.Vals = append(row.Vals, 100*power.Saving(base, s.Results[name][cfg.Name].Power.PeakPowerW))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig11 reports total I-cache power savings.
func (s *Suite) Fig11() *Table {
	return s.componentSaving("fig11", "Total I-cache power saving",
		[]float64{18, 47, 27}, func(r power.Report) float64 { return r.TotalPJ() })
}

// ---- Figure 12: chip power saving ----

// Fig12 translates I-cache savings into whole-chip savings via the
// StrongARM 27 % share model.
func (s *Suite) Fig12() *Table {
	t := &Table{ID: "fig12", Title: "Total chip power saving", Unit: "% saving vs ARM16",
		Columns: []string{"FITS16", "FITS8", "ARM8"}, PaperAvg: []float64{7, 15, 8}}
	for _, name := range s.kernelNames() {
		base := s.Chip.ChipPJ(s.Results[name][sim.ARM16.Name].Power)
		row := Row{Name: name}
		for _, cfg := range []sim.Config{sim.FITS16, sim.FITS8, sim.ARM8} {
			row.Vals = append(row.Vals, 100*power.Saving(base, s.Chip.ChipPJ(s.Results[name][cfg.Name].Power)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ---- Figure 13: miss rate ----

// Fig13 reports I-cache misses per million accesses for each
// configuration.
func (s *Suite) Fig13() *Table {
	t := &Table{ID: "fig13", Title: "I-cache miss rate", Unit: "misses per million accesses",
		Columns: []string{"ARM16", "ARM8", "FITS16", "FITS8"}}
	for _, name := range s.kernelNames() {
		row := Row{Name: name}
		for _, cfg := range sim.Configs {
			row.Vals = append(row.Vals, s.Results[name][cfg.Name].Cache.MissesPerMillion())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ---- Figure 14: IPC ----

// Fig14 reports instructions per cycle (dual-issue core, maximum 2).
func (s *Suite) Fig14() *Table {
	t := &Table{ID: "fig14", Title: "Instructions per cycle (max 2)", Unit: "IPC",
		Columns: []string{"ARM16", "ARM8", "FITS16", "FITS8"}}
	for _, name := range s.kernelNames() {
		row := Row{Name: name}
		for _, cfg := range sim.Configs {
			row.Vals = append(row.Vals, s.Results[name][cfg.Name].Pipe.IPC())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ---- Headline: the abstract's suite averages ----

// Headline reports the abstract's headline metrics: FITS8-vs-ARM16
// switching, internal, leakage and total cache power savings, plus the
// best peak saving.
func (s *Suite) Headline() *Table {
	t := &Table{ID: "headline", Title: "Abstract headline savings (FITS8 vs ARM16 averages; peak = best case)",
		Unit: "%", Columns: []string{"switching", "internal", "leakage", "total", "peak(max)"},
		PaperAvg: []float64{49.4, 43.9, 14.9, 46.6, 60.3}}
	var sw, in, lk, tot, peak float64
	n := float64(len(s.Setups))
	for _, name := range s.kernelNames() {
		b := s.Results[name][sim.ARM16.Name].Power
		f := s.Results[name][sim.FITS8.Name].Power
		sw += 100 * power.Saving(b.SwitchingPJ, f.SwitchingPJ)
		in += 100 * power.Saving(b.InternalPJ, f.InternalPJ)
		lk += 100 * power.Saving(b.LeakagePJ, f.LeakagePJ)
		tot += 100 * power.Saving(b.TotalPJ(), f.TotalPJ())
		if p := 100 * power.Saving(b.PeakPowerW, f.PeakPowerW); p > peak {
			peak = p
		}
	}
	t.Rows = append(t.Rows, Row{"suite", []float64{sw / n, in / n, lk / n, tot / n, peak}})
	return t
}

// AllFigures returns every figure table in paper order.
func (s *Suite) AllFigures() []*Table {
	out := []*Table{s.Fig3(), s.Fig4(), s.Fig5()}
	for _, cfg := range sim.Configs {
		out = append(out, s.Fig6(cfg))
	}
	out = append(out, s.Fig7(), s.Fig8(), s.Fig9(), s.Fig10(), s.Fig11(),
		s.Fig12(), s.Fig13(), s.Fig14(), s.Headline())
	return out
}
