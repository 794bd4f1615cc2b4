package experiments

import (
	"math"

	"powerfits/internal/kernels"
	"powerfits/internal/profile"
	"powerfits/internal/synth"

	"powerfits/internal/isa/arm"
)

// Ablations quantify the synthesis design choices DESIGN.md calls out:
// the opcode-width search, the immediate dictionary, the profile-ranked
// register window, and the two-operand / implied-base point variants.
// They run at scale 1 (the encodings, not the timing, are under study).

// ablationRun synthesizes one kernel under the given options and
// reports (static mapping %, FITS size % of ARM). NaN marks an
// infeasible configuration.
func ablationRun(name string, opts synth.Options) (mapping, size float64) {
	k := kernels.MustGet(name)
	p := k.Build(1)
	armIm, err := arm.Assemble(p)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	budget, err := opts.EffectiveProfileBudget()
	if err != nil {
		return math.NaN(), math.NaN()
	}
	prof, err := profile.Collect(p, budget)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	syn, err := synth.Synthesize(prof, opts)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	res := syn.Translation()
	return 100 * res.StaticMappingRate(), 100 * float64(res.Image.Size()) / float64(armIm.Size())
}

// ablate builds a two-metric table over option variants.
func ablate(id, title string, variants []string, opts []synth.Options) []*Table {
	mapT := &Table{ID: id + "-map", Title: title + " — static 1:1 mapping", Unit: "%", Columns: variants}
	sizeT := &Table{ID: id + "-size", Title: title + " — FITS code size", Unit: "% of ARM", Columns: variants}
	for _, name := range kernels.Names() {
		mRow := Row{Name: name}
		sRow := Row{Name: name}
		for _, o := range opts {
			m, s := ablationRun(name, o)
			mRow.Vals = append(mRow.Vals, m)
			sRow.Vals = append(sRow.Vals, s)
		}
		mapT.Rows = append(mapT.Rows, mRow)
		sizeT.Rows = append(sizeT.Rows, sRow)
	}
	return []*Table{mapT, sizeT}
}

// AblateOpcodeWidth forces each opcode width k (the search normally
// picks the cheapest; k=4 is typically infeasible once BIS+SIS exceed
// 16 points — reported as NaN).
func AblateOpcodeWidth() []*Table {
	mk := func(k int) synth.Options {
		o := synth.DefaultOptions()
		o.ForceK = k
		return o
	}
	return ablate("ablate-opwidth", "Opcode field width",
		[]string{"k=4", "k=5", "k=6", "search"},
		[]synth.Options{mk(4), mk(5), mk(6), synth.DefaultOptions()})
}

// AblateDict disables the per-point immediate dictionaries
// (Section 3.3's utilization-based immediate synthesis).
func AblateDict() []*Table {
	no := synth.DefaultOptions()
	no.NoDict = true
	small := synth.DefaultOptions()
	small.DictCap = 16
	return ablate("ablate-dict", "Immediate dictionary",
		[]string{"dict=256", "dict=16", "none"},
		[]synth.Options{synth.DefaultOptions(), small, no})
}

// AblateWindow replaces the profile-ranked register window with the
// identity window (the programmable register decoder ablation).
func AblateWindow() []*Table {
	no := synth.DefaultOptions()
	no.NoWindowRanking = true
	return ablate("ablate-regs", "Register window ranking",
		[]string{"ranked", "identity"},
		[]synth.Options{synth.DefaultOptions(), no})
}

// AblateModes disables the two-operand and implied-base point variants
// (the paper's operand address-mode heuristic).
func AblateModes() []*Table {
	noTwo := synth.DefaultOptions()
	noTwo.NoTwoOp = true
	noBase := synth.DefaultOptions()
	noBase.NoBasePoints = true
	both := synth.DefaultOptions()
	both.NoTwoOp = true
	both.NoBasePoints = true
	return ablate("ablate-mode", "Operand-mode variants",
		[]string{"full", "no 2-op", "no base", "neither"},
		[]synth.Options{synth.DefaultOptions(), noTwo, noBase, both})
}
