package experiments

import (
	"math"

	"powerfits/internal/kernels"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// ablationVariant is one column of an ablation: options applied over
// the defaults with synth.Options.With (the zero value keeps them).
type ablationVariant struct {
	name string
	opts synth.Options
}

// ablationFamilies are the synthesis design choices DESIGN.md calls
// out, each a two-table family (static mapping, code size) over its
// variants.
var ablationFamilies = []struct {
	id, title string
	variants  []ablationVariant
}{
	// Each opcode width k forced (the search normally picks the
	// cheapest; k=4 is typically infeasible once BIS+SIS exceed 16
	// points — reported as NaN).
	{"ablate-opwidth", "Opcode field width", []ablationVariant{
		{"k=4", synth.Options{ForceK: 4}},
		{"k=5", synth.Options{ForceK: 5}},
		{"k=6", synth.Options{ForceK: 6}},
		{"search", synth.Options{}},
	}},
	// The per-point immediate dictionaries (Section 3.3's
	// utilization-based immediate synthesis) shrunk or disabled.
	{"ablate-dict", "Immediate dictionary", []ablationVariant{
		{"dict=256", synth.Options{}},
		{"dict=16", synth.Options{DictCap: 16}},
		{"none", synth.Options{NoDict: true}},
	}},
	// The profile-ranked register window against the identity window
	// (the programmable register decoder ablation).
	{"ablate-regs", "Register window ranking", []ablationVariant{
		{"ranked", synth.Options{}},
		{"identity", synth.Options{NoWindowRanking: true}},
	}},
	// The two-operand and implied-base point variants (the paper's
	// operand address-mode heuristic) disabled.
	{"ablate-mode", "Operand-mode variants", []ablationVariant{
		{"full", synth.Options{}},
		{"no 2-op", synth.Options{NoTwoOp: true}},
		{"no base", synth.Options{NoBasePoints: true}},
		{"neither", synth.Options{NoTwoOp: true, NoBasePoints: true}},
	}},
}

// Ablations synthesizes every kernel under every ablation variant and
// returns each family's static 1:1 mapping and FITS code size tables,
// in family order. They run at scale 1 (the encodings, not the timing,
// are under study): one baseline and one memoized profile per kernel.
// NaN marks an infeasible variant.
func Ablations() []*Table {
	var tables []*Table
	for _, f := range ablationFamilies {
		cols := make([]string, len(f.variants))
		for i, v := range f.variants {
			cols[i] = v.name
		}
		tables = append(tables,
			&Table{ID: f.id + "-map", Title: f.title + " — static 1:1 mapping", Unit: "%", Columns: cols},
			&Table{ID: f.id + "-size", Title: f.title + " — FITS code size", Unit: "% of ARM", Columns: cols})
	}
	for _, k := range kernels.All() {
		base, baseErr := sim.PrepareBaseline(k, 1, nil)
		profiles := profile.NewCache()
		for i, f := range ablationFamilies {
			mapRow, sizeRow := Row{Name: k.Name}, Row{Name: k.Name}
			for _, v := range f.variants {
				m, size := math.NaN(), math.NaN()
				opts := synth.DefaultOptions().With(v.opts)
				if baseErr == nil {
					if s, err := base.WithFITS(base.Profiler(profiles, opts), opts, nil); err == nil {
						m = 100 * s.Fits.StaticMappingRate()
						size = 100 * float64(s.Fits.Image.Size()) / float64(base.ArmImage.Size())
					}
				}
				mapRow.Vals = append(mapRow.Vals, m)
				sizeRow.Vals = append(sizeRow.Vals, size)
			}
			tables[2*i].Rows = append(tables[2*i].Rows, mapRow)
			tables[2*i+1].Rows = append(tables[2*i+1].Rows, sizeRow)
		}
	}
	return tables
}
