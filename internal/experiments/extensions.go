package experiments

import (
	"fmt"
	"slices"

	"powerfits/internal/cache"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// extKernels is the subset the cache-geometry sweep runs (one small,
// one branchy, one MAC-heavy, one large-footprint).
var extKernels = []string{"crc32", "qsort", "mad", "jpeg"}

// extGeometries are the I-cache organisations of the geometry sweep.
var extGeometries = []struct {
	name        string
	assoc, line int
}{
	{"dm/32B", 1, 32},
	{"4w/32B", 4, 32},
	{"32w/32B (paper)", 32, 32},
	{"4w/16B", 4, 16},
	{"4w/64B", 4, 64},
}

// Extensions returns the tables beyond the paper's figures, each kernel
// prepared once: sensitivity of the headline result to the
// switching-activity model and to the cache geometry, an explicit
// energy accounting backing the paper's "energy savings can be directly
// inferred from power savings" argument (Section 6.3), fetch traffic
// per instruction and the CPI stack. Every kernel runs the four paper
// configurations under the default calibration and ARM16 and FITS8
// under Hamming switching; the extKernels also run the geometry sweep.
func Extensions(scale int) ([]*Table, error) {
	// The FITS8 total-cache-power saving under the sim-panalyzer-style
	// fixed-activity switching model (the default) against measured
	// Hamming toggles on the fetch bus.
	activity := &Table{ID: "ext-activity", Title: "Switching-model sensitivity: FITS8 total cache power saving",
		Unit: "% saving vs ARM16", Columns: []string{"fixed activity", "hamming"},
		Note: "The paper's model charges fixed switching capacitance per access; measured Hamming toggles penalise the denser FITS stream slightly. The headline survives either way."}
	// The FITS8-vs-ARM16 total power saving per I-cache geometry
	// (associativity and line size), showing the headline is not an
	// artifact of the SA-1100's 32-way organisation.
	geometry := &Table{ID: "ext-geometry", Title: "Cache-geometry sensitivity: FITS8 total cache power saving",
		Unit: "% saving vs ARM16"}
	// Each geometry's ARM16 and FITS8 configurations, timed together
	// so geometries with equal line sizes share passes.
	var geomCfgs []sim.Config
	for _, g := range extGeometries {
		geometry.Columns = append(geometry.Columns, g.name)
		mk := func(isa sim.ISA, size int) sim.Config {
			return sim.Config{
				Name:  fmt.Sprintf("%d/%s", size, g.name),
				ISA:   isa,
				Cache: cache.Config{SizeBytes: size, LineBytes: g.line, Assoc: g.assoc},
			}
		}
		geomCfgs = append(geomCfgs, mk(sim.ISAARM, 16*1024), mk(sim.ISAFITS, 8*1024))
	}
	// The FITS8 cache energy saving, average power saving and runtime
	// ratio: energy savings track power savings where runtimes barely
	// differ.
	energy := &Table{ID: "ext-energy", Title: "Energy vs power saving, FITS8 vs ARM16",
		Unit: "%", Columns: []string{"energy", "avg power", "runtime ratio %"},
		Note: "The paper's Section 6.3 infers energy savings from power savings because its runtimes barely differ; that holds here wherever the runtime ratio is near 100 % (blowfish, crc32, gsm). On fetch-bound kernels our FITS core also finishes sooner, so its energy saving exceeds its average-power saving — FITS does strictly better than the paper's inference assumes."}
	// Fetch accesses per executed instruction — the mechanism behind
	// Figure 7: the 16-bit ISA serves two instructions per 32-bit
	// fetch, halving cache activity, while halving the cache (ARM8)
	// changes nothing.
	traffic := &Table{ID: "ext-traffic", Title: "I-cache accesses per instruction",
		Unit: "accesses/instr", Columns: []string{"ARM16", "ARM8", "FITS16", "FITS8"}}
	// Where the ARM16 and FITS8 cycles go: full-width issue and
	// zero-issue cycles attributed to fetch starvation, hazards and
	// I-cache misses.
	cpi := &Table{ID: "ext-cpi", Title: "CPI stack (% of cycles), ARM16 | FITS8",
		Unit: "%", Columns: []string{
			"A:dual", "A:fetch0", "A:hazard0", "A:miss0",
			"F:dual", "F:fetch0", "F:hazard0", "F:miss0"},
		Note: "dual = cycles issuing the full width; fetch0/hazard0/miss0 = zero-issue cycles starved by the fetch port, blocked by interlocks, or stalled on I-cache misses. The 16-bit ISA relieves the 32-bit fetch port, converting fetch-starved cycles into dual-issue cycles."}

	cal := power.DefaultCalibration()
	hamming := cal
	hamming.UseHamming = true
	saving := func(base, fits *sim.Result) float64 {
		return 100 * power.Saving(base.Power.TotalPJ(), fits.Power.TotalPJ())
	}
	setups := make(map[string]*sim.Setup, len(extKernels))
	for _, k := range kernels.All() {
		s, err := sim.PrepareWith(k, scale, sim.PrepareOptions{Synth: synth.DefaultOptions()})
		if err != nil {
			return nil, err
		}
		rs, err := s.RunAll(sim.Configs, cal, sim.RunOptions{})
		if err != nil {
			return nil, err
		}
		hs, err := s.RunAll([]sim.Config{sim.ARM16, sim.FITS8}, hamming, sim.RunOptions{})
		if err != nil {
			return nil, err
		}
		base, f8 := rs[0], rs[3]
		activity.Rows = append(activity.Rows, Row{k.Name, []float64{saving(base, f8), saving(hs[0], hs[1])}})
		energy.Rows = append(energy.Rows, Row{k.Name, []float64{
			saving(base, f8),
			100 * power.Saving(base.Power.AvgPowerW(), f8.Power.AvgPowerW()),
			100 * float64(f8.Pipe.Cycles) / float64(base.Pipe.Cycles)}})
		tr := Row{Name: k.Name}
		for _, r := range rs {
			tr.Vals = append(tr.Vals, float64(r.Cache.Accesses)/float64(r.Pipe.Instrs))
		}
		traffic.Rows = append(traffic.Rows, tr)
		cr := Row{Name: k.Name}
		for _, r := range []*sim.Result{base, f8} {
			cy := float64(r.Pipe.Cycles)
			cr.Vals = append(cr.Vals,
				100*float64(r.Pipe.DualIssueCycles)/cy,
				100*float64(r.Pipe.ZeroIssueFetch)/cy,
				100*float64(r.Pipe.ZeroIssueHazard)/cy,
				100*float64(r.Pipe.ZeroIssueMiss)/cy)
		}
		cpi.Rows = append(cpi.Rows, cr)
		if slices.Contains(extKernels, k.Name) {
			setups[k.Name] = s
		}
	}
	for _, name := range extKernels {
		rs, err := setups[name].RunAll(geomCfgs, cal, sim.RunOptions{})
		if err != nil {
			return nil, err
		}
		row := Row{Name: name}
		for i := 0; i < len(rs); i += 2 {
			row.Vals = append(row.Vals, saving(rs[i], rs[i+1]))
		}
		geometry.Rows = append(geometry.Rows, row)
	}
	return []*Table{activity, geometry, energy, traffic, cpi}, nil
}
