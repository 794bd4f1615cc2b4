// Package profile implements the first stage of the FITS design flow
// (the paper's Figure 1): static and dynamic analysis of a target
// application, producing the requirement statistics the synthesizer
// consumes — signature frequencies, two-operand feasibility, literal
// value ranking and operand-register pressure.
package profile

import (
	"math"
	"sort"

	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
	"powerfits/internal/program"
)

// Count pairs static (code sites) and dynamic (executions) tallies.
type Count struct {
	Static uint64
	Dyn    uint64
}

// Weight is the scalar used for ranking: dynamic executions dominate,
// static sites break ties (a site that never ran still costs code size).
func (c Count) Weight() uint64 { return c.Dyn + c.Static }

// SigStat aggregates one signature's statistics.
type SigStat struct {
	Count
	// RdEqRn counts the three-operand ALU instances whose destination
	// equals the first source — the instances a two-operand encoding
	// covers for free (paper Section 3.3).
	RdEqRn Count
}

// Profile is the collected requirement analysis of one program.
type Profile struct {
	Prog *program.Program

	// Dyn is the per-instruction execution count.
	Dyn []uint64

	// Sigs maps canonical signatures to their statistics.
	Sigs map[fits.Signature]*SigStat

	// Lits ranks literal-constant values (LDC operands).
	Lits map[int32]*Count

	// NarrowRegs counts, per register, occurrences in the narrow
	// operand positions (ALU operand 2, shift amount register, multiply
	// rs, register memory offset) — the positions the synthesized
	// register window serves.
	NarrowRegs [isa.NumRegs]Count

	// BranchDisp histograms branch displacement magnitudes by bit
	// width: BranchDisp[w] counts branches whose |target−source|
	// instruction distance needs w bits (signed). It predicts how many
	// displacement bits the synthesized branch format needs before EXT
	// prefixes appear.
	BranchDisp [33]Count

	TotalStatic uint64
	TotalDyn    uint64

	// Output is the program's architectural output from the profiling
	// run (kernel checksums), kept as the golden reference.
	Output []uint32
}

// Collect runs the program functionally (the paper's profile stage runs
// the application to completion) and gathers all statistics. maxInstrs
// bounds the run (0 = unlimited). The run executes on the superblock
// executor over the compiled micro-op table (cpu.Compile), the fastest
// functional path, which matters here because the profiling run
// executes every dynamic instruction of the application.
func Collect(p *program.Program, maxInstrs uint64) (*Profile, error) {
	l := cpu.WordLayout(p.TextBase, len(p.Instrs))
	m := cpu.New(p, l)
	defer m.Release()
	m.MaxInstrs = maxInstrs
	m.DynCount = make([]uint64, len(p.Instrs))
	if err := m.RunSuperblocks(cpu.Compile(p, l), math.MaxUint64, nil, nil, nil); err != nil {
		return nil, err
	}
	return FromCounts(p, m.DynCount, m.Output), nil
}

// FromCounts assembles the profile of a finished run of p from its
// per-instruction execution counts (dyn[i] for instruction i, as
// cpu.Machine.DynCount gathers them) and its output; the profile keeps
// both. A run of p laid out as its ARM image, such as a counted timing
// pass (sim.RunOptions.Counts), gives the counts Collect gathers over
// the word layout whenever p's behaviour does not depend on its code
// addresses, which holds for every shipped kernel (sim's
// TestCountedPassProfileMatchesCollect).
func FromCounts(p *program.Program, dyn []uint64, output []uint32) *Profile {
	pr := &Profile{
		Prog:   p,
		Dyn:    dyn,
		Sigs:   make(map[fits.Signature]*SigStat),
		Lits:   make(map[int32]*Count),
		Output: output,
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d := dyn[i]
		pr.TotalStatic++
		pr.TotalDyn += d

		sig := fits.SigOf(in)
		st := pr.Sigs[sig]
		if st == nil {
			st = &SigStat{}
			pr.Sigs[sig] = st
		}
		st.Static++
		st.Dyn += d
		if sig.IsALU3() && !sig.OperandImm && in.Rd == in.Rn {
			st.RdEqRn.Static++
			st.RdEqRn.Dyn += d
		}
		if sig.IsALU3() && sig.OperandImm && in.Rd == in.Rn {
			st.RdEqRn.Static++
			st.RdEqRn.Dyn += d
		}

		if in.Op == isa.LDC {
			lc := pr.Lits[in.Imm]
			if lc == nil {
				lc = &Count{}
				pr.Lits[in.Imm] = lc
			}
			lc.Static++
			lc.Dyn += d
		}

		if in.Op.IsBranch() && in.Op != isa.BX {
			w := signedBits(int64(in.TargetIdx) - int64(i))
			pr.BranchDisp[w].Static++
			pr.BranchDisp[w].Dyn += d
		}

		// Narrow-position register usage.
		tally := func(r isa.Reg) {
			pr.NarrowRegs[r].Static++
			pr.NarrowRegs[r].Dyn += d
		}
		switch {
		case in.Op.Class() == isa.ClassALU && !in.HasImm && in.RegShift:
			tally(in.Rs)
		case in.Op.Class() == isa.ClassALU && !in.HasImm && in.Op.ReadsRm():
			tally(in.Rm)
		case in.Op.Class() == isa.ClassMul:
			tally(in.Rs)
		case in.Op.Class() == isa.ClassMem && in.Mode == isa.AMOffReg:
			tally(in.Rm)
		}
	}
	return pr
}

// signedBits returns the minimum signed two's-complement width that
// represents v.
func signedBits(v int64) int {
	for w := 1; w < 32; w++ {
		lo := int64(-1) << (w - 1)
		hi := -lo - 1
		if v >= lo && v <= hi {
			return w
		}
	}
	return 32
}

// DispCoverage returns the fraction of branches (by weight) whose
// displacement fits a signed field of the given width — the quantity a
// branch-format designer reads off the histogram.
func (pr *Profile) DispCoverage(bits int) float64 {
	var in, total uint64
	for w, c := range pr.BranchDisp {
		total += c.Weight()
		if w <= bits {
			in += c.Weight()
		}
	}
	if total == 0 {
		return 1
	}
	return float64(in) / float64(total)
}

// RankedRegs returns the registers ordered by narrow-position weight,
// descending — the synthesized register window ordering.
func (pr *Profile) RankedRegs() []isa.Reg {
	regs := make([]isa.Reg, isa.NumRegs)
	for i := range regs {
		regs[i] = isa.Reg(i)
	}
	sort.SliceStable(regs, func(a, b int) bool {
		return pr.NarrowRegs[regs[a]].Weight() > pr.NarrowRegs[regs[b]].Weight()
	})
	return regs
}
