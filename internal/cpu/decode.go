package cpu

import (
	"fmt"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// flagsReg is the pseudo-register index the pipeline uses for the NZCV
// flags in hazard masks and the regReady scoreboard.
const flagsReg = isa.NumRegs

// Predecode flag bits. Each DecodedInstr carries the class and latency
// facts the timing pipeline needs as single-bit tests, so the per-cycle
// loop never calls back into the isa metadata tables.
const (
	// DecMem marks instructions that occupy the single memory port
	// (loads, stores, literal loads, stack block transfers).
	DecMem uint8 = 1 << iota
	// DecMul marks instructions that occupy the multiply unit.
	DecMul
	// DecLoad marks instructions whose result arrives with load-use
	// latency (data loads, literal loads, POP).
	DecLoad
	// DecBranch marks instructions that may redirect control flow.
	DecBranch
	// DecSetsFlags marks instructions that write NZCV (S-suffixed ops
	// and compares).
	DecSetsFlags
	// DecPredTaken is the static branch prediction: backward
	// conditional branches and all unconditional transfers are
	// predicted taken; forward conditional branches are not.
	DecPredTaken
)

// DecodedInstr is the flattened static record of one instruction: every
// per-instruction fact the timing pipeline consults each cycle, derived
// once from the semantic IR and the image layout. 16 bytes per
// instruction, laid out flat so the issue loop is pure array indexing.
type DecodedInstr struct {
	// Addr and End bound the encoded bytes [Addr, End) of the
	// instruction in the target image.
	Addr uint32
	End  uint32
	// Uses is the hazard-check mask: bits 0–15 are the registers read,
	// bit 16 the NZCV flags (set for predicated instructions and
	// flag-consuming ops like ADC/SBC).
	Uses uint32
	// Defs is the writeback mask: bits 0–15 are the registers written.
	// Flag writes are carried by DecSetsFlags (they always have
	// single-cycle latency, unlike register writebacks).
	Defs uint16
	// Flags is the Dec* class bitfield.
	Flags uint8
}

// Decoded is the predecoded static-instruction table for one
// (program, layout) pair. It is immutable after Predecode and carries no
// run state, so a single table may back any number of concurrent
// pipeline runs over the same image — sim.Setup builds one per target
// image and every configuration and engine worker reuses it.
type Decoded struct {
	prog   *program.Program
	Instrs []DecodedInstr

	// sem is the semantic micro-op table for the same (program, layout)
	// pair, built alongside the timing records so the pipeline's execute
	// stage dispatches through compiled micro-ops instead of re-decoding
	// isa.Instr fields.
	sem *Compiled
}

// Predecode builds the static-instruction table for p laid out by l.
// The table holds exactly the answers the timing pipeline used to
// recompute per cycle via the Layout interface and the isa.Instr
// helpers; TestPredecodeMatchesLiveMetadata (internal/sim) pins the
// correspondence for every kernel so the table cannot drift from the IR.
func Predecode(p *program.Program, l Layout) *Decoded {
	recs := make([]DecodedInstr, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		addr := l.AddrOf(i)
		rec := DecodedInstr{
			Addr: addr,
			End:  addr + uint32(l.SizeOf(i)),
			Uses: uint32(in.Uses()),
			Defs: in.Defs(),
		}
		if in.Predicated() || in.Op == isa.ADC || in.Op == isa.SBC {
			rec.Uses |= 1 << flagsReg
		}
		switch in.Op.Class() {
		case isa.ClassMem, isa.ClassLit, isa.ClassStack:
			rec.Flags |= DecMem
		case isa.ClassMul:
			rec.Flags |= DecMul
		case isa.ClassBranch:
			rec.Flags |= DecBranch
		}
		if in.Op.IsLoad() {
			rec.Flags |= DecLoad
		}
		if in.SetFlags || in.Op.IsCompare() {
			rec.Flags |= DecSetsFlags
		}
		if in.Op != isa.BC || in.TargetIdx <= i {
			rec.Flags |= DecPredTaken
		}
		recs[i] = rec
	}
	return &Decoded{prog: p, Instrs: recs, sem: Compile(p, l)}
}

// Program returns the program the table was decoded from.
func (d *Decoded) Program() *program.Program { return d.prog }

// Compiled returns the semantic micro-op table built alongside the
// timing records, for callers (sim.Setup) that want to share it.
func (d *Decoded) Compiled() *Compiled { return d.sem }

// check verifies the table belongs to the machine's program. The match
// is by identity: a Decoded is only valid for pipelines running the
// exact Program (and layout) it was built from.
func (d *Decoded) check(m *Machine) error {
	if d == nil || d.prog != m.prog || len(d.Instrs) != len(m.prog.Instrs) {
		return fmt.Errorf("cpu: decoded table does not match the machine's program")
	}
	return nil
}
