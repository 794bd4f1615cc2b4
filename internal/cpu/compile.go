package cpu

import (
	"fmt"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// This file is the semantic predecode pass: the functional
// counterpart of decode.go's timing predecode. Compile lowers a program
// once into a flat micro-op table in which every per-instruction
// decision is resolved ahead of execution: the operand-2 form
// (immediate / register / shifted, with the shift kind and amount baked
// in), the flag behaviour (distinct flag-setting and flag-preserving
// execute kinds), register indices, memory access width, the BL return
// address and the SWI service. Execution then dispatches on a small
// uint8 kind and performs no heap allocations in the steady state.
//
// The micro-op semantics are written once, in runFusedBlock
// (superblock.go). stepCompiled below is the per-instruction path: it
// adds the guards, predication and the control-flow kinds, and hands
// every other kind to runFusedBlock as a block of one. The reference
// interpreter the table is tested against (ref_test.go) works on
// isa.Instr directly; FuzzCompiledVsStep, the whole-kernel tests and
// the golden tables pin the two to each other.

// Execute kinds. One per specialized instruction form: the (operation × flag-behaviour × operand-2 form) product is
// flattened so the hot loop consults neither Instr.SetFlags nor the
// operand shape — the form dispatch folds into the single jump table.
// Per data-processing op the three variants are consecutive (I =
// immediate baked into Imm, R = plain register, X = shifted; see
// aluKind), which lets the compiler derive the variant as base+offset.
// The enum must stay dense — the dispatch switch compiles to a jump
// table.
const (
	kBad uint8 = iota // unimplemented op: always faults

	// Arithmetic, flag-preserving (the flags are never touched).
	kAddI
	kAddR
	kAddX
	kAdcI
	kAdcR
	kAdcX
	kSubI
	kSubR
	kSubX
	kSbcI
	kSbcR
	kSbcX
	kRsbI
	kRsbR
	kRsbX
	// Arithmetic, flag-setting.
	kAddSI
	kAddSR
	kAddSX
	kAdcSI
	kAdcSR
	kAdcSX
	kSubSI
	kSubSR
	kSubSX
	kSbcSI
	kSbcSR
	kSbcSX
	kRsbSI
	kRsbSR
	kRsbSX
	kCmpI
	kCmpR
	kCmpX
	kCmnI
	kCmnR
	kCmnX
	// Logical / move, flag-preserving (shifter carry-out not needed).
	kAndI
	kAndR
	kAndX
	kOrrI
	kOrrR
	kOrrX
	kEorI
	kEorR
	kEorX
	kBicI
	kBicR
	kBicX
	kMovI
	kMovR
	kMovX
	kMvnI
	kMvnR
	kMvnX
	// Logical / move, flag-setting. The I and R forms leave C untouched:
	// their shifter carry-out is defined as the current C flag, so
	// C = shifter carry-out there is the identity.
	kAndSI
	kAndSR
	kAndSX
	kOrrSI
	kOrrSR
	kOrrSX
	kEorSI
	kEorSR
	kEorSX
	kBicSI
	kBicSR
	kBicSX
	kMovSI
	kMovSR
	kMovSX
	kMvnSI
	kMvnSR
	kMvnSX
	kTstI
	kTstR
	kTstX
	kTeqI
	kTeqR
	kTeqX

	kMul
	kMulS
	kMla
	kMlaS

	kQadd
	kQsub
	kClz
	kRev
	kMin
	kMax

	kLdr
	kLdrb
	kLdrh
	kLdrsb
	kLdrsh
	kStr
	kStrb
	kStrh
	kLdc

	kPush
	kPop

	kB  // B and BC (predication is handled before dispatch)
	kBL // return address baked into Imm at compile time
	kBX

	kSwiHalt // SWI #0
	kSwiEmit // SWI #1
	kSwiBad  // any other service: always faults

	kNop
)

// Operand-2 shifted sub-forms, stored in uop.A for the X-variant kinds
// so the out-of-line shifter knows which amount source to use. Baked
// immediate-shift amounts are 1..31 (amount zero compiles to the R
// variant), so the baked form needs none of the >= 32 edge handling;
// only the register-shifted form keeps the full dynamic shifter.
const (
	o2ShImm uint8 = iota // Regs[Rm] shifted by baked amount Imm (kind B)
	o2ShReg              // Regs[Rm] shifted by Regs[Rs]&0xff (kind B)
)

// uop is one compiled micro-op: 16 bytes, flat, pointer-free. Field use
// depends on Kind — Imm carries the ALU immediate or baked shift
// amount, the memory offset or post-increment, the PUSH/POP byte count,
// or the BL return address; Aux carries the branch target index, the
// PUSH/POP register list, or the faulting SWI service; A/B carry the
// shifted sub-form and shift kind (ALU X variants) or the addressing
// mode and offset shift (memory).
type uop struct {
	Imm  uint32
	Aux  int32
	Kind uint8
	Cond uint8
	Rd   uint8
	Rn   uint8
	Rm   uint8
	Rs   uint8
	A    uint8
	B    uint8
}

// Compiled is the semantic micro-op table for one (program, layout)
// pair, built once by Compile. Like Decoded it is immutable and carries
// no run state, so one table may back any number of concurrent Machines
// over the same program — a sim.Setup holds one per target image
// (ArmDecoded.Compiled() from sim.PrepareBaseline,
// FitsDecoded.Compiled() from WithFITS) shared by every configuration and engine worker, and profile.Collect
// builds one over the word layout for a profiling run of its own (the
// suite instead counts its ARM timing pass).
type Compiled struct {
	prog   *program.Program
	layout Layout
	uops   []uop

	// fuse is the superblock run-length table: fuse[i] is the number of
	// consecutive fusible micro-ops starting at i (see superblock.go).
	fuse []uint16

	// addrs and ends are the per-instruction encoded address ranges
	// flattened out of the layout, so the superblock fetch-stream
	// witness (RunSuperblocks' touch) reads two slices instead of making
	// two interface calls per executed batch.
	addrs []uint32
	ends  []uint32
}

// Compile lowers p (laid out by l) into its micro-op table. The layout
// matters semantically: BL bakes the layout's return address and BX
// resolves targets through it.
func Compile(p *program.Program, l Layout) *Compiled {
	c := &Compiled{prog: p, layout: l, uops: make([]uop, len(p.Instrs))}
	for i := range p.Instrs {
		c.uops[i] = compileOne(&p.Instrs[i], i, l)
	}
	c.fuse = buildFuse(c.uops)
	c.addrs = make([]uint32, len(p.Instrs))
	c.ends = make([]uint32, len(p.Instrs))
	for i := range p.Instrs {
		c.addrs[i] = l.AddrOf(i)
		c.ends[i] = c.addrs[i] + uint32(l.SizeOf(i))
	}
	return c
}

// Program returns the program the table was compiled from.
func (c *Compiled) Program() *program.Program { return c.prog }

// Layout returns the layout the table was compiled against.
func (c *Compiled) Layout() Layout { return c.layout }

// check verifies the table belongs to the machine's program, mirroring
// Decoded.check: identity match only — a Compiled is valid solely for
// machines running the exact Program (and layout) it was built from.
func (c *Compiled) check(m *Machine) error {
	if c == nil || c.prog != m.prog || len(c.uops) != len(m.prog.Instrs) {
		return fmt.Errorf("cpu: compiled table does not match the machine's program")
	}
	return nil
}

// fault builds the ExecError for a runtime fault at idx (its Idx, a
// copy of its Instr and the Detail). Only the fault path reaches it;
// the steady state allocates nothing.
func (c *Compiled) fault(idx int, detail string) error {
	return &ExecError{Idx: idx, Instr: c.prog.Instrs[idx], Detail: detail}
}

// aluKind resolves a data-processing instruction to its specialized
// kind (flag behaviour × operand-2 form) and bakes the operand fields.
// plain and s name the I variants; R and X follow consecutively.
func aluKind(u *uop, in *isa.Instr, plain, s uint8) uint8 {
	base := plain
	if in.SetFlags {
		base = s
	}
	switch {
	case in.HasImm:
		u.Imm = uint32(in.Imm)
		return base // I
	case in.RegShift:
		u.A = o2ShReg
		u.B = uint8(in.Shift)
		return base + 2 // X
	case in.ShiftAmt == 0:
		return base + 1 // R
	default:
		u.A = o2ShImm
		u.B = uint8(in.Shift)
		u.Imm = uint32(in.ShiftAmt)
		return base + 2 // X
	}
}

// sKind picks between the flag-preserving and flag-setting kind.
func sKind(in *isa.Instr, plain, s uint8) uint8 {
	if in.SetFlags {
		return s
	}
	return plain
}

// compileOne resolves one instruction to its micro-op.
func compileOne(in *isa.Instr, i int, l Layout) uop {
	u := uop{
		Cond: uint8(in.Cond),
		Rd:   uint8(in.Rd), Rn: uint8(in.Rn), Rm: uint8(in.Rm), Rs: uint8(in.Rs),
	}
	switch in.Op {
	case isa.ADD:
		u.Kind = aluKind(&u, in, kAddI, kAddSI)
	case isa.ADC:
		u.Kind = aluKind(&u, in, kAdcI, kAdcSI)
	case isa.SUB:
		u.Kind = aluKind(&u, in, kSubI, kSubSI)
	case isa.SBC:
		u.Kind = aluKind(&u, in, kSbcI, kSbcSI)
	case isa.RSB:
		u.Kind = aluKind(&u, in, kRsbI, kRsbSI)
	case isa.CMP:
		u.Kind = aluKind(&u, in, kCmpI, kCmpI)
	case isa.CMN:
		u.Kind = aluKind(&u, in, kCmnI, kCmnI)
	case isa.AND:
		u.Kind = aluKind(&u, in, kAndI, kAndSI)
	case isa.ORR:
		u.Kind = aluKind(&u, in, kOrrI, kOrrSI)
	case isa.EOR:
		u.Kind = aluKind(&u, in, kEorI, kEorSI)
	case isa.BIC:
		u.Kind = aluKind(&u, in, kBicI, kBicSI)
	case isa.MOV:
		u.Kind = aluKind(&u, in, kMovI, kMovSI)
	case isa.MVN:
		u.Kind = aluKind(&u, in, kMvnI, kMvnSI)
	case isa.TST:
		u.Kind = aluKind(&u, in, kTstI, kTstI)
	case isa.TEQ:
		u.Kind = aluKind(&u, in, kTeqI, kTeqI)

	case isa.MUL:
		u.Kind = sKind(in, kMul, kMulS)
	case isa.MLA:
		u.Kind = sKind(in, kMla, kMlaS)

	case isa.QADD:
		u.Kind = kQadd
	case isa.QSUB:
		u.Kind = kQsub
	case isa.CLZ:
		u.Kind = kClz
	case isa.REV:
		u.Kind = kRev
	case isa.MIN:
		u.Kind = kMin
	case isa.MAX:
		u.Kind = kMax

	case isa.LDR, isa.LDRB, isa.LDRH, isa.LDRSB, isa.LDRSH, isa.STR, isa.STRB, isa.STRH:
		switch in.Op {
		case isa.LDR:
			u.Kind = kLdr
		case isa.LDRB:
			u.Kind = kLdrb
		case isa.LDRH:
			u.Kind = kLdrh
		case isa.LDRSB:
			u.Kind = kLdrsb
		case isa.LDRSH:
			u.Kind = kLdrsh
		case isa.STR:
			u.Kind = kStr
		case isa.STRB:
			u.Kind = kStrb
		case isa.STRH:
			u.Kind = kStrh
		}
		u.A = uint8(in.Mode)
		u.B = in.ShiftAmt
		u.Imm = uint32(in.Imm)

	case isa.LDC:
		u.Kind = kLdc
		u.Imm = uint32(in.Imm)

	case isa.PUSH:
		u.Kind = kPush
		u.Aux = int32(in.RegList)
		u.Imm = 4 * uint32(popCount(in.RegList))
	case isa.POP:
		u.Kind = kPop
		u.Aux = int32(in.RegList)
		u.Imm = 4 * uint32(popCount(in.RegList))

	case isa.B, isa.BC:
		u.Kind = kB
		u.Aux = int32(in.TargetIdx)
	case isa.BL:
		u.Kind = kBL
		u.Aux = int32(in.TargetIdx)
		u.Imm = l.AddrOf(i) + uint32(l.SizeOf(i))
	case isa.BX:
		u.Kind = kBX

	case isa.SWI:
		switch in.Imm {
		case 0:
			u.Kind = kSwiHalt
		case 1:
			u.Kind = kSwiEmit
		default:
			u.Kind = kSwiBad
			u.Aux = in.Imm
		}

	case isa.NOP:
		u.Kind = kNop
	default:
		u.Kind = kBad
	}
	return u
}

// shiftVal is the barrel shifter for a non-zero amount when the
// carry-out is not needed (arithmetic and flag-preserving kinds).
func shiftVal(v uint32, kind uint8, amt uint32) uint32 {
	switch isa.Shift(kind) {
	case isa.LSL:
		if amt >= 32 {
			return 0
		}
		return v << amt
	case isa.LSR:
		if amt >= 32 {
			return 0
		}
		return v >> amt
	case isa.ASR:
		if amt >= 32 {
			amt = 31
		}
		return uint32(int32(v) >> amt)
	default: // ROR
		amt &= 31
		if amt == 0 {
			return v
		}
		return v>>amt | v<<(32-amt)
	}
}

// shiftCarry is the barrel shifter for a non-zero amount with the
// carry-out, replicating Machine.operand2 exactly.
func shiftCarry(v uint32, kind uint8, amt uint32) (uint32, bool) {
	switch isa.Shift(kind) {
	case isa.LSL:
		if amt > 32 {
			return 0, false
		}
		if amt == 32 {
			return 0, v&1 != 0
		}
		return v << amt, v>>(32-amt)&1 != 0
	case isa.LSR:
		if amt > 32 {
			return 0, false
		}
		if amt == 32 {
			return 0, v>>31 != 0
		}
		return v >> amt, v>>(amt-1)&1 != 0
	case isa.ASR:
		if amt >= 32 {
			s := uint32(int32(v) >> 31)
			return s, s&1 != 0
		}
		return uint32(int32(v) >> amt), v>>(amt-1)&1 != 0
	default: // ROR
		amt &= 31
		if amt == 0 {
			return v, v>>31 != 0
		}
		r := v>>amt | v<<(32-amt)
		return r, r>>31 != 0
	}
}

// op2shifted evaluates a shifted operand 2 (the X-variant kinds) when
// the shifter carry-out is unused.
func (m *Machine) op2shifted(u *uop) uint32 {
	if u.A == o2ShImm {
		return shiftVal(m.Regs[u.Rm&15], u.B, u.Imm)
	}
	v := m.Regs[u.Rm&15]
	amt := m.Regs[u.Rs&15] & 0xff
	if amt == 0 {
		return v
	}
	return shiftVal(v, u.B, amt)
}

// op2shiftedCarry evaluates a shifted operand 2 and the shifter
// carry-out (flag-setting logical X kinds); the carry-out defaults to
// the current C flag exactly as in Machine.operand2.
func (m *Machine) op2shiftedCarry(u *uop) (uint32, bool) {
	if u.A == o2ShImm {
		return shiftCarry(m.Regs[u.Rm&15], u.B, u.Imm)
	}
	v := m.Regs[u.Rm&15]
	amt := m.Regs[u.Rs&15] & 0xff
	if amt == 0 {
		return v, m.C
	}
	return shiftCarry(v, u.B, amt)
}

// effAddrC computes a load/store effective address and whether base
// writeback applies, from the compiled addressing mode.
func (m *Machine) effAddrC(u *uop) (uint32, bool) {
	base := m.Regs[u.Rn&15]
	switch isa.AddrMode(u.A) {
	case isa.AMOffImm:
		return base + u.Imm, false
	case isa.AMOffReg:
		return base + m.Regs[u.Rm&15]<<u.B, false
	case isa.AMPostImm:
		return base, true
	}
	return base, false
}

// stepCompiled executes the instruction at PCIdx and advances: the
// per-instruction path of the pipeline's execute stage and of the
// superblock executor's fallback. Callers have verified that the table
// matches the machine's program. It keeps the guards (halt, budget, PC
// range), predication (a failed condition counts the instruction and
// falls through) and the kinds that end a fused block (control flow,
// halt and the faulting kinds); every other kind executes as a fused
// block of one, so the micro-op semantics live in runFusedBlock alone.
func (m *Machine) stepCompiled(c *Compiled) (StepResult, error) {
	if m.Halted {
		return StepResult{}, fmt.Errorf("cpu: step after halt")
	}
	if m.MaxInstrs > 0 && m.InstrCount >= m.MaxInstrs {
		return StepResult{}, fmt.Errorf("cpu: instruction budget %d exhausted (runaway program?)", m.MaxInstrs)
	}
	idx := m.PCIdx
	if idx < 0 || idx >= len(c.uops) {
		return StepResult{}, fmt.Errorf("cpu: PC index %d out of range", idx)
	}
	u := &c.uops[idx]
	holds := u.Cond == uint8(isa.AL) || m.CondHolds(isa.Cond(u.Cond))
	if holds && fusibleKind(u.Kind) {
		return StepResult{NextIdx: idx + 1, Executed: true}, m.runFusedBlock(c, idx, 1, m.DynCount)
	}
	m.InstrCount++
	if m.DynCount != nil {
		m.DynCount[idx]++
	}
	res := StepResult{NextIdx: idx + 1, Executed: holds}
	if !holds {
		m.PCIdx = res.NextIdx
		return res, nil
	}

	switch u.Kind {
	case kB:
		res.Taken = true
		res.NextIdx = int(u.Aux)
	case kBL:
		m.Regs[isa.LR] = u.Imm
		res.Taken = true
		res.NextIdx = int(u.Aux)
	case kBX:
		t, ok := c.layout.IndexOf(m.Regs[u.Rm&15])
		if !ok {
			return res, c.fault(idx, fmt.Sprintf("BX to non-instruction address %#x", m.Regs[u.Rm&15]))
		}
		res.Taken = true
		res.NextIdx = t
	case kSwiHalt:
		m.Halted = true
		res.NextIdx = idx
	case kSwiBad:
		return res, c.fault(idx, fmt.Sprintf("unknown SWI %d", u.Aux))
	default:
		return res, c.fault(idx, "unimplemented op")
	}
	m.PCIdx = res.NextIdx
	return res, nil
}

// op2plain re-derives the operand-2 value for the rare kinds whose
// three form variants share one case arm (ADC/SBC/RSB/CMN/BIC/MVN and
// the I/R flag-setting logicals): the kind encodes the form as
// base+offset, so the variant index is recovered from Kind itself.
// (Hot kinds get fully specialized arms instead; this keeps the cold
// arms compact without a second form field.)
func (m *Machine) op2plain(u *uop) uint32 {
	switch (u.Kind - 1) % 3 {
	case 0: // I variant
		return u.Imm
	case 1: // R variant
		return m.Regs[u.Rm&15]
	default: // X variant
		return m.op2shifted(u)
	}
}
