// Package isa defines the semantic intermediate representation shared by
// every instruction-set target in the PowerFITS toolchain.
//
// Programs are authored once as a sequence of semantic instructions
// (type Instr). Each concrete target — the 32-bit ARM-subset baseline,
// the 16-bit Thumb-like baseline, and the synthesized 16-bit FITS ISA —
// provides a bit-level encoding of this IR. The pipeline simulator
// executes the IR semantics while fetching the *encoded* bytes through
// the instruction cache, so code size, fetch traffic and bus activity all
// derive from real encodings.
package isa

import (
	"fmt"
	"strings"
)

// Reg names one of the sixteen architectural registers. The calling
// convention mirrors ARM: R13 is the stack pointer, R14 the link
// register and R15 the program counter (PC is never a general operand in
// this IR; branches are explicit).
type Reg uint8

// Architectural register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // R13
	LR // R14
	PC // R15 (reserved; not usable as a general operand)
)

// NumRegs is the architectural register-file size.
const NumRegs = 16

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch r {
	case SP:
		return "sp"
	case LR:
		return "lr"
	case PC:
		return "pc"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Cond is an ARM-style condition code. Every instruction carries one;
// AL (always) means the instruction is unconditional.
type Cond uint8

// Condition codes, numbered exactly as the ARM cond field encodes them.
const (
	EQ Cond = iota // Z set
	NE             // Z clear
	CS             // C set (unsigned >=)
	CC             // C clear (unsigned <)
	MI             // N set
	PL             // N clear
	VS             // V set
	VC             // V clear
	HI             // C set and Z clear (unsigned >)
	LS             // C clear or Z set (unsigned <=)
	GE             // N == V
	LT             // N != V
	GT             // Z clear and N == V
	LE             // Z set or N != V
	AL             // always
)

// NumConds is the count of encodable condition codes.
const NumConds = 15

var condNames = [...]string{
	"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
	"hi", "ls", "ge", "lt", "gt", "le", "",
}

// String returns the assembler suffix of the condition ("" for AL).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Inverse returns the condition that is true exactly when c is false.
// Inverse(AL) panics: AL has no encodable inverse.
func (c Cond) Inverse() Cond {
	if c == AL {
		panic("isa: AL has no inverse condition")
	}
	return c ^ 1
}

// Shift identifies a barrel-shifter operation applied to the register
// operand of a data-processing instruction.
type Shift uint8

// Barrel-shifter operations, numbered as ARM encodes them.
const (
	LSL Shift = iota // logical shift left
	LSR              // logical shift right
	ASR              // arithmetic shift right
	ROR              // rotate right
)

// String returns the assembler mnemonic of the shift.
func (s Shift) String() string {
	switch s {
	case LSL:
		return "lsl"
	case LSR:
		return "lsr"
	case ASR:
		return "asr"
	case ROR:
		return "ror"
	}
	return fmt.Sprintf("shift(%d)", uint8(s))
}

// AddrMode selects how a load or store forms its effective address.
type AddrMode uint8

const (
	// AMOffImm addresses memory at Rn+Imm (no writeback).
	AMOffImm AddrMode = iota
	// AMOffReg addresses memory at Rn + (Rm << ShiftAmt) (no writeback).
	AMOffReg
	// AMPostImm addresses memory at Rn, then performs Rn += Imm.
	AMPostImm
)

// Op is a semantic operation. The set covers the ARM-subset the kernels
// are written in plus the "over-provisioned datapath" extensions that the
// FITS microarchitecture offers to the synthesizer (saturating ops, CLZ,
// byte reversal, min/max), per Section 3.1 of the paper.
type Op uint8

// Operations.
const (
	// Data processing (ALU). Operand 2 is Rm (optionally shifted) or an
	// immediate.
	ADD Op = iota
	ADC
	SUB
	SBC
	RSB
	AND
	ORR
	EOR
	BIC
	MOV // also carries the shift instructions: MOV rd, rm LSL #n
	MVN
	CMP // compare: flags only
	CMN
	TST
	TEQ

	// Multiply.
	MUL // Rd = Rm * Rs
	MLA // Rd = Rm * Rs + Rn

	// Datapath extensions (FITS over-provisioned functional units;
	// encoded in reserved ARM space by the baseline encoder).
	QADD // saturating signed add
	QSUB // saturating signed subtract
	CLZ  // count leading zeros of Rm
	REV  // byte-reverse Rm
	MIN  // signed minimum of Rn, Rm
	MAX  // signed maximum of Rn, Rm

	// Loads and stores. Effective address per AddrMode.
	LDR
	LDRB
	LDRH
	LDRSB
	LDRSH
	STR
	STRB
	STRH

	// LDC is the literal-constant load pseudo-instruction: Rd = Imm
	// (any 32-bit value). The ARM and Thumb encoders realise it as a
	// PC-relative literal-pool load; the FITS encoder uses the
	// synthesized immediate dictionary or EXT-prefix expansion.
	LDC

	// Stack block transfers (ARM STMDB sp!/LDMIA sp! restricted to SP).
	PUSH
	POP

	// Control flow.
	B   // unconditional branch (Cond must be AL)
	BC  // conditional branch (Cond != AL)
	BL  // branch and link (call)
	BX  // branch to register (return); Rm holds the target
	SWI // software interrupt / trap; Imm is the service number

	// NOP does nothing (encoded as MOV r0, r0 on ARM).
	NOP

	opCount // sentinel
)

// NumOps is the number of distinct semantic operations.
const NumOps = int(opCount)

// Class groups operations by the pipeline resources and encoding format
// they use.
type Class uint8

// Operation classes.
const (
	ClassALU    Class = iota // data processing
	ClassMul                 // multiply unit
	ClassMem                 // single load/store
	ClassLit                 // literal-constant load
	ClassStack               // push/pop block transfer
	ClassBranch              // B/BC/BL/BX
	ClassTrap                // SWI
	ClassNop
)

// opInfo is the static metadata table for each operation.
type opInfo struct {
	name     string
	class    Class
	readsRn  bool // consumes Rn
	readsRm  bool // consumes Rm (operand 2 register / store data register)
	readsRs  bool // consumes Rs (multiply operand / register shift amount)
	writesRd bool // produces Rd
	isStore  bool
	isLoad   bool
}

var opTable = [NumOps]opInfo{
	ADD: {name: "add", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	ADC: {name: "adc", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	SUB: {name: "sub", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	SBC: {name: "sbc", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	RSB: {name: "rsb", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	AND: {name: "and", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	ORR: {name: "orr", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	EOR: {name: "eor", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	BIC: {name: "bic", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	MOV: {name: "mov", class: ClassALU, readsRm: true, writesRd: true},
	MVN: {name: "mvn", class: ClassALU, readsRm: true, writesRd: true},
	CMP: {name: "cmp", class: ClassALU, readsRn: true, readsRm: true},
	CMN: {name: "cmn", class: ClassALU, readsRn: true, readsRm: true},
	TST: {name: "tst", class: ClassALU, readsRn: true, readsRm: true},
	TEQ: {name: "teq", class: ClassALU, readsRn: true, readsRm: true},

	MUL: {name: "mul", class: ClassMul, readsRm: true, readsRs: true, writesRd: true},
	MLA: {name: "mla", class: ClassMul, readsRn: true, readsRm: true, readsRs: true, writesRd: true},

	QADD: {name: "qadd", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	QSUB: {name: "qsub", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	CLZ:  {name: "clz", class: ClassALU, readsRm: true, writesRd: true},
	REV:  {name: "rev", class: ClassALU, readsRm: true, writesRd: true},
	MIN:  {name: "min", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},
	MAX:  {name: "max", class: ClassALU, readsRn: true, readsRm: true, writesRd: true},

	LDR:   {name: "ldr", class: ClassMem, readsRn: true, writesRd: true, isLoad: true},
	LDRB:  {name: "ldrb", class: ClassMem, readsRn: true, writesRd: true, isLoad: true},
	LDRH:  {name: "ldrh", class: ClassMem, readsRn: true, writesRd: true, isLoad: true},
	LDRSB: {name: "ldrsb", class: ClassMem, readsRn: true, writesRd: true, isLoad: true},
	LDRSH: {name: "ldrsh", class: ClassMem, readsRn: true, writesRd: true, isLoad: true},
	STR:   {name: "str", class: ClassMem, readsRn: true, readsRm: false, isStore: true},
	STRB:  {name: "strb", class: ClassMem, readsRn: true, isStore: true},
	STRH:  {name: "strh", class: ClassMem, readsRn: true, isStore: true},

	LDC: {name: "ldc", class: ClassLit, writesRd: true, isLoad: true},

	PUSH: {name: "push", class: ClassStack, isStore: true},
	POP:  {name: "pop", class: ClassStack, isLoad: true},

	B:   {name: "b", class: ClassBranch},
	BC:  {name: "b", class: ClassBranch},
	BL:  {name: "bl", class: ClassBranch},
	BX:  {name: "bx", class: ClassBranch, readsRm: true},
	SWI: {name: "swi", class: ClassTrap},

	NOP: {name: "nop", class: ClassNop},
}

// String returns the mnemonic of the operation.
func (op Op) String() string {
	if int(op) < NumOps {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Class returns the operation's class.
func (op Op) Class() Class { return opTable[op].class }

// IsLoad reports whether the operation reads data memory.
func (op Op) IsLoad() bool { return opTable[op].isLoad }

// IsBranch reports whether the operation may redirect control flow.
func (op Op) IsBranch() bool { return opTable[op].class == ClassBranch }

// IsCompare reports whether the operation only updates flags.
func (op Op) IsCompare() bool {
	return op == CMP || op == CMN || op == TST || op == TEQ
}

// WritesRd reports whether the operation produces a value in Rd.
func (op Op) WritesRd() bool { return opTable[op].writesRd }

// ReadsRn reports whether the operation consumes Rn.
func (op Op) ReadsRn() bool { return opTable[op].readsRn }

// ReadsRm reports whether the operation consumes Rm.
func (op Op) ReadsRm() bool { return opTable[op].readsRm }

// MemSize returns the access width in bytes of a load/store operation
// and 0 for everything else.
func (op Op) MemSize() int {
	switch op {
	case LDR, STR:
		return 4
	case LDRH, LDRSH, STRH:
		return 2
	case LDRB, LDRSB, STRB:
		return 1
	}
	return 0
}

// Instr is one semantic instruction. Field use depends on Op:
//
//   - ALU three-operand: Rd = Rn <op> operand2, where operand2 is Imm when
//     HasImm, else Rm shifted by (Shift, ShiftAmt) or by register Rs when
//     RegShift.
//   - MOV/MVN: Rd = operand2 (Rn unused).
//   - CMP/CMN/TST/TEQ: flags = Rn <op> operand2 (no Rd).
//   - MUL: Rd = Rm*Rs. MLA: Rd = Rm*Rs + Rn.
//   - Loads: Rd = mem[ea]; stores: mem[ea] = Rd (Rd doubles as the data
//     register for stores, matching ARM's Rd-as-source convention).
//   - LDC: Rd = Imm (full 32 bits).
//   - PUSH/POP: RegList bitmask, SP-relative.
//   - B/BC/BL: Target names a label, resolved to TargetIdx (instruction
//     index) by the assembler. BX: target address in Rm.
//   - SWI: Imm is the service number.
type Instr struct {
	Op       Op
	Cond     Cond
	SetFlags bool

	Rd, Rn, Rm, Rs Reg

	Imm    int32
	HasImm bool

	Shift    Shift
	ShiftAmt uint8
	RegShift bool // shift amount taken from Rs

	Mode    AddrMode
	RegList uint16

	Target    string
	TargetIdx int
}

// Predicated reports whether the instruction executes conditionally.
func (in *Instr) Predicated() bool { return in.Cond != AL }

// Uses reports the registers read by the instruction as a bitmask.
func (in *Instr) Uses() uint16 {
	var m uint16
	info := &opTable[in.Op]
	if info.readsRn {
		m |= 1 << in.Rn
	}
	if info.readsRm && !in.HasImm {
		m |= 1 << in.Rm
	}
	if info.readsRs || in.RegShift {
		m |= 1 << in.Rs
	}
	if info.isStore && in.Op.Class() == ClassMem {
		m |= 1 << in.Rd // store data register
	}
	if in.Op.Class() == ClassMem && in.Mode == AMOffReg {
		m |= 1 << in.Rm
	}
	if in.Op == PUSH {
		m |= in.RegList
		m |= 1 << SP
	}
	if in.Op == POP {
		m |= 1 << SP
	}
	if in.Op == BX {
		m |= 1 << in.Rm
	}
	return m
}

// Defs reports the registers written by the instruction as a bitmask.
func (in *Instr) Defs() uint16 {
	var m uint16
	if opTable[in.Op].writesRd {
		m |= 1 << in.Rd
	}
	if in.Op.Class() == ClassMem && in.Mode == AMPostImm {
		m |= 1 << in.Rn
	}
	if in.Op == POP {
		m |= in.RegList
		m |= 1 << SP
	}
	if in.Op == PUSH {
		m |= 1 << SP
	}
	if in.Op == BL {
		m |= 1 << LR
	}
	return m
}

// String renders the instruction in assembler-like syntax.
func (in Instr) String() string {
	mn := in.Op.String() + in.Cond.String()
	if in.SetFlags {
		mn += "s"
	}
	op2 := func() string {
		if in.HasImm {
			return fmt.Sprintf("#%d", in.Imm)
		}
		s := in.Rm.String()
		if in.RegShift {
			return fmt.Sprintf("%s %s %s", s, in.Shift, in.Rs)
		}
		if in.ShiftAmt != 0 {
			return fmt.Sprintf("%s %s #%d", s, in.Shift, in.ShiftAmt)
		}
		return s
	}
	switch in.Op.Class() {
	case ClassALU:
		switch {
		case in.Op == MOV || in.Op == MVN || in.Op == CLZ || in.Op == REV:
			return fmt.Sprintf("%s %s, %s", mn, in.Rd, op2())
		case in.Op.IsCompare():
			return fmt.Sprintf("%s %s, %s", mn, in.Rn, op2())
		default:
			return fmt.Sprintf("%s %s, %s, %s", mn, in.Rd, in.Rn, op2())
		}
	case ClassMul:
		if in.Op == MLA {
			return fmt.Sprintf("%s %s, %s, %s, %s", mn, in.Rd, in.Rm, in.Rs, in.Rn)
		}
		return fmt.Sprintf("%s %s, %s, %s", mn, in.Rd, in.Rm, in.Rs)
	case ClassMem:
		switch in.Mode {
		case AMOffReg:
			if in.ShiftAmt != 0 {
				return fmt.Sprintf("%s %s, [%s, %s lsl #%d]", mn, in.Rd, in.Rn, in.Rm, in.ShiftAmt)
			}
			return fmt.Sprintf("%s %s, [%s, %s]", mn, in.Rd, in.Rn, in.Rm)
		case AMPostImm:
			return fmt.Sprintf("%s %s, [%s], #%d", mn, in.Rd, in.Rn, in.Imm)
		default:
			return fmt.Sprintf("%s %s, [%s, #%d]", mn, in.Rd, in.Rn, in.Imm)
		}
	case ClassLit:
		return fmt.Sprintf("%s %s, =%d", mn, in.Rd, in.Imm)
	case ClassStack:
		var regs []string
		for r := Reg(0); r < NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				regs = append(regs, r.String())
			}
		}
		return fmt.Sprintf("%s {%s}", mn, strings.Join(regs, ", "))
	case ClassBranch:
		if in.Op == BX {
			return fmt.Sprintf("%s %s", mn, in.Rm)
		}
		if in.Target != "" {
			return fmt.Sprintf("%s %s", mn, in.Target)
		}
		return fmt.Sprintf("%s @%d", mn, in.TargetIdx)
	case ClassTrap:
		return fmt.Sprintf("%s #%d", mn, in.Imm)
	}
	return mn
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (in *Instr) Validate() error {
	if int(in.Op) >= NumOps {
		return fmt.Errorf("isa: invalid op %d", in.Op)
	}
	if in.Cond > AL {
		return fmt.Errorf("isa: invalid condition %d", in.Cond)
	}
	if in.Op == B && in.Cond != AL {
		return fmt.Errorf("isa: B must be unconditional (use BC)")
	}
	if in.Op == BC && in.Cond == AL {
		return fmt.Errorf("isa: BC requires a condition")
	}
	for _, r := range [...]Reg{in.Rd, in.Rn, in.Rm, in.Rs} {
		if !r.Valid() {
			return fmt.Errorf("isa: invalid register %d in %s", r, in)
		}
	}
	if in.ShiftAmt > 31 {
		return fmt.Errorf("isa: shift amount %d out of range", in.ShiftAmt)
	}
	if c := in.Op.Class(); (c == ClassBranch && in.Op != BX) && in.Target == "" && in.TargetIdx < 0 {
		return fmt.Errorf("isa: branch without target")
	}
	return nil
}
