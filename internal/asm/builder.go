// Package asm provides the assembler/builder used to author workloads in
// the semantic IR: mnemonic helpers, labels, functions, a data segment
// with symbols, and resolution of branch targets and symbol addresses.
package asm

import (
	"encoding/binary"
	"fmt"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// Builder accumulates instructions and data for one program. Helper
// methods record the first error and subsequent calls become no-ops, so
// kernel code can be written without per-line error checks; Build
// returns the recorded error.
type Builder struct {
	name   string
	instrs []isa.Instr
	funcs  []program.Func
	labels map[string]int // label -> instruction index

	data    []byte
	symbols map[string]uint32 // symbol -> data offset (rebased at Build)

	// symRefs are LDC instructions whose Imm must be patched with a
	// symbol's absolute address.
	symRefs map[int]string

	curFunc  string
	fnStart  int
	inFunc   bool
	firstErr error
}

// New returns an empty builder for a program with the given name.
func New(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		symbols: make(map[string]uint32),
		symRefs: make(map[int]string),
	}
}

func (b *Builder) errf(format string, args ...any) {
	if b.firstErr == nil {
		b.firstErr = fmt.Errorf("asm %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Emit appends a raw instruction. Prefer the mnemonic helpers.
func (b *Builder) Emit(in isa.Instr) {
	if b.firstErr != nil {
		return
	}
	if !b.inFunc {
		b.errf("instruction emitted outside a function")
		return
	}
	in.TargetIdx = -1
	b.instrs = append(b.instrs, in)
}

// Func begins a new function. The previous function (if any) is closed.
func (b *Builder) Func(name string) {
	if b.firstErr != nil {
		return
	}
	b.closeFunc()
	b.curFunc = name
	b.fnStart = len(b.instrs)
	b.inFunc = true
	b.Label(name)
}

func (b *Builder) closeFunc() {
	if !b.inFunc {
		return
	}
	if len(b.instrs) == b.fnStart {
		b.errf("function %q is empty", b.curFunc)
		return
	}
	b.funcs = append(b.funcs, program.Func{Name: b.curFunc, Start: b.fnStart, End: len(b.instrs)})
	b.inFunc = false
}

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if b.firstErr != nil {
		return
	}
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.instrs)
}

// ---- Data segment ----

func (b *Builder) defineSymbol(name string) {
	if _, dup := b.symbols[name]; dup {
		b.errf("duplicate symbol %q", name)
		return
	}
	b.symbols[name] = uint32(len(b.data))
}

func (b *Builder) align(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

// Bytes defines a byte-array symbol in the data segment.
func (b *Builder) Bytes(name string, v []byte) {
	if b.firstErr != nil {
		return
	}
	b.defineSymbol(name)
	b.data = append(b.data, v...)
}

// Words defines a 32-bit word-array symbol (little-endian, 4-aligned).
func (b *Builder) Words(name string, v []uint32) {
	if b.firstErr != nil {
		return
	}
	b.align(4)
	b.defineSymbol(name)
	for _, w := range v {
		b.data = binary.LittleEndian.AppendUint32(b.data, w)
	}
}

// Words32 defines a word-array symbol from signed values.
func (b *Builder) Words32(name string, v []int32) {
	u := make([]uint32, len(v))
	for i, x := range v {
		u[i] = uint32(x)
	}
	b.Words(name, u)
}

// Halfs defines a 16-bit halfword-array symbol (2-aligned).
func (b *Builder) Halfs(name string, v []uint16) {
	if b.firstErr != nil {
		return
	}
	b.align(2)
	b.defineSymbol(name)
	for _, h := range v {
		b.data = binary.LittleEndian.AppendUint16(b.data, h)
	}
}

// Zero reserves n zeroed bytes under a symbol (4-aligned).
func (b *Builder) Zero(name string, n int) {
	if b.firstErr != nil {
		return
	}
	b.align(4)
	b.defineSymbol(name)
	b.data = append(b.data, make([]byte, n)...)
}

// ---- ALU helpers ----

// ALU emits a three-register data-processing instruction.
func (b *Builder) ALU(op isa.Op, rd, rn, rm isa.Reg) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: rd, Rn: rn, Rm: rm})
}

// ALUI emits a data-processing instruction with an immediate operand 2.
// The immediate must be ARM-encodable (checked at encode time).
func (b *Builder) ALUI(op isa.Op, rd, rn isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: rd, Rn: rn, Imm: imm, HasImm: true})
}

// ALUS is ALU with the S (set flags) bit.
func (b *Builder) ALUS(op isa.Op, rd, rn, rm isa.Reg) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, SetFlags: true, Rd: rd, Rn: rn, Rm: rm})
}

// ALUIS is ALUI with the S bit.
func (b *Builder) ALUIS(op isa.Op, rd, rn isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, SetFlags: true, Rd: rd, Rn: rn, Imm: imm, HasImm: true})
}

// Add emits rd = rn + rm; AddI the immediate form, and so on for the
// other data-processing operations.
func (b *Builder) Add(rd, rn, rm isa.Reg)          { b.ALU(isa.ADD, rd, rn, rm) }
func (b *Builder) AddI(rd, rn isa.Reg, imm int32)  { b.aluSigned(isa.ADD, isa.SUB, rd, rn, imm) }
func (b *Builder) Sub(rd, rn, rm isa.Reg)          { b.ALU(isa.SUB, rd, rn, rm) }
func (b *Builder) SubI(rd, rn isa.Reg, imm int32)  { b.aluSigned(isa.SUB, isa.ADD, rd, rn, imm) }
func (b *Builder) Subs(rd, rn, rm isa.Reg)         { b.ALUS(isa.SUB, rd, rn, rm) }
func (b *Builder) SubsI(rd, rn isa.Reg, imm int32) { b.ALUIS(isa.SUB, rd, rn, imm) }
func (b *Builder) And(rd, rn, rm isa.Reg)          { b.ALU(isa.AND, rd, rn, rm) }
func (b *Builder) AndI(rd, rn isa.Reg, imm int32)  { b.ALUI(isa.AND, rd, rn, imm) }
func (b *Builder) Orr(rd, rn, rm isa.Reg)          { b.ALU(isa.ORR, rd, rn, rm) }
func (b *Builder) OrrI(rd, rn isa.Reg, imm int32)  { b.ALUI(isa.ORR, rd, rn, imm) }
func (b *Builder) Eor(rd, rn, rm isa.Reg)          { b.ALU(isa.EOR, rd, rn, rm) }
func (b *Builder) EorI(rd, rn isa.Reg, imm int32)  { b.ALUI(isa.EOR, rd, rn, imm) }

// aluSigned flips op/alt when the immediate is negative, matching how
// assemblers accept "add rd, rn, #-4".
func (b *Builder) aluSigned(op, alt isa.Op, rd, rn isa.Reg, imm int32) {
	if imm < 0 {
		op, imm = alt, -imm
	}
	b.ALUI(op, rd, rn, imm)
}

// Mov emits rd = rm.
func (b *Builder) Mov(rd, rm isa.Reg) {
	b.Emit(isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: rd, Rm: rm})
}

// MovI emits rd = imm; imm must be ARM-encodable (use MovImm32 for
// arbitrary constants).
func (b *Builder) MovI(rd isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: rd, Imm: imm, HasImm: true})
}

// Mvn emits rd = ^rm.
func (b *Builder) Mvn(rd, rm isa.Reg) {
	b.Emit(isa.Instr{Op: isa.MVN, Cond: isa.AL, Rd: rd, Rm: rm})
}

// MovImm32 materialises an arbitrary 32-bit constant using the cheapest
// form: MOV #imm, MVN #imm, or an LDC literal-pool load.
func (b *Builder) MovImm32(rd isa.Reg, v uint32) {
	if _, _, ok := encodableImm(v); ok {
		b.MovI(rd, int32(v))
		return
	}
	if _, _, ok := encodableImm(^v); ok {
		b.Emit(isa.Instr{Op: isa.MVN, Cond: isa.AL, Rd: rd, Imm: int32(^v), HasImm: true})
		return
	}
	b.Ldc(rd, int32(v))
}

// encodableImm mirrors arm.EncodableImm without importing the target
// package (asm must stay target-neutral).
func encodableImm(v uint32) (rot, imm8 uint32, ok bool) {
	for r := uint32(0); r < 16; r++ {
		x := v
		if r != 0 {
			x = v<<(2*r) | v>>(32-2*r)
		}
		if x <= 0xff {
			return r, x, true
		}
	}
	return 0, 0, false
}

// Cmp emits flags = rn - rm; CmpI the immediate form (negative
// immediates become CMN).
func (b *Builder) Cmp(rn, rm isa.Reg) {
	b.Emit(isa.Instr{Op: isa.CMP, Cond: isa.AL, Rn: rn, Rm: rm})
}

func (b *Builder) CmpI(rn isa.Reg, imm int32) {
	op := isa.CMP
	if imm < 0 {
		op, imm = isa.CMN, -imm
	}
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rn: rn, Imm: imm, HasImm: true})
}

// TstI emits flags = rn & imm.
func (b *Builder) TstI(rn isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.TST, Cond: isa.AL, Rn: rn, Imm: imm, HasImm: true})
}

// Shift instructions (MOV with barrel shift).
func (b *Builder) Lsl(rd, rm isa.Reg, amt uint8) { b.shift(isa.LSL, rd, rm, amt) }
func (b *Builder) Lsr(rd, rm isa.Reg, amt uint8) { b.shift(isa.LSR, rd, rm, amt) }
func (b *Builder) Asr(rd, rm isa.Reg, amt uint8) { b.shift(isa.ASR, rd, rm, amt) }
func (b *Builder) Ror(rd, rm isa.Reg, amt uint8) { b.shift(isa.ROR, rd, rm, amt) }

func (b *Builder) shift(s isa.Shift, rd, rm isa.Reg, amt uint8) {
	if amt == 0 {
		b.Mov(rd, rm)
		return
	}
	b.Emit(isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: rd, Rm: rm, Shift: s, ShiftAmt: amt})
}

// Register-amount shifts: rd = rm <shift> rs.
func (b *Builder) LslR(rd, rm, rs isa.Reg) { b.shiftR(isa.LSL, rd, rm, rs) }
func (b *Builder) LsrR(rd, rm, rs isa.Reg) { b.shiftR(isa.LSR, rd, rm, rs) }

func (b *Builder) shiftR(s isa.Shift, rd, rm, rs isa.Reg) {
	b.Emit(isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: rd, Rm: rm, Shift: s, Rs: rs, RegShift: true})
}

// AddShift emits rd = rn + (rm <shift> amt); the general shifted-operand
// form, also available for SUB/RSB/AND/ORR/EOR/BIC via OpShift.
func (b *Builder) AddShift(rd, rn, rm isa.Reg, s isa.Shift, amt uint8) {
	b.OpShift(isa.ADD, rd, rn, rm, s, amt)
}

func (b *Builder) OpShift(op isa.Op, rd, rn, rm isa.Reg, s isa.Shift, amt uint8) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: rd, Rn: rn, Rm: rm, Shift: s, ShiftAmt: amt})
}

// Mul emits rd = rm * rs; Mla emits rd = rm*rs + rn.
func (b *Builder) Mul(rd, rm, rs isa.Reg) {
	b.Emit(isa.Instr{Op: isa.MUL, Cond: isa.AL, Rd: rd, Rm: rm, Rs: rs})
}

func (b *Builder) Mla(rd, rm, rs, rn isa.Reg) {
	b.Emit(isa.Instr{Op: isa.MLA, Cond: isa.AL, Rd: rd, Rm: rm, Rs: rs, Rn: rn})
}

// Datapath extensions.
func (b *Builder) Qadd(rd, rn, rm isa.Reg) { b.ALU(isa.QADD, rd, rn, rm) }
func (b *Builder) Qsub(rd, rn, rm isa.Reg) { b.ALU(isa.QSUB, rd, rn, rm) }
func (b *Builder) Min(rd, rn, rm isa.Reg)  { b.ALU(isa.MIN, rd, rn, rm) }
func (b *Builder) Max(rd, rn, rm isa.Reg)  { b.ALU(isa.MAX, rd, rn, rm) }

func (b *Builder) Clz(rd, rm isa.Reg) {
	b.Emit(isa.Instr{Op: isa.CLZ, Cond: isa.AL, Rd: rd, Rm: rm})
}

func (b *Builder) Rev(rd, rm isa.Reg) {
	b.Emit(isa.Instr{Op: isa.REV, Cond: isa.AL, Rd: rd, Rm: rm})
}

// ---- Predicated forms ----

// If emits a conditional three-register ALU operation.
func (b *Builder) If(c isa.Cond, op isa.Op, rd, rn, rm isa.Reg) {
	b.Emit(isa.Instr{Op: op, Cond: c, Rd: rd, Rn: rn, Rm: rm})
}

// IfI emits a conditional immediate ALU operation.
func (b *Builder) IfI(c isa.Cond, op isa.Op, rd, rn isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: op, Cond: c, Rd: rd, Rn: rn, Imm: imm, HasImm: true})
}

// OpShiftIf emits a conditional ALU operation with a shifted register
// operand: rd = rn <op> (rm <shift> amt) when c holds.
func (b *Builder) OpShiftIf(c isa.Cond, op isa.Op, rd, rn, rm isa.Reg, s isa.Shift, amt uint8) {
	b.Emit(isa.Instr{Op: op, Cond: c, Rd: rd, Rn: rn, Rm: rm, Shift: s, ShiftAmt: amt})
}

// MovIIf emits a conditional immediate move.
func (b *Builder) MovIIf(c isa.Cond, rd isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.MOV, Cond: c, Rd: rd, Imm: imm, HasImm: true})
}

// AddIIf emits a conditional immediate add.
func (b *Builder) AddIIf(c isa.Cond, rd, rn isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.ADD, Cond: c, Rd: rd, Rn: rn, Imm: imm, HasImm: true})
}

// ---- Memory ----

// Mem emits a load/store with an immediate offset: op rd, [rn, #off].
func (b *Builder) Mem(op isa.Op, rd, rn isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: rd, Rn: rn, Imm: off, Mode: isa.AMOffImm})
}

// MemReg emits op rd, [rn, rm lsl #amt].
func (b *Builder) MemReg(op isa.Op, rd, rn, rm isa.Reg, lsl uint8) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: rd, Rn: rn, Rm: rm, ShiftAmt: lsl, Mode: isa.AMOffReg})
}

// MemPost emits op rd, [rn], #inc (post-index with writeback).
func (b *Builder) MemPost(op isa.Op, rd, rn isa.Reg, inc int32) {
	b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: rd, Rn: rn, Imm: inc, Mode: isa.AMPostImm})
}

func (b *Builder) Ldr(rd, rn isa.Reg, off int32)  { b.Mem(isa.LDR, rd, rn, off) }
func (b *Builder) Ldrb(rd, rn isa.Reg, off int32) { b.Mem(isa.LDRB, rd, rn, off) }
func (b *Builder) Ldrh(rd, rn isa.Reg, off int32) { b.Mem(isa.LDRH, rd, rn, off) }
func (b *Builder) Str(rd, rn isa.Reg, off int32)  { b.Mem(isa.STR, rd, rn, off) }
func (b *Builder) Strb(rd, rn isa.Reg, off int32) { b.Mem(isa.STRB, rd, rn, off) }
func (b *Builder) Strh(rd, rn isa.Reg, off int32) { b.Mem(isa.STRH, rd, rn, off) }

// Ldc loads an arbitrary 32-bit constant via the literal mechanism.
func (b *Builder) Ldc(rd isa.Reg, v int32) {
	b.Emit(isa.Instr{Op: isa.LDC, Cond: isa.AL, Rd: rd, Imm: v, HasImm: true})
}

// Lea loads the absolute address of a data symbol (resolved at Build).
func (b *Builder) Lea(rd isa.Reg, symbol string) {
	b.Emit(isa.Instr{Op: isa.LDC, Cond: isa.AL, Rd: rd, HasImm: true})
	if b.firstErr == nil {
		b.symRefs[len(b.instrs)-1] = symbol
	}
}

// ---- Stack ----

// regMask converts a register list to a PUSH/POP bitmask.
func regMask(regs []isa.Reg) uint16 {
	var m uint16
	for _, r := range regs {
		m |= 1 << r
	}
	return m
}

// Push saves registers to the stack (descending, like STMDB sp!).
func (b *Builder) Push(regs ...isa.Reg) {
	b.Emit(isa.Instr{Op: isa.PUSH, Cond: isa.AL, RegList: regMask(regs)})
}

// Pop restores registers from the stack (ascending, like LDMIA sp!).
func (b *Builder) Pop(regs ...isa.Reg) {
	b.Emit(isa.Instr{Op: isa.POP, Cond: isa.AL, RegList: regMask(regs)})
}

// ---- Control flow ----

// B emits an unconditional branch to a label.
func (b *Builder) B(label string) {
	b.Emit(isa.Instr{Op: isa.B, Cond: isa.AL, Target: label})
}

// Bc emits a conditional branch.
func (b *Builder) Bc(c isa.Cond, label string) {
	if c == isa.AL {
		b.B(label)
		return
	}
	b.Emit(isa.Instr{Op: isa.BC, Cond: c, Target: label})
}

func (b *Builder) Beq(label string) { b.Bc(isa.EQ, label) }
func (b *Builder) Bne(label string) { b.Bc(isa.NE, label) }
func (b *Builder) Blt(label string) { b.Bc(isa.LT, label) }
func (b *Builder) Ble(label string) { b.Bc(isa.LE, label) }
func (b *Builder) Bgt(label string) { b.Bc(isa.GT, label) }
func (b *Builder) Bge(label string) { b.Bc(isa.GE, label) }
func (b *Builder) Bcs(label string) { b.Bc(isa.CS, label) }

// Bl emits a call to a function label.
func (b *Builder) Bl(fn string) {
	b.Emit(isa.Instr{Op: isa.BL, Cond: isa.AL, Target: fn})
}

// Ret emits a return (BX lr).
func (b *Builder) Ret() {
	b.Emit(isa.Instr{Op: isa.BX, Cond: isa.AL, Rm: isa.LR})
}

// Swi emits a software interrupt with the given service number.
func (b *Builder) Swi(n int32) {
	b.Emit(isa.Instr{Op: isa.SWI, Cond: isa.AL, Imm: n, HasImm: true})
}

// Exit emits the program-exit trap (SWI 0).
func (b *Builder) Exit() { b.Swi(0) }

// EmitWord emits the "output a word" trap (SWI 1, value in r0), used by
// kernels to report checksums.
func (b *Builder) EmitWord() { b.Swi(1) }

// ---- Build ----

// Build resolves labels and symbols and returns the completed program.
func (b *Builder) Build() (*program.Program, error) {
	if b.firstErr != nil {
		return nil, b.firstErr
	}
	b.closeFunc()
	if b.firstErr != nil {
		return nil, b.firstErr
	}
	p := &program.Program{
		Name:     b.name,
		Instrs:   b.instrs,
		Funcs:    b.funcs,
		Data:     b.data,
		TextBase: program.DefaultTextBase,
		DataBase: program.DefaultDataBase,
		Symbols:  make(map[string]uint32, len(b.symbols)),
		Entry:    0,
	}
	for name, off := range b.symbols {
		p.Symbols[name] = p.DataBase + off
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if sym, ok := b.symRefs[i]; ok {
			addr, found := p.Symbols[sym]
			if !found {
				return nil, fmt.Errorf("asm %s: undefined symbol %q", b.name, sym)
			}
			in.Imm = int32(addr)
		}
		if in.Op.IsBranch() && in.Op != isa.BX {
			idx, ok := b.labels[in.Target]
			if !ok {
				return nil, fmt.Errorf("asm %s: undefined label %q", b.name, in.Target)
			}
			in.TargetIdx = idx
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build but panics on error; intended for the kernel
// registry whose programs are fixed at compile time.
func (b *Builder) MustBuild() *program.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
