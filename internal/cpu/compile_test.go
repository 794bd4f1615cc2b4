package cpu

import (
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// lockstepCompare runs two machines over the same program — one through
// the reference Step, one through stepCompiled — asserting identical
// architectural state after every instruction and identical fault
// behaviour at the end. Returns the executed instruction count.
func lockstepCompare(t *testing.T, p *program.Program, maxInstrs uint64) uint64 {
	t.Helper()
	l := WordLayout(p.TextBase, len(p.Instrs))
	mi := New(p, l)
	mc := New(p, l)
	defer mi.Release()
	defer mc.Release()
	mi.MaxInstrs = maxInstrs
	mc.MaxInstrs = maxInstrs
	c := Compile(p, l)
	if c.Program() != p {
		t.Fatal("compiled table does not reference its program")
	}
	if c.Layout() != l {
		t.Fatal("compiled table does not reference its layout")
	}

	for step := 0; ; step++ {
		ri, erri := mi.Step()
		rc, errc := mc.stepCompiled(c)
		if (erri == nil) != (errc == nil) {
			t.Fatalf("step %d: fault divergence: interpreted %v, compiled %v", step, erri, errc)
		}
		if erri != nil {
			if erri.Error() != errc.Error() {
				t.Fatalf("step %d: fault identity:\ninterpreted: %v\ncompiled:    %v", step, erri, errc)
			}
			break
		}
		if ri != rc {
			t.Fatalf("step %d: StepResult divergence: interpreted %+v, compiled %+v", step, ri, rc)
		}
		if mi.Regs != mc.Regs {
			t.Fatalf("step %d: register divergence:\ninterpreted %v\ncompiled    %v", step, mi.Regs, mc.Regs)
		}
		if mi.N != mc.N || mi.Z != mc.Z || mi.C != mc.C || mi.V != mc.V {
			t.Fatalf("step %d: flag divergence: interpreted NZCV=%v%v%v%v compiled %v%v%v%v",
				step, mi.N, mi.Z, mi.C, mi.V, mc.N, mc.Z, mc.C, mc.V)
		}
		if mi.PCIdx != mc.PCIdx || mi.Halted != mc.Halted || mi.InstrCount != mc.InstrCount {
			t.Fatalf("step %d: control divergence: PC %d/%d halted %v/%v count %d/%d",
				step, mi.PCIdx, mc.PCIdx, mi.Halted, mc.Halted, mi.InstrCount, mc.InstrCount)
		}
		if mi.Halted {
			break
		}
	}
	checkCoverage(t, mi)
	checkCoverage(t, mc)
	if !mi.MemEqual(mc) {
		t.Fatal("memory divergence after run")
	}
	if len(mi.Output) != len(mc.Output) {
		t.Fatalf("output length divergence: %d vs %d", len(mi.Output), len(mc.Output))
	}
	for i := range mi.Output {
		if mi.Output[i] != mc.Output[i] {
			t.Fatalf("output[%d] divergence: %#x vs %#x", i, mi.Output[i], mc.Output[i])
		}
	}
	return mi.InstrCount
}

// edgeProgram hand-emits the corners the builder helpers do not reach:
// flag-setting shifted logicals, TEQ/CMN, register shifts whose dynamic
// amount crosses the 32 boundary, ROR by multiples of 32, ADC/SBC with
// both carry states, predicated everything, and MVN/BIC S forms.
func edgeProgram() *program.Program {
	b := asm.New("edge")
	b.Func("main")
	b.MovImm32(isa.R1, 0x80000001)
	b.MovImm32(isa.R2, 0xfffffffe)
	b.MovI(isa.R3, 31)
	b.MovI(isa.R4, 32)
	b.MovI(isa.R5, 33)
	b.MovI(isa.R6, 64)
	b.MovI(isa.R7, 0)
	alu := func(op isa.Op, s bool, sh isa.Shift, amt uint8, regShift bool, rs isa.Reg) {
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, SetFlags: s,
			Rd: isa.R8, Rn: isa.R1, Rm: isa.R2, Rs: rs,
			Shift: sh, ShiftAmt: amt, RegShift: regShift})
	}
	// Baked immediate shifts, 1..31, every kind, S and plain.
	for _, sh := range []isa.Shift{isa.LSL, isa.LSR, isa.ASR, isa.ROR} {
		for _, amt := range []uint8{1, 15, 31} {
			for _, op := range []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.ORR, isa.EOR, isa.BIC, isa.MOV, isa.MVN} {
				alu(op, false, sh, amt, false, 0)
				alu(op, true, sh, amt, false, 0)
			}
		}
	}
	// Register shifts: dynamic amounts 0, 31, 32, 33, 64 for every kind.
	for _, sh := range []isa.Shift{isa.LSL, isa.LSR, isa.ASR, isa.ROR} {
		for _, rs := range []isa.Reg{isa.R7, isa.R3, isa.R4, isa.R5, isa.R6} {
			for _, op := range []isa.Op{isa.ADD, isa.RSB, isa.EOR, isa.MOV, isa.MVN} {
				alu(op, false, sh, 0, true, rs)
				alu(op, true, sh, 0, true, rs)
			}
		}
	}
	// Compares and flag-only ops in every operand form.
	for _, op := range []isa.Op{isa.CMP, isa.CMN, isa.TST, isa.TEQ} {
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rn: isa.R1, Imm: 0x55, HasImm: true})
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rn: isa.R1, Rm: isa.R2})
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rn: isa.R1, Rm: isa.R2, Shift: isa.LSR, ShiftAmt: 3})
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rn: isa.R1, Rm: isa.R2, Shift: isa.ROR, RegShift: true, Rs: isa.R4})
	}
	// ADC/SBC around both carry states, immediate and register forms.
	for _, op := range []isa.Op{isa.ADC, isa.SBC} {
		b.CmpI(isa.R7, 1) // 0 - 1: clears C
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: isa.R8, Rn: isa.R1, Imm: 7, HasImm: true})
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, SetFlags: true, Rd: isa.R8, Rn: isa.R1, Rm: isa.R2})
		b.CmpI(isa.R7, 0) // 0 - 0: sets C
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, Rd: isa.R8, Rn: isa.R1, Imm: 7, HasImm: true})
		b.Emit(isa.Instr{Op: op, Cond: isa.AL, SetFlags: true, Rd: isa.R8, Rn: isa.R1, Rm: isa.R2})
	}
	// Predication over both outcomes of every condition.
	for c := isa.Cond(0); c < isa.AL; c++ {
		b.MovIIf(c, isa.R9, int32(c)+1)
	}
	// Saturating/bit ops and multiplies.
	b.Qadd(isa.R8, isa.R1, isa.R2)
	b.Qsub(isa.R8, isa.R1, isa.R2)
	b.Clz(isa.R8, isa.R7)
	b.Clz(isa.R8, isa.R1)
	b.Rev(isa.R8, isa.R1)
	b.Min(isa.R8, isa.R1, isa.R2)
	b.Max(isa.R8, isa.R1, isa.R2)
	b.Mul(isa.R8, isa.R1, isa.R2)
	b.Emit(isa.Instr{Op: isa.MUL, Cond: isa.AL, SetFlags: true, Rd: isa.R8, Rm: isa.R1, Rs: isa.R2})
	b.Mla(isa.R8, isa.R1, isa.R2, isa.R3)
	b.Emit(isa.Instr{Op: isa.MLA, Cond: isa.AL, SetFlags: true, Rd: isa.R8, Rm: isa.R1, Rs: isa.R2, Rn: isa.R3})
	b.EmitWord()
	b.Exit()
	return b.MustBuild()
}

// TestCompiledStepEquivalence locksteps stepCompiled against the
// reference Step over the decode-dimension program and the hand-built edge-case
// program, asserting identical registers, flags, memory, PC, halt state
// and outputs after every single instruction.
func TestCompiledStepEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *program.Program
	}{
		{"mixed", mixedProgram()},
		{"edge", edgeProgram()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := lockstepCompare(t, tc.p, 1e6); n == 0 {
				t.Fatal("no instructions executed")
			}
		})
	}
}

// TestCompiledFaultIdentity pins fault equivalence: the compiled path
// must fail on the same instruction with the same rendered error as the
// interpreter, and leave the same architectural state behind.
func TestCompiledFaultIdentity(t *testing.T) {
	build := func(f func(b *asm.Builder)) *program.Program {
		b := asm.New("fault")
		b.Zero("buf", 64)
		b.Func("main")
		b.Lea(isa.R1, "buf")
		f(b)
		b.Exit()
		return b.MustBuild()
	}
	cases := []struct {
		name string
		p    *program.Program
		max  uint64
	}{
		{"misaligned load", build(func(b *asm.Builder) {
			b.AddI(isa.R1, isa.R1, 1)
			b.Ldr(isa.R0, isa.R1, 0)
		}), 0},
		{"out of range store", build(func(b *asm.Builder) {
			b.MovI(isa.R2, -4)
			b.Str(isa.R0, isa.R2, 0)
		}), 0},
		{"unknown swi", build(func(b *asm.Builder) {
			b.Swi(99)
		}), 0},
		{"bx to bad address", build(func(b *asm.Builder) {
			b.MovI(isa.R0, 3)
			b.Emit(isa.Instr{Op: isa.BX, Cond: isa.AL, Rm: isa.R0})
		}), 0},
		{"budget exhausted", build(func(b *asm.Builder) {
			b.Label("spin")
			b.B("spin")
		}), 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lockstepCompare(t, tc.p, tc.max)
		})
	}
}

// TestCompiledMismatchRejected mirrors TestDecodedMismatchRejected: a
// compiled table built from one program cannot drive a machine running
// another, and a nil table is rejected rather than dereferenced. check
// is the guard every exported entry point runs first.
func TestCompiledMismatchRejected(t *testing.T) {
	p1, p2 := straightLine(4), mixedProgram()
	l1 := WordLayout(p1.TextBase, len(p1.Instrs))
	m := New(p1, l1)
	defer m.Release()
	if err := Compile(p2, WordLayout(p2.TextBase, len(p2.Instrs))).check(m); err == nil {
		t.Error("a foreign table passed the check")
	}
	if err := (*Compiled)(nil).check(m); err == nil {
		t.Error("a nil table passed the check")
	}
	if err := Compile(p1, l1).check(m); err != nil {
		t.Errorf("the machine's own table failed the check: %v", err)
	}
}

// FuzzCompiledVsStep drives randomized instruction streams (the
// internal/asm fuzz-harness recipe, widened to cover predication,
// register shifts, stack ops, stores through any address and pushes
// across 64 KiB chunk boundaries) through the reference Step and
// stepCompiled in lockstep, and through the reference and the
// superblock executor as whole runs. Any accepted program must produce
// bit-identical architectural state per instruction and identical fault
// strings, and every executor's dirty mask must cover what it wrote
// (checkCoverage).
func FuzzCompiledVsStep(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0x00, 0x7A, 0x33, 9, 9, 9, 1})
	f.Add([]byte{16, 200, 3, 77, 60, 1, 2, 250, 90, 90, 13, 13})
	f.Add([]byte{16, 255, 2, 255, 34, 7, 1, 0, 17, 4, 0, 2, 17, 31, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		b := asm.New("fuzz")
		b.Zero("buf", 256)
		b.Func("main")
		b.Lea(isa.R1, "buf")
		for i := 0; i+4 <= len(raw) && i < 96; i += 4 {
			op, a, c, d := raw[i], raw[i+1], raw[i+2], raw[i+3]
			rd := isa.Reg(a % 11)
			rn := isa.Reg(c % 11)
			imm := int32(d)
			switch op % 18 {
			case 0:
				b.AddI(rd, rn, imm)
			case 1:
				b.Eor(rd, rn, isa.Reg(d%11))
			case 2:
				b.Lsr(rd, rn, d%32)
			case 3:
				b.Ldrb(rd, isa.R1, imm%250)
			case 4:
				b.Strb(rd, isa.R1, imm%250)
			case 5:
				b.Mul(rd, rn, isa.Reg(d%11))
			case 6:
				b.CmpI(rn, imm)
			case 7:
				b.MovIIf(isa.Cond(d%14), rd, imm)
			case 8:
				b.OpShift(isa.Op(d%9), rd, rn, isa.Reg(a%11), isa.Shift(c%4), d%32)
			case 9:
				b.LslR(rd, rn, isa.Reg(d%11))
			case 10:
				b.Subs(rd, rn, isa.Reg(d%11))
			case 11:
				b.Ldr(rd, isa.R1, (imm%62)*4)
			case 12:
				b.Str(rd, isa.R1, (imm%62)*4)
			case 13:
				b.Push(isa.R0, rd&7)
				b.Pop(isa.R0, rd&7)
			case 14:
				b.IfI(isa.Cond(d%14), isa.Op(a%9), rd, rn, imm)
			case 15:
				b.Qadd(rd, rn, isa.Reg(d%11))
			case 16:
				// A store through an unconstrained base: text, data,
				// stack, either side of a chunk boundary; faults are fine.
				b.MovImm32(isa.R12, uint32(a)<<13|uint32(d)<<5|uint32(c)&31)
				b.Mem([]isa.Op{isa.STR, isa.STRB, isa.STRH}[c%3], rd, isa.R12, 0)
			default:
				// A push whose span straddles a chunk boundary.
				b.MovImm32(isa.SP, uint32(a%31+1)<<16|uint32(d%3)*4)
				b.Push(isa.R0, rd&7, isa.R8)
			}
		}
		b.EmitWord()
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return
		}
		lockstepCompare(t, p, 100000)
		superblockCompare(t, p, 100000)
	})
}
