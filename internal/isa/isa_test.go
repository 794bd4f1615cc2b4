package isa

import (
	"strings"
	"testing"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		R0: "r0", R7: "r7", R12: "r12", SP: "sp", LR: "lr", PC: "pc",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}

func TestCondInverse(t *testing.T) {
	pairs := [][2]Cond{{EQ, NE}, {CS, CC}, {MI, PL}, {VS, VC}, {HI, LS}, {GE, LT}, {GT, LE}}
	for _, p := range pairs {
		if p[0].Inverse() != p[1] || p[1].Inverse() != p[0] {
			t.Errorf("inverse pair %v broken", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AL.Inverse() should panic")
		}
	}()
	AL.Inverse()
}

func TestOpMetadata(t *testing.T) {
	if !LDR.IsLoad() || STR.IsLoad() {
		t.Error("load flags wrong")
	}
	if !B.IsBranch() || !BX.IsBranch() || ADD.IsBranch() {
		t.Error("branch classification wrong")
	}
	for _, op := range []Op{CMP, CMN, TST, TEQ} {
		if !op.IsCompare() || op.WritesRd() {
			t.Errorf("%s compare metadata wrong", op)
		}
	}
	if MemSizes := map[Op]int{LDR: 4, STR: 4, LDRH: 2, STRH: 2, LDRSH: 2, LDRB: 1, STRB: 1, LDRSB: 1, ADD: 0}; true {
		for op, want := range MemSizes {
			if got := op.MemSize(); got != want {
				t.Errorf("%s.MemSize() = %d, want %d", op, got, want)
			}
		}
	}
	// Every op has a name and a class.
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestUsesDefs(t *testing.T) {
	add := Instr{Op: ADD, Cond: AL, Rd: R0, Rn: R1, Rm: R2}
	if add.Uses() != 1<<R1|1<<R2 {
		t.Errorf("add uses = %#x", add.Uses())
	}
	if add.Defs() != 1<<R0 {
		t.Errorf("add defs = %#x", add.Defs())
	}

	str := Instr{Op: STR, Cond: AL, Rd: R3, Rn: R4, Mode: AMOffImm}
	if str.Uses()&(1<<R3) == 0 || str.Uses()&(1<<R4) == 0 {
		t.Errorf("str must read data and base registers: %#x", str.Uses())
	}
	if str.Defs() != 0 {
		t.Errorf("plain str defines nothing, got %#x", str.Defs())
	}

	post := Instr{Op: LDR, Cond: AL, Rd: R3, Rn: R4, Mode: AMPostImm, Imm: 4}
	if post.Defs() != 1<<R3|1<<R4 {
		t.Errorf("post-index load must define rd and writeback base: %#x", post.Defs())
	}

	push := Instr{Op: PUSH, Cond: AL, RegList: 1<<R4 | 1<<LR}
	if push.Uses()&(1<<R4) == 0 || push.Uses()&(1<<LR) == 0 || push.Uses()&(1<<SP) == 0 {
		t.Errorf("push uses = %#x", push.Uses())
	}
	if push.Defs() != 1<<SP {
		t.Errorf("push defs = %#x", push.Defs())
	}

	pop := Instr{Op: POP, Cond: AL, RegList: 1<<R4 | 1<<LR}
	if pop.Defs()&(1<<R4) == 0 || pop.Defs()&(1<<LR) == 0 || pop.Defs()&(1<<SP) == 0 {
		t.Errorf("pop defs = %#x", pop.Defs())
	}

	bl := Instr{Op: BL, Cond: AL, TargetIdx: 0}
	if bl.Defs() != 1<<LR {
		t.Errorf("bl defs = %#x", bl.Defs())
	}

	mla := Instr{Op: MLA, Cond: AL, Rd: R0, Rn: R1, Rm: R2, Rs: R3}
	if mla.Uses() != 1<<R1|1<<R2|1<<R3 {
		t.Errorf("mla uses = %#x", mla.Uses())
	}

	regShift := Instr{Op: MOV, Cond: AL, Rd: R0, Rm: R1, RegShift: true, Rs: R2}
	if regShift.Uses()&(1<<R2) == 0 {
		t.Errorf("register shift must read the amount register: %#x", regShift.Uses())
	}
}

func TestInstrValidate(t *testing.T) {
	good := Instr{Op: ADD, Cond: AL, Rd: R0, Rn: R1, Rm: R2, TargetIdx: -1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instr rejected: %v", err)
	}
	bad := []Instr{
		{Op: B, Cond: EQ, TargetIdx: 0},                  // B must be unconditional
		{Op: BC, Cond: AL, TargetIdx: 0},                 // BC needs a condition
		{Op: ADD, Cond: AL, Rd: 99, TargetIdx: -1},       // invalid register
		{Op: B, Cond: AL, TargetIdx: -1},                 // branch without target
		{Op: ADD, Cond: AL, ShiftAmt: 40, TargetIdx: -1}, // shift out of range
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instr %d (%s) accepted", i, in)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: ADD, Cond: AL, Rd: R0, Rn: R1, Rm: R2}, "add r0, r1, r2"},
		{Instr{Op: ADD, Cond: EQ, Rd: R0, Rn: R1, Imm: 4, HasImm: true}, "addeq r0, r1, #4"},
		{Instr{Op: SUB, Cond: AL, SetFlags: true, Rd: R2, Rn: R2, Imm: 1, HasImm: true}, "subs r2, r2, #1"},
		{Instr{Op: MOV, Cond: AL, Rd: R0, Rm: R1, Shift: LSR, ShiftAmt: 8}, "mov r0, r1 lsr #8"},
		{Instr{Op: LDR, Cond: AL, Rd: R0, Rn: R1, Imm: 8, Mode: AMOffImm}, "ldr r0, [r1, #8]"},
		{Instr{Op: LDRB, Cond: AL, Rd: R0, Rn: R1, Imm: 1, Mode: AMPostImm}, "ldrb r0, [r1], #1"},
		{Instr{Op: STR, Cond: AL, Rd: R0, Rn: R1, Rm: R2, ShiftAmt: 2, Mode: AMOffReg}, "str r0, [r1, r2 lsl #2]"},
		{Instr{Op: BX, Cond: AL, Rm: LR}, "bx lr"},
		{Instr{Op: SWI, Cond: AL, Imm: 1, HasImm: true}, "swi #1"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
