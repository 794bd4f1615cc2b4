package asm

import (
	"testing"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

func TestBuildResolvesLabelsAndSymbols(t *testing.T) {
	b := New("t")
	b.Words("tab", []uint32{1, 2, 3})
	b.Func("main")
	b.Lea(isa.R1, "tab")
	b.Label("loop")
	b.SubsI(isa.R0, isa.R0, 1)
	b.Bne("loop")
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[2].TargetIdx != 1 {
		t.Errorf("branch target = %d, want 1", p.Instrs[2].TargetIdx)
	}
	if got := p.MustSymbol("tab"); got != p.DataBase {
		t.Errorf("symbol at %#x, want %#x", got, p.DataBase)
	}
	if p.Instrs[0].Imm != int32(p.DataBase) {
		t.Errorf("lea imm = %#x", p.Instrs[0].Imm)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		body func(b *Builder)
	}{
		{"undefined label", func(b *Builder) {
			b.Func("main")
			b.B("nowhere")
		}},
		{"undefined symbol", func(b *Builder) {
			b.Func("main")
			b.Lea(isa.R0, "missing")
			b.Exit()
		}},
		{"duplicate label", func(b *Builder) {
			b.Func("main")
			b.Label("x")
			b.Label("x")
			b.Exit()
		}},
		{"duplicate symbol", func(b *Builder) {
			b.Bytes("d", []byte{1})
			b.Bytes("d", []byte{2})
			b.Func("main")
			b.Exit()
		}},
		{"code outside function", func(b *Builder) {
			b.MovI(isa.R0, 1)
		}},
		{"empty function", func(b *Builder) {
			b.Func("main")
			b.Exit()
			b.Func("empty")
		}},
		{"fallthrough at function end", func(b *Builder) {
			b.Func("main")
			b.MovI(isa.R0, 1)
		}},
	}
	for _, c := range cases {
		b := New(c.name)
		c.body(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDataAlignment(t *testing.T) {
	b := New("align")
	b.Bytes("b1", []byte{1})  // offset 0, 1 byte
	b.Words("w", []uint32{5}) // must align to 4
	b.Bytes("b2", []byte{2})  // offset 8
	b.Halfs("h", []uint16{7}) // aligns to 2
	b.Zero("z", 4)            // aligns to 4
	b.Func("main")
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := p.DataBase
	if p.MustSymbol("w")%4 != 0 || p.MustSymbol("w") != base+4 {
		t.Errorf("w at %#x", p.MustSymbol("w"))
	}
	if p.MustSymbol("h")%2 != 0 {
		t.Errorf("h misaligned: %#x", p.MustSymbol("h"))
	}
	if p.MustSymbol("z")%4 != 0 {
		t.Errorf("z misaligned: %#x", p.MustSymbol("z"))
	}
}

func TestSignedImmediateFlips(t *testing.T) {
	b := New("signs")
	b.Func("main")
	b.AddI(isa.R0, isa.R1, -4) // becomes SUB #4
	b.SubI(isa.R0, isa.R1, -4) // becomes ADD #4
	b.CmpI(isa.R0, -1)         // becomes CMN #1
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Op != isa.SUB || p.Instrs[0].Imm != 4 {
		t.Errorf("add #-4 → %s #%d", p.Instrs[0].Op, p.Instrs[0].Imm)
	}
	if p.Instrs[1].Op != isa.ADD || p.Instrs[1].Imm != 4 {
		t.Errorf("sub #-4 → %s #%d", p.Instrs[1].Op, p.Instrs[1].Imm)
	}
	if p.Instrs[2].Op != isa.CMN || p.Instrs[2].Imm != 1 {
		t.Errorf("cmp #-1 → %s #%d", p.Instrs[2].Op, p.Instrs[2].Imm)
	}
}

func TestMovImm32Selection(t *testing.T) {
	b := New("movimm")
	b.Func("main")
	b.MovImm32(isa.R0, 0xFF)       // MOV
	b.MovImm32(isa.R1, 0xFFFFFFFF) // MVN #0
	b.MovImm32(isa.R2, 0x12345678) // LDC
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Op != isa.MOV {
		t.Errorf("small constant should use MOV, got %s", p.Instrs[0].Op)
	}
	if p.Instrs[1].Op != isa.MVN || p.Instrs[1].Imm != 0 {
		t.Errorf("all-ones should use MVN #0, got %s #%d", p.Instrs[1].Op, p.Instrs[1].Imm)
	}
	if p.Instrs[2].Op != isa.LDC {
		t.Errorf("arbitrary constant should use LDC, got %s", p.Instrs[2].Op)
	}
}

func TestShiftZeroAmountIsMov(t *testing.T) {
	b := New("sh")
	b.Func("main")
	b.Lsl(isa.R0, isa.R1, 0)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := p.Instrs[0]
	if in.Op != isa.MOV || in.ShiftAmt != 0 {
		t.Errorf("lsl #0 should collapse to mov, got %s", in)
	}
}

func TestFunctionSpans(t *testing.T) {
	b := New("spans")
	b.Func("main")
	b.Bl("helper")
	b.Exit()
	b.Func("helper")
	b.Emit(isa.Instr{Op: isa.NOP, Cond: isa.AL})
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []program.Func{{Name: "main", Start: 0, End: 2}, {Name: "helper", Start: 2, End: 4}}
	for i, f := range p.Funcs {
		if f != want[i] {
			t.Errorf("func %d = %+v, want %+v", i, f, want[i])
		}
	}
}
