package program

import (
	"testing"

	"powerfits/internal/isa"
)

func validProgram() *Program {
	return &Program{
		Name: "ok",
		Instrs: []isa.Instr{
			{Op: isa.MOV, Cond: isa.AL, Rd: isa.R0, Imm: 1, HasImm: true, TargetIdx: -1},
			{Op: isa.SWI, Cond: isa.AL, Imm: 0, HasImm: true, TargetIdx: -1},
			{Op: isa.BX, Cond: isa.AL, Rm: isa.LR, TargetIdx: -1},
		},
		Funcs: []Func{
			{Name: "main", Start: 0, End: 2},
			{Name: "f", Start: 2, End: 3},
		},
		TextBase: DefaultTextBase,
		DataBase: DefaultDataBase,
		Symbols:  map[string]uint32{"d": DefaultDataBase},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(p *Program)
	}{
		{"empty", func(p *Program) { p.Instrs = nil; p.Funcs = nil }},
		{"entry out of range", func(p *Program) { p.Entry = 99 }},
		{"unresolved branch", func(p *Program) {
			p.Instrs[0] = isa.Instr{Op: isa.B, Cond: isa.AL, TargetIdx: -1}
		}},
		{"branch target out of range", func(p *Program) {
			p.Instrs[0] = isa.Instr{Op: isa.B, Cond: isa.AL, TargetIdx: 99}
		}},
		{"spans do not tile", func(p *Program) { p.Funcs[1].Start = 1 }},
		{"spans do not cover", func(p *Program) { p.Funcs = p.Funcs[:1] }},
		{"fallthrough at end", func(p *Program) {
			p.Instrs[1] = isa.Instr{Op: isa.MOV, Cond: isa.AL, TargetIdx: -1}
		}},
		{"invalid instruction", func(p *Program) { p.Instrs[0].Rd = 200 }},
	}
	for _, m := range mutations {
		p := validProgram()
		m.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestSymbols(t *testing.T) {
	p := validProgram()
	if a := p.MustSymbol("d"); a != DefaultDataBase {
		t.Errorf("MustSymbol(d) = %#x", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSymbol should panic for unknown symbols")
		}
	}()
	p.MustSymbol("nope")
}

func TestImageHelpers(t *testing.T) {
	im := &Image{
		Text:      make([]byte, 20),
		TextBase:  0x8000,
		InstrAddr: []uint32{0x8000, 0x8004, 0x8008},
		InstrSize: []uint8{4, 4, 4},
	}
	if im.Size() != 20 {
		t.Errorf("size=%d", im.Size())
	}
	if im.AddrOf(1) != 0x8004 {
		t.Errorf("AddrOf(1) = %#x", im.AddrOf(1))
	}
}
