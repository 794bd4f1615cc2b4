package translate

import (
	"math/rand"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
	"powerfits/internal/program"
)

// baseSigs mirrors synth.BaseInstructionSet (duplicated here because
// the synth package imports translate).
func baseSigs() []fits.Signature {
	alu := func(op isa.Op, imm bool) fits.Signature {
		return fits.Signature{Op: op, Cond: isa.AL, OperandImm: imm}
	}
	mem := func(op isa.Op) fits.Signature {
		return fits.Signature{Op: op, Cond: isa.AL, Mode: isa.AMOffImm, OperandImm: true}
	}
	return []fits.Signature{
		alu(isa.MOV, false), alu(isa.MOV, true),
		alu(isa.ADD, false), alu(isa.ADD, true),
		alu(isa.SUB, false), alu(isa.SUB, true),
		{Op: isa.CMP, Cond: isa.AL}, {Op: isa.CMP, Cond: isa.AL, OperandImm: true},
		{Op: isa.B, Cond: isa.AL}, {Op: isa.BC, Cond: isa.EQ}, {Op: isa.BC, Cond: isa.NE},
		{Op: isa.BC, Cond: isa.GE}, {Op: isa.BC, Cond: isa.LT},
		{Op: isa.BC, Cond: isa.VS}, {Op: isa.BC, Cond: isa.VC},
		{Op: isa.BL, Cond: isa.AL}, {Op: isa.BX, Cond: isa.AL},
		mem(isa.LDR), mem(isa.STR), mem(isa.LDRB), mem(isa.STRB),
		{Op: isa.PUSH, Cond: isa.AL}, {Op: isa.POP, Cond: isa.AL},
		{Op: isa.SWI, Cond: isa.AL, OperandImm: true},
		fits.LdcSig(),
		{Op: isa.EOR, Cond: isa.AL}, // register form for the equivalence property
		{Op: isa.AND, Cond: isa.AL},
		{Op: isa.ORR, Cond: isa.AL},
		{Op: isa.BIC, Cond: isa.AL},
		{Op: isa.RSB, Cond: isa.AL},
		{Op: isa.MOV, Cond: isa.AL, ShiftInField: true, Shift: isa.LSL},
		{Op: isa.MOV, Cond: isa.AL, ShiftInField: true, Shift: isa.LSR},
		{Op: isa.MOV, Cond: isa.AL, ShiftInField: true, Shift: isa.ASR},
		{Op: isa.MOV, Cond: isa.AL, ShiftInField: true, Shift: isa.ROR},
	}
}

// minimalSpec builds a spec containing only the base set — forcing the
// translator through every rewrite path.
func minimalSpec(t *testing.T, k int) *fits.Spec {
	t.Helper()
	points := []fits.Point{{Kind: fits.PointExt}}
	for _, s := range baseSigs() {
		points = append(points, fits.Point{Kind: fits.PointSig, Sig: s})
	}
	window := []isa.Reg{isa.R0, isa.R1, isa.R2, isa.R3, isa.R12, isa.R4, isa.R5, isa.R6,
		isa.R7, isa.R8, isa.R9, isa.R10, isa.R11, isa.SP, isa.LR, isa.PC}
	sp, err := fits.NewSpec("minimal", k, points, window)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestLoweringRewritePaths(t *testing.T) {
	sp := minimalSpec(t, 6)
	cases := []struct {
		name     string
		in       isa.Instr
		minUnits int
		maxUnits int
	}{
		{"direct add", isa.Instr{Op: isa.ADD, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 1, 1},
		{"unmapped eor → ?", isa.Instr{Op: isa.EOR, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 1, 3},
		{"fused shift", isa.Instr{Op: isa.ADD, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2, Shift: isa.LSL, ShiftAmt: 2}, 2, 3},
		{"predicated add", isa.Instr{Op: isa.ADD, Cond: isa.EQ, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 2, 2},
		{"predicated unmapped cond", isa.Instr{Op: isa.ADD, Cond: isa.VS, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 2, 3},
		{"reg-offset load", isa.Instr{Op: isa.LDR, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2, Mode: isa.AMOffReg}, 2, 3},
		{"post-index store", isa.Instr{Op: isa.STR, Rd: isa.R0, Rn: isa.R1, Imm: 4, Mode: isa.AMPostImm}, 2, 2},
		{"negative offset", isa.Instr{Op: isa.LDR, Rd: isa.R0, Rn: isa.R1, Imm: -8, Mode: isa.AMOffImm}, 2, 2},
		{"unscalable offset", isa.Instr{Op: isa.LDR, Rd: isa.R0, Rn: isa.R1, Imm: 6, Mode: isa.AMOffImm}, 2, 2},
		{"mla via mul+add", isa.Instr{Op: isa.MLA, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2, Rs: isa.R3}, 2, 3},
		{"mul direct", isa.Instr{Op: isa.MUL, Rd: isa.R0, Rm: isa.R1, Rs: isa.R2}, 1, 2},
	}
	for _, c := range cases {
		if c.name != "predicated add" && c.name != "predicated unmapped cond" {
			c.in.Cond = isa.AL
		}
		c.in.TargetIdx = -1
		seq, err := lowerOne(nil, &c.in, sp, 0)
		if err != nil {
			// MUL has no BIS point; closure would add it. Accept the
			// NoPointError for signatures with no rewrite path.
			if _, ok := err.(*fits.NoPointError); ok && (c.in.Op == isa.MUL || c.in.Op == isa.MLA) {
				continue
			}
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(seq) < c.minUnits || len(seq) > c.maxUnits {
			t.Errorf("%s: lowered to %d units, want %d..%d", c.name, len(seq), c.minUnits, c.maxUnits)
		}
		// Every produced instruction must itself be expressible.
		for _, u := range seq {
			if !sp.Expressible(&u.in) {
				t.Errorf("%s: produced inexpressible %s", c.name, u.in)
			}
		}
	}
}

// TestRandomProgramEquivalence lowers random straight-line ALU/memory
// programs through a minimal spec and checks that the FITS translation
// computes exactly the same architectural result as the original.
func TestRandomProgramEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.ORR, isa.EOR, isa.BIC, isa.RSB}
	conds := []isa.Cond{isa.AL, isa.AL, isa.AL, isa.EQ, isa.NE, isa.GE, isa.LT}

	for trial := 0; trial < 60; trial++ {
		b := asm.New("rand")
		b.Words("mem", make([]uint32, 16))
		b.Func("main")
		// Seed registers r0..r7 (r12 stays free for the translator).
		for i := 0; i < 8; i++ {
			b.MovImm32(isa.Reg(i), r.Uint32())
		}
		b.Lea(isa.R8, "mem")
		n := 10 + r.Intn(30)
		for i := 0; i < n; i++ {
			reg := func() isa.Reg { return isa.Reg(r.Intn(8)) }
			switch r.Intn(6) {
			case 0:
				b.ALU(aluOps[r.Intn(len(aluOps))], reg(), reg(), reg())
			case 1:
				b.Emit(isa.Instr{Op: aluOps[r.Intn(len(aluOps))], Cond: conds[r.Intn(len(conds))],
					Rd: reg(), Rn: reg(), Imm: int32(r.Intn(256)), HasImm: true})
			case 2:
				b.OpShift(aluOps[r.Intn(len(aluOps))], reg(), reg(), reg(),
					isa.Shift(r.Intn(4)), uint8(1+r.Intn(15)))
			case 3:
				b.CmpI(reg(), int32(r.Intn(16)))
			case 4:
				b.Str(reg(), isa.R8, int32(4*r.Intn(16)))
			default:
				b.Ldr(reg(), isa.R8, int32(4*r.Intn(16)))
			}
		}
		// Emit every register as output.
		for i := 0; i < 8; i++ {
			b.Mov(isa.R0, isa.Reg(i))
			b.EmitWord()
		}
		b.Exit()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		ref, err := cpu.RunFunctional(p, 1e6)
		if err != nil {
			t.Fatal(err)
		}

		sp := minimalSpec(t, 6)
		res, err := Translate(p, sp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		l := cpu.ImageLayout(res.Image)
		var pipe cpu.PipeResult
		if err := cpu.RunPipeline(cpu.New(res.Lowered, l), cpu.DefaultPipeConfig(), nil, cpu.Predecode(res.Lowered, l), &pipe, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(pipe.Output) != len(ref.Output) {
			t.Fatalf("trial %d: output lengths %d vs %d", trial, len(pipe.Output), len(ref.Output))
		}
		for i := range ref.Output {
			if pipe.Output[i] != ref.Output[i] {
				t.Fatalf("trial %d: output[%d] = %#x, want %#x", trial, i, pipe.Output[i], ref.Output[i])
			}
		}
	}
}

// TestFarBranchGrowsEXT builds a program whose branch displacement
// exceeds the inline field and checks the layout converges with EXT
// prefixes.
func TestFarBranchGrowsEXT(t *testing.T) {
	b := asm.New("far")
	b.Func("main")
	b.B("far_away")
	// Filler: > 2^10 halfwords so a k=6 displacement cannot be inline.
	for i := 0; i < 1500; i++ {
		b.AddI(isa.R0, isa.R0, 1)
	}
	b.Label("far_away")
	b.Exit()
	p := b.MustBuild()
	sp := minimalSpec(t, 6)
	res, err := Translate(p, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.InstrSize[0] <= 2 {
		t.Errorf("far branch encoded in %d bytes; needs EXT", res.Image.InstrSize[0])
	}
	// The decoded branch must still point at the right instruction.
	if err := CheckImage(res); err != nil {
		t.Fatal(err)
	}
}

// TestSkipBranchSemantics: predication rewrites must skip exactly the
// lowered body.
func TestSkipBranchSemantics(t *testing.T) {
	b := asm.New("pred")
	b.Func("main")
	b.MovI(isa.R0, 5)
	b.CmpI(isa.R0, 5)
	// Predicated EOR with a wide immediate: EQ holds → executes.
	b.IfI(isa.EQ, isa.EOR, isa.R1, isa.R0, 0xFF)
	// NE fails → skipped.
	b.IfI(isa.NE, isa.EOR, isa.R2, isa.R0, 0xFF)
	b.Mov(isa.R0, isa.R1)
	b.EmitWord()
	b.Mov(isa.R0, isa.R2)
	b.EmitWord()
	b.Exit()
	p := b.MustBuild()

	ref, err := cpu.RunFunctional(p, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	sp := minimalSpec(t, 6)
	res, err := Translate(p, sp)
	if err != nil {
		t.Fatal(err)
	}
	l := cpu.ImageLayout(res.Image)
	var pipe cpu.PipeResult
	if err := cpu.RunPipeline(cpu.New(res.Lowered, l), cpu.DefaultPipeConfig(), nil, cpu.Predecode(res.Lowered, l), &pipe, nil); err != nil {
		t.Fatal(err)
	}
	for i := range ref.Output {
		if pipe.Output[i] != ref.Output[i] {
			t.Fatalf("output[%d] = %#x, want %#x", i, pipe.Output[i], ref.Output[i])
		}
	}
}

// TestLayoutDeterminism: translating twice yields identical images.
func TestLayoutDeterminism(t *testing.T) {
	p := buildSumProgForDeterminism()
	sp := minimalSpec(t, 6)
	a, err := Translate(p, sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Translate(p, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Image.Text) != len(b.Image.Text) {
		t.Fatal("image sizes differ")
	}
	for i := range a.Image.Text {
		if a.Image.Text[i] != b.Image.Text[i] {
			t.Fatalf("image byte %d differs", i)
		}
	}
}

func buildSumProgForDeterminism() *program.Program {
	b := asm.New("det")
	b.Words("w", []uint32{1, 2, 3})
	b.Func("main")
	b.Lea(isa.R1, "w")
	b.MovI(isa.R2, 3)
	b.Label("l")
	b.MemPost(isa.LDR, isa.R3, isa.R1, 4)
	b.Add(isa.R0, isa.R0, isa.R3)
	b.SubI(isa.R2, isa.R2, 1)
	b.CmpI(isa.R2, 0)
	b.Bne("l")
	b.EmitWord()
	b.Exit()
	return b.MustBuild()
}
