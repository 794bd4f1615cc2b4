package profile

import (
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
)

func buildLoop(t *testing.T) *Profile {
	t.Helper()
	b := asm.New("p")
	b.Words("tab", []uint32{1, 2, 3, 4})
	b.Func("main")
	b.Lea(isa.R1, "tab")
	b.MovI(isa.R2, 100)
	b.MovI(isa.R0, 0)
	b.Label("loop")
	b.AndI(isa.R3, isa.R2, 3)
	b.MemReg(isa.LDR, isa.R3, isa.R1, isa.R3, 2)
	b.Add(isa.R0, isa.R0, isa.R3)
	b.SubsI(isa.R2, isa.R2, 1)
	b.Bne("loop")
	b.EmitWord()
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(p, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestCollectCounts(t *testing.T) {
	prof := buildLoop(t)
	if prof.TotalStatic != uint64(len(prof.Prog.Instrs)) {
		t.Errorf("static = %d", prof.TotalStatic)
	}
	// The loop body runs 100 times.
	addSig := fits.Signature{Op: isa.ADD, Cond: isa.AL}
	st := prof.Sigs[addSig]
	if st == nil || st.Dyn != 100 || st.Static != 1 {
		t.Fatalf("add stats = %+v", st)
	}
	// Loop-closing SUBS counts rd == rn instances.
	subsSig := fits.Signature{Op: isa.SUB, Cond: isa.AL, SetFlags: true, OperandImm: true}
	if st := prof.Sigs[subsSig]; st == nil || st.RdEqRn.Dyn != 100 {
		t.Fatalf("subs rd==rn stats = %+v", st)
	}
	// Branch signature present.
	bne := fits.Signature{Op: isa.BC, Cond: isa.NE}
	if st := prof.Sigs[bne]; st == nil || st.Dyn != 100 {
		t.Fatalf("bne stats = %+v", st)
	}
	// Output captured as golden reference.
	if len(prof.Output) != 1 {
		t.Errorf("output = %v", prof.Output)
	}
}

func TestRankedRegs(t *testing.T) {
	prof := buildLoop(t)
	ranked := prof.RankedRegs()
	if len(ranked) != isa.NumRegs {
		t.Fatalf("ranked %d regs", len(ranked))
	}
	// r3 dominates the narrow operand positions (ALU operand 2 and
	// memory register offset, 300 dynamic uses).
	if ranked[0] != isa.R3 {
		t.Errorf("top narrow register = %s, want r3", ranked[0])
	}
	seen := map[isa.Reg]bool{}
	for _, r := range ranked {
		if seen[r] {
			t.Fatalf("register %s ranked twice", r)
		}
		seen[r] = true
	}
}

func TestBranchDisplacementHistogram(t *testing.T) {
	prof := buildLoop(t)
	var total uint64
	for _, c := range prof.BranchDisp {
		total += c.Static
	}
	if total != 1 { // the single bne
		t.Fatalf("histogram counted %d branches, want 1", total)
	}
	// The loop branch jumps back 4 instructions: needs few bits.
	if prof.DispCoverage(4) != 1 {
		t.Errorf("4-bit coverage = %f, want 1", prof.DispCoverage(4))
	}
	if prof.DispCoverage(1) != 0 {
		t.Errorf("1-bit coverage = %f, want 0", prof.DispCoverage(1))
	}
}

func TestSignedBits(t *testing.T) {
	cases := map[int64]int{0: 1, -1: 1, 1: 2, -2: 2, 3: 3, -4: 3, 127: 8, -128: 8, 128: 9}
	for v, want := range cases {
		if got := signedBits(v); got != want {
			t.Errorf("signedBits(%d) = %d, want %d", v, got, want)
		}
	}
}
