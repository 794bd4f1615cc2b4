package synth

import (
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/translate"
)

// buildProg assembles a small but representative program: a hot loop
// with wide immediates, a rare extended op and predication.
func buildProg(t testing.TB) *program.Program {
	t.Helper()
	b := asm.New("synthprog")
	b.Words("tab", []uint32{3, 1, 4, 1, 5, 9, 2, 6})
	b.Func("main")
	b.Lea(isa.R1, "tab")
	b.MovI(isa.R2, 64)
	b.MovI(isa.R0, 0)
	b.Label("loop")
	b.AndI(isa.R3, isa.R2, 7)
	b.MemReg(isa.LDR, isa.R3, isa.R1, isa.R3, 2)
	b.EorI(isa.R3, isa.R3, 0xFF00) // wide immediate, hot
	b.Add(isa.R0, isa.R0, isa.R3)
	b.SubsI(isa.R2, isa.R2, 1)
	b.Bne("loop")
	b.CmpI(isa.R0, 0)
	b.MovIIf(isa.LT, isa.R0, 0) // predicated, cold
	b.Qadd(isa.R0, isa.R0, isa.R0)
	b.EmitWord()
	b.Exit()
	return b.MustBuild()
}

func synthFor(t testing.TB, opts Options) (*profile.Profile, *Synthesis) {
	t.Helper()
	prof, err := profile.Collect(buildProg(t), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prof, syn
}

func TestSynthesisBasics(t *testing.T) {
	prof, syn := synthFor(t, DefaultOptions())
	if syn.K < fits.MinK || syn.K > fits.MaxK {
		t.Fatalf("k = %d", syn.K)
	}
	if syn.Spec.UsedPoints() > 1<<syn.K {
		t.Fatalf("points overflow: %d", syn.Spec.UsedPoints())
	}
	// BIS must all be present as points.
	for _, s := range BaseInstructionSet() {
		if !syn.Spec.HasPoint(s) {
			t.Errorf("BIS signature %q missing", s)
		}
	}
	// Every program instruction must lower.
	var lc translate.Counter
	for i := range prof.Prog.Instrs {
		if _, err := lc.Count(&prof.Prog.Instrs[i], syn.Spec); err != nil {
			t.Errorf("instr %d (%s) unlowerable: %v", i, &prof.Prog.Instrs[i], err)
		}
	}
	// The rare QADD must have been added (SIS closure: it has no
	// rewrite path).
	if !syn.Spec.HasPoint(fits.Signature{Op: isa.QADD, Cond: isa.AL}) {
		t.Error("QADD missing despite being used")
	}
}

func TestKSearchPicksCheapest(t *testing.T) {
	_, syn := synthFor(t, DefaultOptions())
	for k, cost := range syn.CandidateCost {
		if cost < syn.Cost {
			t.Errorf("k=%d cost %d beats chosen %d (k=%d)", k, cost, syn.Cost, syn.K)
		}
	}
}

func TestForceK(t *testing.T) {
	opts := DefaultOptions()
	opts.ForceK = 6
	_, syn := synthFor(t, opts)
	if syn.K != 6 {
		t.Errorf("forced k ignored: %d", syn.K)
	}
	if len(syn.CandidateCost) != 1 {
		t.Errorf("forced k should try exactly one width: %v", syn.CandidateCost)
	}
}

func TestDictCap(t *testing.T) {
	opts := DefaultOptions()
	opts.DictCap = 4
	_, syn := synthFor(t, opts)
	if syn.DictEntries > 4 {
		t.Errorf("dictionary cap violated: %d entries", syn.DictEntries)
	}
	opts.NoDict = true
	_, syn = synthFor(t, opts)
	if syn.DictEntries != 0 {
		t.Errorf("NoDict left %d entries", syn.DictEntries)
	}
}

func TestAblationsStillComplete(t *testing.T) {
	variants := []Options{}
	o := DefaultOptions()
	o.NoTwoOp = true
	variants = append(variants, o)
	o = DefaultOptions()
	o.NoBasePoints = true
	variants = append(variants, o)
	o = DefaultOptions()
	o.NoWindowRanking = true
	variants = append(variants, o)
	o = DefaultOptions()
	o.NoDict = true
	o.NoTwoOp = true
	o.NoBasePoints = true
	o.NoWindowRanking = true
	variants = append(variants, o)

	p := buildProg(t)
	for i, opts := range variants {
		prof, err := profile.Collect(p, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := Synthesize(prof, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if _, err := translate.Translate(p, syn.Spec); err != nil {
			t.Errorf("variant %d untranslatable: %v", i, err)
		}
	}
}

func TestProvenancePartition(t *testing.T) {
	_, syn := synthFor(t, DefaultOptions())
	seen := map[fits.Signature]bool{}
	for _, group := range [][]fits.Signature{syn.BIS, syn.SIS, syn.AIS} {
		for _, s := range group {
			if seen[s] {
				t.Errorf("signature %q in two provenance groups", s)
			}
			seen[s] = true
		}
	}
	if got := len(seen) + 1; got != syn.Spec.UsedPoints() { // +1 for EXT
		t.Errorf("provenance covers %d points, spec has %d", got, syn.Spec.UsedPoints())
	}
}

func TestDeterminism(t *testing.T) {
	_, a := synthFor(t, DefaultOptions())
	_, b := synthFor(t, DefaultOptions())
	if a.K != b.K || a.Cost != b.Cost || a.DictEntries != b.DictEntries {
		t.Fatalf("synthesis not deterministic: %v vs %v", a, b)
	}
	for i := range a.Spec.Points {
		pa, pb := a.Spec.Points[i], b.Spec.Points[i]
		if pa.Kind != pb.Kind || pa.Sig != pb.Sig || pa.ImmDict != pb.ImmDict || len(pa.Values) != len(pb.Values) {
			t.Fatalf("point %d differs", i)
		}
	}
}

// TestEffectiveProfileBudget pins the ProfileBudget option contract:
// zero resolves to the default, positive values pass through, and
// negative values are rejected by Validate (sim.PrepareWith surfaces
// the error before any profiling work starts).
func TestEffectiveProfileBudget(t *testing.T) {
	opts := DefaultOptions()
	if opts.ProfileBudget != 0 {
		t.Fatalf("DefaultOptions sets ProfileBudget = %d, want 0 (use the default)", opts.ProfileBudget)
	}
	if got := opts.EffectiveProfileBudget(); got != uint64(DefaultProfileBudget) {
		t.Fatalf("zero budget resolved to %d, want %d", got, DefaultProfileBudget)
	}
	opts.ProfileBudget = 12345
	if got := opts.EffectiveProfileBudget(); got != 12345 {
		t.Fatalf("explicit budget resolved to %d, want 12345", got)
	}
	opts.ProfileBudget = -1
	if err := opts.Validate(); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// TestSynthesizeRejectsOutOfRangeK: an opcode width outside
// [fits.MinK, fits.MaxK] is an error from Synthesize, never a panic in
// the per-width encoding.
func TestSynthesizeRejectsOutOfRangeK(t *testing.T) {
	prof, err := profile.Collect(buildProg(t), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 9} {
		opts := DefaultOptions()
		opts.ForceK = k
		if syn, err := Synthesize(prof, opts); err == nil {
			t.Errorf("ForceK %d synthesized k=%d, want an error", k, syn.K)
		}
	}
}
