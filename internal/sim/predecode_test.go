package sim

import (
	"testing"

	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/kernels"
	"powerfits/internal/program"
	"powerfits/internal/synth"
)

// checkDecodedAgainstIR asserts that every record of a predecode table
// matches the live isa.Instr / cpu.Layout answers — the facts the
// pipeline used to recompute per cycle. This is the drift guard for the
// predecode layer: any change to Uses/Defs/Class/Predicated/layout
// semantics that is not mirrored in cpu.Predecode fails here for the
// exact instruction affected.
func checkDecodedAgainstIR(t *testing.T, tag string, p *program.Program, l cpu.Layout, d *cpu.Decoded) {
	t.Helper()
	if d == nil {
		t.Fatalf("%s: no decoded table", tag)
	}
	if d.Program() != p {
		t.Fatalf("%s: decoded table built from a different program", tag)
	}
	if len(d.Instrs) != len(p.Instrs) {
		t.Fatalf("%s: %d records for %d instructions", tag, len(d.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		rec := d.Instrs[i]
		fail := func(field string, got, want any) {
			t.Errorf("%s: instr %d (%s): %s = %v, want %v", tag, i, in, field, got, want)
		}
		if want := l.AddrOf(i); rec.Addr != want {
			fail("Addr", rec.Addr, want)
		}
		if want := l.AddrOf(i) + uint32(l.SizeOf(i)); rec.End != want {
			fail("End", rec.End, want)
		}
		wantUses := uint32(in.Uses())
		if in.Predicated() || in.Op == isa.ADC || in.Op == isa.SBC {
			wantUses |= 1 << isa.NumRegs
		}
		if rec.Uses != wantUses {
			fail("Uses", rec.Uses, wantUses)
		}
		if rec.Defs != in.Defs() {
			fail("Defs", rec.Defs, in.Defs())
		}
		cls := in.Op.Class()
		checks := []struct {
			field string
			bit   uint8
			want  bool
		}{
			{"DecMem", cpu.DecMem, cls == isa.ClassMem || cls == isa.ClassLit || cls == isa.ClassStack},
			{"DecMul", cpu.DecMul, cls == isa.ClassMul},
			{"DecLoad", cpu.DecLoad, in.Op.IsLoad()},
			{"DecBranch", cpu.DecBranch, cls == isa.ClassBranch || (in.Predicated() && in.Op.IsBranch())},
			{"DecSetsFlags", cpu.DecSetsFlags, in.SetFlags || in.Op.IsCompare()},
			{"DecPredTaken", cpu.DecPredTaken, in.Op != isa.BC || in.TargetIdx <= i},
		}
		for _, c := range checks {
			if got := rec.Flags&c.bit != 0; got != c.want {
				fail(c.field, got, c.want)
			}
		}
	}
}

// TestPredecodeMatchesLiveMetadata verifies, for every kernel in the
// suite and for both target images (ARM baseline and synthesized FITS),
// that the predecoded record of every instruction matches the live
// metadata — so the shared tables built in Prepare can never drift from
// the IR or the image layouts.
func TestPredecodeMatchesLiveMetadata(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares the full suite")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			checkDecodedAgainstIR(t, "ARM", s.Prog, cpu.ImageLayout(s.ArmImage), s.ArmDecoded)
			checkDecodedAgainstIR(t, "FITS", s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image), s.FitsDecoded)
		})
	}
}
