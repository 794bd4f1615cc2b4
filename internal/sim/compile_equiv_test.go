package sim

import (
	"testing"

	"powerfits/internal/cpu"
	"powerfits/internal/kernels"
	"powerfits/internal/program"
	"powerfits/internal/synth"
)

// lockstepCompiled runs one program through the interpreter and the
// compiled micro-op table in lockstep over the given layout, asserting
// bit-identical architectural state after every instruction — the
// whole-application counterpart of the per-instruction equivalence
// tests in internal/cpu.
func lockstepCompiled(t *testing.T, tag string, p *program.Program, l cpu.Layout, c *cpu.Compiled) {
	t.Helper()
	if c == nil {
		t.Fatalf("%s: no compiled table", tag)
	}
	if c.Program() != p {
		t.Fatalf("%s: compiled table built from a different program", tag)
	}
	mi := cpu.New(p, l)
	mc := cpu.New(p, l)
	const budget = 2e8
	mi.MaxInstrs = budget
	mc.MaxInstrs = budget

	for !mi.Halted {
		ri, erri := mi.Step()
		rc, errc := mc.StepCompiled(c)
		if (erri == nil) != (errc == nil) {
			t.Fatalf("%s: instr %d: fault divergence: interpreted %v, compiled %v", tag, mi.InstrCount, erri, errc)
		}
		if erri != nil {
			if erri.Error() != errc.Error() {
				t.Fatalf("%s: fault identity:\ninterpreted: %v\ncompiled:    %v", tag, erri, errc)
			}
			return
		}
		if ri != rc {
			t.Fatalf("%s: instr %d: StepResult divergence: %+v vs %+v", tag, mi.InstrCount, ri, rc)
		}
		if mi.Regs != mc.Regs || mi.N != mc.N || mi.Z != mc.Z || mi.C != mc.C || mi.V != mc.V ||
			mi.PCIdx != mc.PCIdx || mi.Halted != mc.Halted {
			t.Fatalf("%s: instr %d: architectural divergence (interpreted PC %d, compiled PC %d)",
				tag, mi.InstrCount, mi.PCIdx, mc.PCIdx)
		}
	}
	if !mi.MemEqual(mc) {
		t.Fatalf("%s: memory divergence after run", tag)
	}
	if len(mi.Output) != len(mc.Output) {
		t.Fatalf("%s: output length divergence: %d vs %d", tag, len(mi.Output), len(mc.Output))
	}
	for i := range mi.Output {
		if mi.Output[i] != mc.Output[i] {
			t.Fatalf("%s: output[%d] divergence: %#x vs %#x", tag, i, mi.Output[i], mc.Output[i])
		}
	}
}

// TestCompiledMatchesStepAllKernels verifies, for every kernel in the
// suite and for both target images (ARM baseline and synthesized FITS),
// that the shared compiled tables built in Prepare execute every single
// dynamic instruction bit-identically to cpu.Machine.Step: registers,
// flags, memory, PC, halt state, outputs and fault strings.
func TestCompiledMatchesStepAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares and locksteps the full suite")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := Prepare(k, 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			lockstepCompiled(t, "ARM", s.Prog, cpu.ImageLayout(s.ArmImage), s.ArmCompiled)
			lockstepCompiled(t, "FITS", s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image), s.FitsCompiled)
		})
	}
}

// TestPrepareRejectsNegativeBudget asserts Prepare surfaces the
// ProfileBudget validation error before any profiling work starts.
func TestPrepareRejectsNegativeBudget(t *testing.T) {
	opts := synth.DefaultOptions()
	opts.ProfileBudget = -5
	if _, err := Prepare(kernels.MustGet("crc32"), 1, opts); err == nil {
		t.Fatal("Prepare accepted a negative ProfileBudget")
	}
}
