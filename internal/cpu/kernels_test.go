package cpu_test

import (
	"math"
	"testing"

	"powerfits/internal/cpu"
	"powerfits/internal/kernels"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// lockstepCompiled runs one program through the reference interpreter
// and stepCompiled in lockstep over the given layout, asserting
// bit-identical architectural state after every instruction: the
// whole-application counterpart of lockstepCompare.
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
	defer mi.Release()
	defer mc.Release()
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
	sameOutput(t, tag, mi.Output, mc.Output)
}

// sameOutput asserts two runs emitted the same words.
func sameOutput(t *testing.T, tag string, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: output length divergence: %d vs %d", tag, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: output[%d] divergence: %#x vs %#x", tag, i, a[i], b[i])
		}
	}
}

// image is one target image of a prepared kernel: its program, layout
// and shared compiled table.
type image struct {
	tag  string
	prog *program.Program
	l    cpu.Layout
	c    *cpu.Compiled
}

// forEachKernel prepares every kernel of the suite at scale 1, in
// parallel subtests, and calls f with its ARM and FITS images.
func forEachKernel(t *testing.T, f func(t *testing.T, ims []image)) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.PrepareWith(k, 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			f(t, []image{
				{"ARM", s.Prog, cpu.ImageLayout(s.ArmImage), s.ArmCompiled},
				{"FITS", s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image), s.FitsCompiled},
			})
		})
	}
}

// TestCompiledMatchesStepAllKernels verifies, for every kernel in the
// suite and for both target images (ARM baseline and synthesized FITS),
// that the shared compiled tables built in Prepare execute every single
// dynamic instruction through stepCompiled bit-identically to the
// reference Step: registers, flags, memory, PC, halt state, outputs and
// fault strings.
func TestCompiledMatchesStepAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares and locksteps the full suite")
	}
	forEachKernel(t, func(t *testing.T, ims []image) {
		for _, im := range ims {
			lockstepCompiled(t, im.tag, im.prog, im.l, im.c)
		}
	})
}

// TestSuperblocksMatchStepAllKernels runs every kernel on both images
// to completion twice — once on the reference interpreter, once on the
// superblock executor — and asserts identical architectural state,
// outputs and DynCount profiles. This is the suite-level counterpart
// of superblockCompare, and the property the synthesis pipeline
// depends on when it profiles on the superblock executor.
func TestSuperblocksMatchStepAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice per image")
	}
	forEachKernel(t, func(t *testing.T, ims []image) {
		for _, im := range ims {
			mi := cpu.New(im.prog, im.l)
			ms := cpu.New(im.prog, im.l)
			defer mi.Release()
			defer ms.Release()
			mi.MaxInstrs = 2e8
			ms.MaxInstrs = 2e8
			mi.DynCount = make([]uint64, len(im.prog.Instrs))
			ms.DynCount = make([]uint64, len(im.prog.Instrs))
			erri := mi.Run()
			errs := ms.RunSuperblocks(im.c, math.MaxUint64, nil, nil, nil)
			if (erri == nil) != (errs == nil) {
				t.Fatalf("%s: fault divergence: step %v, superblock %v", im.tag, erri, errs)
			}
			if erri != nil && erri.Error() != errs.Error() {
				t.Fatalf("%s: fault identity:\nstep:       %v\nsuperblock: %v", im.tag, erri, errs)
			}
			if mi.InstrCount != ms.InstrCount || mi.Halted != ms.Halted || mi.PCIdx != ms.PCIdx {
				t.Fatalf("%s: run shape divergence: step (n=%d halted=%v pc=%d), superblock (n=%d halted=%v pc=%d)",
					im.tag, mi.InstrCount, mi.Halted, mi.PCIdx, ms.InstrCount, ms.Halted, ms.PCIdx)
			}
			if mi.Regs != ms.Regs {
				t.Fatalf("%s: register divergence", im.tag)
			}
			if !mi.MemEqual(ms) {
				t.Fatalf("%s: memory divergence", im.tag)
			}
			for i := range mi.DynCount {
				if mi.DynCount[i] != ms.DynCount[i] {
					t.Fatalf("%s: DynCount[%d] = %d under superblocks, %d under Step",
						im.tag, i, ms.DynCount[i], mi.DynCount[i])
				}
			}
			sameOutput(t, im.tag, mi.Output, ms.Output)
		}
	})
}
