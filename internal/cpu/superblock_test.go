package cpu

import (
	"slices"
	"strings"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// superblockCompare runs two machines over the same program — one
// through the reference Step, one through the superblock executor —
// and asserts identical final architectural state, dynamic profile and
// fault behaviour. Blocks execute atomically, so the comparison is
// whole-run (the per-instruction lockstep lives in lockstepCompare for
// stepCompiled; superblock equivalence composes with it). Returns
// the executed instruction count.
func superblockCompare(t *testing.T, p *program.Program, maxInstrs uint64) uint64 {
	t.Helper()
	l := WordLayout(p.TextBase, len(p.Instrs))
	mi := New(p, l)
	ms := New(p, l)
	defer mi.Release()
	defer ms.Release()
	mi.MaxInstrs = maxInstrs
	ms.MaxInstrs = maxInstrs
	mi.DynCount = make([]uint64, len(p.Instrs))
	ms.DynCount = make([]uint64, len(p.Instrs))

	erri := mi.Run()
	errs := ms.RunSuperblocks(Compile(p, l))

	if (erri == nil) != (errs == nil) {
		t.Fatalf("fault divergence: interpreted %v, superblock %v", erri, errs)
	}
	if erri != nil && erri.Error() != errs.Error() {
		t.Fatalf("fault identity:\ninterpreted: %v\nsuperblock:  %v", erri, errs)
	}
	if mi.Regs != ms.Regs {
		t.Fatalf("register divergence:\ninterpreted %v\nsuperblock  %v", mi.Regs, ms.Regs)
	}
	if mi.N != ms.N || mi.Z != ms.Z || mi.C != ms.C || mi.V != ms.V {
		t.Fatalf("flag divergence: interpreted NZCV=%v%v%v%v superblock %v%v%v%v",
			mi.N, mi.Z, mi.C, mi.V, ms.N, ms.Z, ms.C, ms.V)
	}
	if mi.PCIdx != ms.PCIdx || mi.Halted != ms.Halted || mi.InstrCount != ms.InstrCount {
		t.Fatalf("control divergence: PC %d/%d halted %v/%v count %d/%d",
			mi.PCIdx, ms.PCIdx, mi.Halted, ms.Halted, mi.InstrCount, ms.InstrCount)
	}
	for i := range mi.DynCount {
		if mi.DynCount[i] != ms.DynCount[i] {
			t.Fatalf("DynCount[%d] divergence: interpreted %d, superblock %d",
				i, mi.DynCount[i], ms.DynCount[i])
		}
	}
	checkCoverage(t, mi)
	checkCoverage(t, ms)
	if !mi.MemEqual(ms) {
		t.Fatal("memory divergence after run")
	}
	if len(mi.Output) != len(ms.Output) {
		t.Fatalf("output length divergence: %d vs %d", len(mi.Output), len(ms.Output))
	}
	for i := range mi.Output {
		if mi.Output[i] != ms.Output[i] {
			t.Fatalf("output[%d] divergence: %#x vs %#x", i, mi.Output[i], ms.Output[i])
		}
	}
	return mi.InstrCount
}

// TestSuperblockEquivalence runs the superblock executor against the
// interpreter over the decode-dimension and hand-built edge-case
// programs — the same corpus lockstepCompare pins for the compiled
// path.
func TestSuperblockEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *program.Program
	}{
		{"mixed", mixedProgram()},
		{"edge", edgeProgram()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := superblockCompare(t, tc.p, 1e6); n == 0 {
				t.Fatal("no instructions executed")
			}
		})
	}
}

// TestSuperblockFuseTable pins block formation on a known shape: a
// straight-line run of fusible micro-ops counts down to its exit, and
// every non-fusible kind (branches, predicated ops, halts) reads 0.
func TestSuperblockFuseTable(t *testing.T) {
	b := asm.New("fuse")
	b.Func("main")
	b.MovI(isa.R0, 1)           // 0: fusible
	b.AddI(isa.R1, isa.R0, 2)   // 1: fusible
	b.MovIIf(isa.EQ, isa.R2, 3) // 2: predicated — not fusible
	b.SubI(isa.R3, isa.R1, 1)   // 3: fusible
	b.EmitWord()                // 4: fusible (SWI 1)
	b.Exit()                    // 5: halt — not fusible
	p := b.MustBuild()
	c := Compile(p, WordLayout(p.TextBase, len(p.Instrs)))
	want := []int{2, 1, 0, 2, 1, 0}
	for i, w := range want {
		if got := c.FuseLen(i); got != w {
			t.Errorf("FuseLen(%d) = %d, want %d", i, got, w)
		}
	}
	if got := c.FuseLen(-1); got != 0 {
		t.Errorf("FuseLen(-1) = %d, want 0", got)
	}
	if got := c.FuseLen(len(p.Instrs)); got != 0 {
		t.Errorf("FuseLen(len) = %d, want 0", got)
	}
}

// TestSuperblockBudgetBoundary exercises the instruction budget against
// fused-block boundaries: the budget landing exactly on a block end,
// mid-block (forcing the per-µop fallback to the exact exhaustion
// point), and one instruction short of the halt. In every case the
// superblock run must stop at the same instruction, with the same
// error and the same architectural state, as the interpreter.
func TestSuperblockBudgetBoundary(t *testing.T) {
	// 8 fusible instructions, then halt: fuse[0] = 8 (EmitWord extends
	// the run), so budgets 1..8 all cut the entry block.
	build := func() *program.Program {
		b := asm.New("budget")
		b.Func("main")
		for i := 0; i < 7; i++ {
			b.AddI(isa.R1, isa.R1, 1)
		}
		b.EmitWord()
		b.Exit()
		return b.MustBuild()
	}
	p := build()
	c := Compile(p, WordLayout(p.TextBase, len(p.Instrs)))
	if got := c.FuseLen(0); got != 8 {
		t.Fatalf("entry fuse length = %d, want 8", got)
	}
	for _, max := range []uint64{1, 4, 7, 8, 9} {
		n := superblockCompare(t, p, max)
		want := max
		if want > 9 {
			want = 9
		}
		if n != want {
			t.Errorf("MaxInstrs %d: executed %d instructions, want %d", max, n, want)
		}
	}
}

// TestSuperblockFaultMidBlock pins mid-block fault semantics: a fault
// in the middle of a fused straight-line run must surface the same
// rendered error as Step, with the instructions before the fault
// committed, the PC resting on the faulting instruction and the
// dynamic profile counting the faulting instruction exactly once.
func TestSuperblockFaultMidBlock(t *testing.T) {
	b := asm.New("midfault")
	b.Zero("buf", 64)
	b.Func("main")
	b.Lea(isa.R1, "buf")
	b.AddI(isa.R2, isa.R1, 2) // misaligned word address
	b.AddI(isa.R3, isa.R3, 5) // committed before the fault
	b.Ldr(isa.R0, isa.R2, 0)  // faults mid-block
	b.AddI(isa.R4, isa.R4, 9) // never executes
	b.EmitWord()
	b.Exit()
	p := b.MustBuild()
	c := Compile(p, WordLayout(p.TextBase, len(p.Instrs)))
	if got := c.FuseLen(0); got < 5 {
		t.Fatalf("entry fuse length = %d, want the faulting load inside one block", got)
	}
	superblockCompare(t, p, 0)

	// And directly: the fault is an ExecError naming the load.
	l := WordLayout(p.TextBase, len(p.Instrs))
	m := New(p, l)
	err := m.RunSuperblocks(c)
	if err == nil {
		t.Fatal("mid-block fault did not surface")
	}
	var ee *ExecError
	if !asExecError(err, &ee) {
		t.Fatalf("mid-block fault is %T, want *ExecError", err)
	}
	if ee.Idx != 3 || !strings.Contains(ee.Detail, "misaligned") {
		t.Fatalf("fault = idx %d %q, want idx 3 misaligned", ee.Idx, ee.Detail)
	}
	if m.PCIdx != 3 || m.InstrCount != 4 || m.Regs[isa.R4] != 0 || m.Regs[isa.R3] != 5 {
		t.Fatalf("post-fault state: PC %d count %d r3 %d r4 %d",
			m.PCIdx, m.InstrCount, m.Regs[isa.R3], m.Regs[isa.R4])
	}
}

// asExecError is errors.As specialised to *ExecError without importing
// errors (the fault values here are returned directly, never wrapped).
func asExecError(err error, out **ExecError) bool {
	ee, ok := err.(*ExecError)
	if ok {
		*out = ee
	}
	return ok
}

// TestSuperblockExitBranchFinal covers blocks whose exit branch is the
// program's very last instruction: the backward unconditional B closing
// the loop body, and — in the faulting variant — a conditional branch
// whose fall-through runs off the end of the program, which must fault
// with the interpreter's exact out-of-range error.
func TestSuperblockExitBranchFinal(t *testing.T) {
	t.Run("halts", func(t *testing.T) {
		b := asm.New("finalb")
		b.Func("main")
		b.MovI(isa.R0, 3)
		b.B("loop")
		b.Label("done")
		b.EmitWord()
		b.Exit()
		b.Label("loop")
		b.AddI(isa.R1, isa.R1, 7)
		b.SubsI(isa.R0, isa.R0, 1)
		b.Beq("done")
		b.B("loop") // exit branch of the loop block, final instruction
		p := b.MustBuild()
		if n := superblockCompare(t, p, 0); n == 0 {
			t.Fatal("no instructions executed")
		}
	})
	t.Run("falls off the end", func(t *testing.T) {
		b := asm.New("finalbc")
		b.Func("main")
		b.MovI(isa.R0, 2)
		b.Label("loop")
		b.AddI(isa.R1, isa.R1, 7)
		b.SubsI(isa.R0, isa.R0, 1)
		b.Bne("loop")
		b.B("loop") // satisfies the builder; truncated below
		p := b.MustBuild()
		// Drop the trailing B so the conditional branch is the final
		// instruction: once R0 hits zero, execution falls through past
		// the end of the program and must fault out of range.
		p.Instrs = p.Instrs[:len(p.Instrs)-1]
		superblockCompare(t, p, 0)
	})
}

// TestSuperblockMismatchRejected mirrors the compiled-path test: a
// table built from a foreign program, or no table at all, is rejected
// up front on both entry points.
func TestSuperblockMismatchRejected(t *testing.T) {
	p1, p2 := straightLine(4), mixedProgram()
	l1 := WordLayout(p1.TextBase, len(p1.Instrs))
	wrong := Compile(p2, WordLayout(p2.TextBase, len(p2.Instrs)))
	if err := New(p1, l1).RunSuperblocks(wrong); err == nil {
		t.Error("RunSuperblocks accepted a foreign table")
	}
	if err := New(p1, l1).RunSuperblocks(nil); err == nil {
		t.Error("RunSuperblocks accepted a nil table")
	}
	if err := New(p1, l1).RunSuperblocksN(wrong, 10); err == nil {
		t.Error("RunSuperblocksN accepted a foreign table")
	}
	if err := New(p1, l1).RunSuperblocksN(nil, 10); err == nil {
		t.Error("RunSuperblocksN accepted a nil table")
	}
}

// TestRunSuperblocksN pins the bounded run used by the sampled
// simulator: it stops at the exact instruction boundary even when that
// boundary splits a fused block, resumes seamlessly, and matches the
// interpreter stepped the same number of times.
func TestRunSuperblocksN(t *testing.T) {
	p := mixedProgram()
	l := WordLayout(p.TextBase, len(p.Instrs))
	c := Compile(p, l)

	ms := New(p, l)
	mi := New(p, l)
	var total uint64
	for _, n := range []uint64{1, 2, 3, 5, 8, 13, 100, 1, 7} {
		if err := ms.RunSuperblocksN(c, n); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n && !mi.Halted; i++ {
			if _, err := mi.Step(); err != nil {
				t.Fatal(err)
			}
		}
		total += n
		if want := mi.InstrCount; ms.InstrCount != want {
			t.Fatalf("after %d bounded instrs: superblock count %d, interpreter %d",
				total, ms.InstrCount, want)
		}
		if ms.Regs != mi.Regs || ms.PCIdx != mi.PCIdx || ms.Halted != mi.Halted {
			t.Fatalf("after %d bounded instrs: state divergence (PC %d/%d)",
				total, ms.PCIdx, mi.PCIdx)
		}
		if ms.Halted {
			break
		}
	}
	if !ms.Halted {
		// Finish both and confirm they still agree.
		if err := ms.RunSuperblocks(c); err != nil {
			t.Fatal(err)
		}
		if err := mi.Run(); err != nil {
			t.Fatal(err)
		}
		if ms.InstrCount != mi.InstrCount || ms.Regs != mi.Regs {
			t.Fatal("divergence after completing the bounded run")
		}
	}
}

// TestRunSuperblocksWarmOnce pins the warm-once witness on a loop whose
// body is one fused block: a block the budget cuts short is witnessed
// as one instruction and stays unmarked, a whole batch is witnessed
// once and marked, and the machine ends where the per-batch witness's
// run does. A set too small for the program is an error.
func TestRunSuperblocksWarmOnce(t *testing.T) {
	b := asm.New("warmonce")
	b.Func("main")
	b.MovI(isa.R11, 3) // 0: fuse[0] = 5
	b.Label("loop")
	for i := 0; i < 3; i++ {
		b.AddI(isa.R1, isa.R1, 1) // 1–3
	}
	b.SubsI(isa.R11, isa.R11, 1) // 4: ends the fusible run 1–4
	b.Bne("loop")                // 5: not fusible
	b.Exit()                     // 6: not fusible
	p := b.MustBuild()
	l := WordLayout(p.TextBase, len(p.Instrs))
	c := Compile(p, l)
	if c.FuseLen(0) != 5 || c.FuseLen(1) != 4 {
		t.Fatalf("fuse lengths %d, %d, want 5, 4", c.FuseLen(0), c.FuseLen(1))
	}
	type span struct{ lo, hi uint32 }
	var once, every []span
	addr := func(i int) uint32 { return p.TextBase + 4*uint32(i) }

	mo := New(p, l)
	defer mo.Release()
	seen := make([]uint64, 1)
	rec := func(lo, hi uint32) { once = append(once, span{lo, hi}) }
	if err := mo.RunSuperblocksWarmOnce(c, 1, rec, seen); err != nil {
		t.Fatal(err)
	}
	if seen[0] != 0 {
		t.Errorf("a block cut short by the budget was marked: set %#b", seen[0])
	}
	if err := mo.RunSuperblocksWarmOnce(c, 1<<20, rec, seen); err != nil {
		t.Fatal(err)
	}
	want := []span{{addr(0), addr(1)}, {addr(1), addr(5)}, {addr(5), addr(6)}, {addr(6), addr(7)}}
	if !slices.Equal(once, want) {
		t.Errorf("warm-once witnessed %v, want %v", once, want)
	}
	if seen[0] != 1<<1|1<<5|1<<6 {
		t.Errorf("warm-once set %#b, want %#b", seen[0], 1<<1|1<<5|1<<6)
	}

	me := New(p, l)
	defer me.Release()
	if err := me.RunSuperblocksWarm(c, 1, func(lo, hi uint32) { every = append(every, span{lo, hi}) }); err != nil {
		t.Fatal(err)
	}
	if err := me.RunSuperblocksWarm(c, 1<<20, func(lo, hi uint32) { every = append(every, span{lo, hi}) }); err != nil {
		t.Fatal(err)
	}
	if len(every) != 8 {
		t.Errorf("per-batch witness saw %d batches, want 8: %v", len(every), every)
	}
	if mo.InstrCount != me.InstrCount || mo.Regs != me.Regs || mo.PCIdx != me.PCIdx || !mo.Halted || !me.Halted {
		t.Errorf("warm-once run ended at %d instrs, PC %d; per-batch at %d, PC %d",
			mo.InstrCount, mo.PCIdx, me.InstrCount, me.PCIdx)
	}

	mb := New(p, l)
	defer mb.Release()
	if err := mb.RunSuperblocksWarmOnce(c, 1, rec, nil); err == nil {
		t.Error("an empty warm-once set was accepted")
	}
}

// TestSuperblockZeroAlloc pins the allocation guarantee of the
// functional run loop, stepCompiled fallbacks included: with Output
// pre-sized, a whole-program run performs zero heap allocations.
func TestSuperblockZeroAlloc(t *testing.T) {
	p := mixedProgram()
	l := WordLayout(p.TextBase, len(p.Instrs))
	c := Compile(p, l)
	const runs = 8
	machines := make([]*Machine, runs+1)
	for i := range machines {
		machines[i] = New(p, l)
		machines[i].Output = make([]uint32, 0, 8)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := machines[next]
		next++
		if err := m.RunSuperblocks(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("superblock steady state allocated %.1f times per run, want 0", allocs)
	}
}
