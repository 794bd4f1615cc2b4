package cpu

import (
	"math"
	"reflect"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/program"
)

// mixedProgram exercises every predecode dimension: ALU, multiply,
// loads/stores, literal loads, stack transfers, predication, flag
// readers, forward and backward branches, and calls.
func mixedProgram() *program.Program {
	b := asm.New("mixed")
	b.Words("w", []uint32{3, 5, 7, 9})
	b.Func("main")
	b.Lea(isa.R1, "w")
	b.MovI(isa.R0, 0)
	b.MovI(isa.R4, 4)
	b.Label("top")
	b.MemPost(isa.LDR, isa.R2, isa.R1, 4)
	b.Mul(isa.R3, isa.R2, isa.R2)
	b.Add(isa.R0, isa.R0, isa.R3)
	b.CmpI(isa.R2, 5)
	b.If(isa.GT, isa.ADD, isa.R0, isa.R0, isa.R4) // predicated consumer of flags
	b.SubsI(isa.R4, isa.R4, 1)
	b.Bne("top") // backward conditional: predicted taken
	b.CmpI(isa.R0, 0)
	b.Beq("skip") // forward conditional: predicted not taken
	b.AddI(isa.R0, isa.R0, 1)
	b.Label("skip")
	b.Push(isa.R0, isa.R4)
	b.Pop(isa.R0, isa.R4)
	b.EmitWord()
	b.Exit()
	return b.MustBuild()
}

// TestPredecodeRecords checks every record of a representative program
// against the live isa/layout answers the pipeline used to recompute
// per cycle.
func TestPredecodeRecords(t *testing.T) {
	p := mixedProgram()
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	l := ImageLayout(im)
	d := Predecode(p, l)
	if d.Program() != p {
		t.Fatal("decoded table does not reference its program")
	}
	if len(d.Instrs) != len(p.Instrs) {
		t.Fatalf("decoded %d records for %d instructions", len(d.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		rec := d.Instrs[i]
		if want := l.AddrOf(i); rec.Addr != want {
			t.Errorf("instr %d (%s): Addr %#x want %#x", i, in, rec.Addr, want)
		}
		if want := l.AddrOf(i) + uint32(l.SizeOf(i)); rec.End != want {
			t.Errorf("instr %d (%s): End %#x want %#x", i, in, rec.End, want)
		}
		wantUses := uint32(in.Uses())
		if in.Predicated() || in.Op == isa.ADC || in.Op == isa.SBC {
			wantUses |= 1 << isa.NumRegs
		}
		if rec.Uses != wantUses {
			t.Errorf("instr %d (%s): Uses %#x want %#x", i, in, rec.Uses, wantUses)
		}
		if rec.Defs != in.Defs() {
			t.Errorf("instr %d (%s): Defs %#x want %#x", i, in, rec.Defs, in.Defs())
		}
		cls := in.Op.Class()
		wantMem := cls == isa.ClassMem || cls == isa.ClassLit || cls == isa.ClassStack
		if got := rec.Flags&DecMem != 0; got != wantMem {
			t.Errorf("instr %d (%s): DecMem %v want %v", i, in, got, wantMem)
		}
		if got := rec.Flags&DecMul != 0; got != (cls == isa.ClassMul) {
			t.Errorf("instr %d (%s): DecMul %v", i, in, got)
		}
		if got := rec.Flags&DecLoad != 0; got != in.Op.IsLoad() {
			t.Errorf("instr %d (%s): DecLoad %v want %v", i, in, got, in.Op.IsLoad())
		}
		if got := rec.Flags&DecBranch != 0; got != (cls == isa.ClassBranch) {
			t.Errorf("instr %d (%s): DecBranch %v", i, in, got)
		}
		if got := rec.Flags&DecSetsFlags != 0; got != (in.SetFlags || in.Op.IsCompare()) {
			t.Errorf("instr %d (%s): DecSetsFlags %v", i, in, got)
		}
		wantPred := true
		if in.Op == isa.BC {
			wantPred = in.TargetIdx <= i
		}
		if got := rec.Flags&DecPredTaken != 0; got != wantPred {
			t.Errorf("instr %d (%s): DecPredTaken %v want %v", i, in, got, wantPred)
		}
	}
}

// TestDecodedPathEquivalence pins bit-identical timing: a run over a
// fresh predecode table and a run over an explicitly shared table into
// a caller-provided result (which the run must reset) produce exactly
// the same PipeResult, including the CPI stack, with misses injected.
func TestDecodedPathEquivalence(t *testing.T) {
	p := mixedProgram()
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPipeConfig()
	d := Predecode(p, ImageLayout(im))

	mkPort := func() FetchPort { return &countingPort{stall: 24, every: 3} }
	viaFresh, err := runPipeline(New(p, ImageLayout(im)), cfg, mkPort())
	if err != nil {
		t.Fatal(err)
	}
	var viaShared PipeResult
	viaShared.Cycles = 123 // must be reset by the run
	if err := RunPipeline(New(p, ImageLayout(im)), cfg, mkPort(), d, &viaShared, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*viaFresh, viaShared) {
		t.Errorf("fresh vs shared table:\n%+v\n%+v", *viaFresh, viaShared)
	}
}

// TestDecodedMismatchRejected ensures a table built from one program
// cannot drive a machine running another.
func TestDecodedMismatchRejected(t *testing.T) {
	p1, p2 := straightLine(4), mixedProgram()
	im1, err := arm.Assemble(p1)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := arm.Assemble(p2)
	if err != nil {
		t.Fatal(err)
	}
	wrong := Predecode(p2, ImageLayout(im2))
	var res PipeResult
	if err := RunPipeline(New(p1, ImageLayout(im1)), DefaultPipeConfig(), nil, wrong, &res, nil); err == nil {
		t.Error("foreign decoded table accepted")
	}
	if err := RunPipeline(New(p1, ImageLayout(im1)), DefaultPipeConfig(), nil, nil, &res, nil); err == nil {
		t.Error("nil decoded table accepted")
	}
}

// TestPipelineSteadyStateZeroAlloc pins the tentpole allocation
// guarantee: with the table prebuilt, the result reused, and the machine
// constructed up front, a full timing run allocates nothing.
func TestPipelineSteadyStateZeroAlloc(t *testing.T) {
	p := mixedProgram()
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	d := Predecode(p, ImageLayout(im))
	cfg := DefaultPipeConfig()

	const runs = 8
	machines := make([]*Machine, runs+1)
	for i := range machines {
		machines[i] = New(p, ImageLayout(im))
		machines[i].Output = make([]uint32, 0, 8) // pre-size for EmitWord
	}
	var res PipeResult
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := machines[next]
		next++
		if err := RunPipeline(m, cfg, NullFetchPort, d, &res, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state cycle loop allocated %.1f times per run, want 0", allocs)
	}
}

// TestCycleBudgetOverflow is the regression test for the maxCycles
// overflow: a huge (but legal) MaxInstrs used to wrap cfg.MaxInstrs*64
// into a tiny cycle budget and abort healthy runs with a spurious
// deadlock error.
func TestCycleBudgetOverflow(t *testing.T) {
	p := straightLine(8)
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxInstrs := range []uint64{
		math.MaxUint64,
		math.MaxUint64 / 2, // *64 wraps
		math.MaxUint64 / 64,
		1 << 62,
	} {
		cfg := DefaultPipeConfig()
		cfg.MaxInstrs = maxInstrs
		if _, err := runPipeline(New(p, ImageLayout(im)), cfg, nil); err != nil {
			t.Errorf("MaxInstrs=%d: healthy run aborted: %v", maxInstrs, err)
		}
	}

	// The budget still catches genuinely exhausted runs.
	cfg := DefaultPipeConfig()
	cfg.MaxInstrs = math.MaxUint64
	m := New(p, ImageLayout(im))
	m.InstrCount = math.MaxUint64 // next Step errors: budget exhausted
	if _, err := runPipeline(m, cfg, nil); err == nil {
		t.Error("exhausted instruction budget not reported")
	}
}

// TestCycleBudgetClamp checks the saturation arithmetic directly.
func TestCycleBudgetClamp(t *testing.T) {
	cases := []struct {
		maxInstrs uint64
		want      uint64
	}{
		{0, 1 << 40},
		{100, 100*64 + 1<<20},
		{math.MaxUint64, math.MaxUint64},
		{math.MaxUint64 / 2, math.MaxUint64},
		{(math.MaxUint64 - 1<<20) / 64, (math.MaxUint64-1<<20)/64*64 + 1<<20},
	}
	for _, c := range cases {
		cfg := PipeConfig{MaxInstrs: c.maxInstrs}
		if got := cfg.cycleBudget(); got != c.want {
			t.Errorf("cycleBudget(MaxInstrs=%d) = %d, want %d", c.maxInstrs, got, c.want)
		}
	}
}
