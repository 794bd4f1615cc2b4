package cpu

import (
	"reflect"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/program"
	"powerfits/internal/tracing"
)

// tracedPair runs one program through the pipeline twice — untraced and
// with the given sink — over identically configured ports, and returns
// both results and errors. The ports are separate instances so neither
// run perturbs the other.
func tracedPair(t *testing.T, p *program.Program, mkPort func() FetchPort, sink tracing.EventSink) (plain, traced PipeResult, perr, terr error) {
	t.Helper()
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPipeConfig()
	d := Predecode(p, ImageLayout(im))

	m1 := New(p, ImageLayout(im))
	perr = RunPipeline(m1, cfg, mkPort(), d, &plain, nil)
	m2 := New(p, ImageLayout(im))
	terr = RunPipeline(m2, cfg, mkPort(), d, &traced, sink)
	return plain, traced, perr, terr
}

// tracedPrograms is the equivalence corpus: dual-issue straight line,
// a predictable backward loop, and a mispredict-heavy alternating
// branch — together they reach every Emit site of the cycle loop.
func tracedPrograms() map[string]*program.Program {
	alt := asm.New("alt")
	alt.Func("main")
	alt.MovI(isa.R0, 100)
	alt.MovI(isa.R1, 0)
	alt.Label("top")
	alt.EorI(isa.R1, isa.R1, 1)
	alt.CmpI(isa.R1, 0)
	alt.Beq("skip")
	alt.AddI(isa.R2, isa.R2, 1)
	alt.Label("skip")
	alt.SubsI(isa.R0, isa.R0, 1)
	alt.Bne("top")
	alt.Exit()

	loop := asm.New("loop")
	loop.Func("main")
	loop.MovI(isa.R0, 200)
	loop.Label("top")
	loop.SubsI(isa.R0, isa.R0, 1)
	loop.Bne("top")
	loop.Exit()

	return map[string]*program.Program{
		"straight": straightLine(100),
		"loop":     loop.MustBuild(),
		"alt":      alt.MustBuild(),
	}
}

// TestTracedPipelineMatchesPlain asserts a traced run of the cycle loop
// is observationally identical to an untraced one — same PipeResult to
// the bit — while its event stream reconciles with the result's own
// counters, both on an ideal port and under injected miss stalls.
func TestTracedPipelineMatchesPlain(t *testing.T) {
	ports := map[string]func() FetchPort{
		"ideal":   func() FetchPort { return nil },
		"stalled": func() FetchPort { return &countingPort{stall: 24, every: 5} },
	}
	for pname, mkPort := range ports {
		for name, p := range tracedPrograms() {
			var c tracing.Counts
			plain, traced, perr, terr := tracedPair(t, p, mkPort, &c)
			tag := pname + "/" + name
			if perr != nil || terr != nil {
				t.Fatalf("%s: errors %v / %v", tag, perr, terr)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s: results diverge:\nplain:  %+v\ntraced: %+v", tag, plain, traced)
			}
			if got := c.Kind[tracing.KindFetch] + c.Kind[tracing.KindMiss]; got != traced.FetchAccesses {
				t.Errorf("%s: %d fetch+miss events, result counts %d accesses", tag, got, traced.FetchAccesses)
			}
			if c.MissStallCycles != traced.FetchStalls {
				t.Errorf("%s: miss events carry %d stall cycles, result %d", tag, c.MissStallCycles, traced.FetchStalls)
			}
			if c.Kind[tracing.KindBranch] != traced.Branches || c.Taken != traced.Taken {
				t.Errorf("%s: branch events %d/%d taken, result %d/%d",
					tag, c.Kind[tracing.KindBranch], c.Taken, traced.Branches, traced.Taken)
			}
			if c.Kind[tracing.KindMispredict] != traced.Mispredicts {
				t.Errorf("%s: %d mispredict events, result %d", tag, c.Kind[tracing.KindMispredict], traced.Mispredicts)
			}
			zero := traced.ZeroIssueMiss + traced.ZeroIssueBubble + traced.ZeroIssueFetch + traced.ZeroIssueHazard
			if c.Stalls() != zero {
				t.Errorf("%s: %d stall events, CPI stack counts %d zero-issue cycles", tag, c.Stalls(), zero)
			}
			if c.StallCycles[tracing.CauseMiss] != traced.ZeroIssueMiss ||
				c.StallCycles[tracing.CauseBubble] != traced.ZeroIssueBubble ||
				c.StallCycles[tracing.CauseFetch] != traced.ZeroIssueFetch ||
				c.StallCycles[tracing.CauseHazard] != traced.ZeroIssueHazard {
				t.Errorf("%s: per-cause stalls %v, CPI stack %d/%d/%d/%d", tag, c.StallCycles,
					traced.ZeroIssueMiss, traced.ZeroIssueBubble, traced.ZeroIssueFetch, traced.ZeroIssueHazard)
			}
		}
	}
}

// TestTracedPipelineFaultIdentity asserts a faulting program faults
// identically — same error string — traced and untraced.
func TestTracedPipelineFaultIdentity(t *testing.T) {
	b := asm.New("fault")
	b.Func("main")
	b.MovImm32(isa.R1, 0x0FFF0000) // far outside the data segment
	b.Ldr(isa.R0, isa.R1, 0)
	b.Exit()
	var c tracing.Counts
	_, _, perr, terr := tracedPair(t, b.MustBuild(), func() FetchPort { return nil }, &c)
	if perr == nil || terr == nil {
		t.Fatalf("fault program completed: plain %v, traced %v", perr, terr)
	}
	if perr.Error() != terr.Error() {
		t.Errorf("fault strings diverge:\nplain:  %v\ntraced: %v", perr, terr)
	}
}

// TestTracedNilSinkDelegates asserts RunPipeline with a nil sink is
// exactly the untraced run.
func TestTracedNilSinkDelegates(t *testing.T) {
	for name, p := range tracedPrograms() {
		plain, traced, perr, terr := tracedPair(t, p, func() FetchPort { return nil }, nil)
		if perr != nil || terr != nil {
			t.Fatalf("%s: errors %v / %v", name, perr, terr)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: nil-sink traced run diverges from plain run", name)
		}
	}
}
