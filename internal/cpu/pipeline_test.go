package cpu

import (
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/program"
)

// runPipeline runs m to halt through RunPipeline over a fresh predecode
// of its program into a fresh result, untraced.
func runPipeline(m *Machine, cfg PipeConfig, port FetchPort) (*PipeResult, error) {
	var res PipeResult
	if err := RunPipeline(m, cfg, port, Predecode(m.prog, m.layout), &res, nil); err != nil {
		return nil, err
	}
	return &res, nil
}

// pipeRun assembles a program to ARM and runs the timing pipeline over
// the given fetch port.
func pipeRun(t *testing.T, p *program.Program, port FetchPort) *PipeResult {
	t.Helper()
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ImageLayout(im))
	res, err := runPipeline(m, DefaultPipeConfig(), port)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// countingPort records every fetch and can inject a fixed miss stall.
type countingPort struct {
	fetches []uint32
	stall   int
	every   int
}

func (c *countingPort) FetchBlock(addr uint32) int {
	c.fetches = append(c.fetches, addr)
	if c.every > 0 && len(c.fetches)%c.every == 0 {
		return c.stall
	}
	return 0
}
func (c *countingPort) Tick() {}

// Replay can promise hits only when the port never stalls.
func (c *countingPort) Replay(lo, block uint32, n int) bool {
	if c.every != 0 {
		return false
	}
	for range n {
		c.FetchBlock(lo)
		lo += block
	}
	return true
}
func (c *countingPort) Summarize(dst []uint64, _, _ []uint32, _ uint32) []uint64 { return dst }
func (c *countingPort) ReplayUnit([]uint64) int                                  { return 0 }

func straightLine(n int) *program.Program {
	b := asm.New("straight")
	b.Func("main")
	b.MovI(isa.R0, 0)
	for i := 0; i < n; i++ {
		// Independent adds on alternating registers: dual-issueable.
		b.AddI(isa.R1, isa.R1, 1)
		b.AddI(isa.R2, isa.R2, 1)
	}
	b.Exit()
	return b.MustBuild()
}

func TestIPCBounds(t *testing.T) {
	res := pipeRun(t, straightLine(500), nil)
	if ipc := res.IPC(); ipc <= 0 || ipc > 2.0 {
		t.Errorf("IPC %f out of (0,2]", ipc)
	}
}

func TestFetchDemand(t *testing.T) {
	port := &countingPort{}
	res := pipeRun(t, straightLine(500), port)
	// One 4-byte access per 4-byte ARM instruction, ± small startup.
	if d := int64(len(port.fetches)) - int64(res.Instrs); d < -2 || d > 4 {
		t.Errorf("fetches %d vs instrs %d", len(port.fetches), res.Instrs)
	}
	if res.FetchAccesses != uint64(len(port.fetches)) {
		t.Errorf("access accounting mismatch: %d vs %d", res.FetchAccesses, len(port.fetches))
	}
	// Fetch addresses must be block-aligned and non-decreasing for
	// straight-line code.
	for i, a := range port.fetches {
		if a%4 != 0 {
			t.Fatalf("unaligned fetch %#x", a)
		}
		if i > 0 && a < port.fetches[i-1] {
			t.Fatalf("fetch went backwards without a branch")
		}
	}
}

func TestMissStallsSlowdown(t *testing.T) {
	p := straightLine(500)
	fast := pipeRun(t, p, &countingPort{})
	slow := pipeRun(t, p, &countingPort{stall: 20, every: 10})
	if slow.Cycles <= fast.Cycles {
		t.Errorf("stalls must cost cycles: %d vs %d", slow.Cycles, fast.Cycles)
	}
	if slow.FetchStalls == 0 {
		t.Error("stall cycles not recorded")
	}
	if slow.Instrs != fast.Instrs {
		t.Errorf("instruction count must not change: %d vs %d", slow.Instrs, fast.Instrs)
	}
}

func TestLoadUseStall(t *testing.T) {
	mk := func(dependent bool) *program.Program {
		b := asm.New("loaduse")
		b.Words("w", []uint32{7})
		b.Func("main")
		b.Lea(isa.R1, "w")
		b.MovI(isa.R3, 0)
		for i := 0; i < 200; i++ {
			b.Ldr(isa.R2, isa.R1, 0)
			if dependent {
				b.Add(isa.R3, isa.R3, isa.R2) // consumes the load immediately
			} else {
				b.AddI(isa.R4, isa.R4, 1) // independent filler
			}
		}
		b.Exit()
		return b.MustBuild()
	}
	// Under the default 4-byte fetch port the hazard hides behind the
	// fetch limit; use the full dual-issue bandwidth to observe it.
	wide := DefaultPipeConfig()
	wide.BlockBytes = 8
	run := func(p *program.Program) *PipeResult {
		im, err := arm.Assemble(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPipeline(New(p, ImageLayout(im)), wide, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dep := run(mk(true))
	indep := run(mk(false))
	if dep.Cycles <= indep.Cycles {
		t.Errorf("load-use hazard must cost cycles: %d vs %d", dep.Cycles, indep.Cycles)
	}
}

func TestBranchPrediction(t *testing.T) {
	// Backward loop branches are predicted taken: near-zero mispredicts.
	b := asm.New("loop")
	b.Func("main")
	b.MovI(isa.R0, 200)
	b.Label("top")
	b.SubsI(isa.R0, isa.R0, 1)
	b.Bne("top")
	b.Exit()
	res := pipeRun(t, b.MustBuild(), nil)
	if res.Taken < 190 {
		t.Errorf("taken = %d", res.Taken)
	}
	if res.Mispredicts > 2 {
		t.Errorf("backward loop mispredicted %d times", res.Mispredicts)
	}

	// Alternating forward branches mispredict about half the time
	// (forward predicted not-taken, taken every other iteration).
	b2 := asm.New("alt")
	b2.Func("main")
	b2.MovI(isa.R0, 200) // counter
	b2.MovI(isa.R1, 0)   // parity
	b2.Label("top")
	b2.EorI(isa.R1, isa.R1, 1)
	b2.CmpI(isa.R1, 0)
	b2.Beq("skip") // forward, taken when parity flips to 0
	b2.AddI(isa.R2, isa.R2, 1)
	b2.Label("skip")
	b2.SubsI(isa.R0, isa.R0, 1)
	b2.Bne("top")
	b2.Exit()
	res2 := pipeRun(t, b2.MustBuild(), nil)
	if res2.Mispredicts < 80 {
		t.Errorf("alternating forward branch mispredicts = %d, want ≈100", res2.Mispredicts)
	}
	if res2.Bubbles == 0 {
		t.Error("mispredicts must cost bubbles")
	}
}

func TestPipelineMatchesFunctional(t *testing.T) {
	// The timing model must not change architectural results.
	b := asm.New("check")
	b.Bytes("data", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.Func("main")
	b.Lea(isa.R1, "data")
	b.MovI(isa.R0, 0)
	b.MovI(isa.R2, 8)
	b.Label("l")
	b.MemPost(isa.LDRB, isa.R3, isa.R1, 1)
	b.Mla(isa.R0, isa.R3, isa.R3, isa.R0)
	b.SubsI(isa.R2, isa.R2, 1)
	b.Bne("l")
	b.EmitWord()
	b.Exit()
	p := b.MustBuild()

	ref, err := RunFunctional(p, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	res := pipeRun(t, p, &countingPort{stall: 24, every: 3})
	if len(res.Output) != 1 || res.Output[0] != ref.Output[0] {
		t.Errorf("pipeline output %v != functional %v", res.Output, ref.Output)
	}
}

func TestPipeConfigValidation(t *testing.T) {
	p := straightLine(4)
	im, err := arm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		cfg  PipeConfig
	}{
		{"zero issue width", PipeConfig{IssueWidth: 0, BlockBytes: 4}},
		{"negative issue width", PipeConfig{IssueWidth: -1, BlockBytes: 4}},
		{"zero block bytes", PipeConfig{IssueWidth: 2, BlockBytes: 0}},
		{"non-power-of-two block bytes", PipeConfig{IssueWidth: 2, BlockBytes: 6}},
		{"negative block bytes", PipeConfig{IssueWidth: 2, BlockBytes: -4}},
		{"negative load-use delay", PipeConfig{IssueWidth: 2, BlockBytes: 4, LoadUseDelay: -1}},
		{"negative mul latency", PipeConfig{IssueWidth: 2, BlockBytes: 4, MulLatency: -2}},
		{"negative mispredict penalty", PipeConfig{IssueWidth: 2, BlockBytes: 4, MispredictPenalty: -1}},
	}
	for _, tc := range bad {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
		if _, err := runPipeline(New(p, ImageLayout(im)), tc.cfg, nil); err == nil {
			t.Errorf("%s: RunPipeline accepted %+v", tc.name, tc.cfg)
		}
	}
	if err := DefaultPipeConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestCPIStackAccounting(t *testing.T) {
	res := pipeRun(t, straightLine(500), nil)
	zero := res.ZeroIssueMiss + res.ZeroIssueBubble + res.ZeroIssueFetch + res.ZeroIssueHazard
	if zero+res.DualIssueCycles > res.Cycles {
		t.Errorf("CPI stack overflows: %d zero + %d dual > %d cycles",
			zero, res.DualIssueCycles, res.Cycles)
	}
	if res.ZeroIssueMiss != 0 {
		t.Errorf("ideal memory reported %d miss-stall cycles", res.ZeroIssueMiss)
	}

	// With stalls injected, miss cycles must appear.
	slow := pipeRun(t, straightLine(500), &countingPort{stall: 20, every: 10})
	if slow.ZeroIssueMiss == 0 {
		t.Error("injected misses not attributed")
	}

	// A serial dependency chain shows hazard stalls under a wide fetch.
	b := asm.New("chain")
	b.Words("w", []uint32{1})
	b.Func("main")
	b.Lea(isa.R1, "w")
	for i := 0; i < 100; i++ {
		b.Ldr(isa.R2, isa.R1, 0)
		b.Add(isa.R3, isa.R2, isa.R2) // load-use every pair
	}
	b.Exit()
	wide := DefaultPipeConfig()
	wide.BlockBytes = 8
	im, err := arm.Assemble(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	m := New(b.MustBuild(), ImageLayout(im))
	res2, err := runPipeline(m, wide, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ZeroIssueHazard == 0 {
		t.Error("load-use chain produced no hazard-attributed cycles")
	}
}
