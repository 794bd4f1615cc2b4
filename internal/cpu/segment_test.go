package cpu_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/asm/asmfuzz"
	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// memoRun is everything a timing run leaves behind: its result, the
// cache's statistics, the power report and access energy, and the
// machine.
type memoRun struct {
	pipe     cpu.PipeResult
	stats    cache.Stats
	report   power.Report
	accessPJ float64
	m        *cpu.Machine
	replayed uint64
}

// memoMode selects how runMemo times a program: on the plain cycle
// loop, with the segment memo through the plain fetch port, or with the
// memo through the port of a pass whose cache holds the text, which
// trusts residency and counts replayed hits in bulk.
type memoMode int

const (
	cycleLoop memoMode = iota
	memoPlain
	memoHolding
)

// runMemo times prog on a fresh cache of geometry geom in the given
// mode, under the instruction budget max (0 = 1<<32). A positive window
// runs it in RunUntil windows of that many instructions, as the sampled
// simulator does, with a functional step and a Resync after each when
// resync is set. The caller releases the returned machine. A holding
// run is an error when the cache cannot hold the text.
func runMemo(t testing.TB, prog *program.Program, im *program.Image, dec *cpu.Decoded, geom cache.Config, mode memoMode, max, window uint64, resync bool) (memoRun, error) {
	t.Helper()
	c := cache.MustNew(geom)
	meter := power.MustNewMeter(geom, power.DefaultCalibration())
	pc := cpu.DefaultPipeConfig()
	pc.MaxInstrs = 1 << 32
	if max > 0 {
		pc.MaxInstrs = max
	}
	port := sim.NewFetchPort(c, im, pc.BlockBytes, meter.Stream())
	if mode == memoHolding {
		var err error
		if port, err = sim.NewHoldingFetchPort(c, im, pc.BlockBytes, meter.Stream()); err != nil {
			return memoRun{}, err
		}
	}
	m := cpu.New(prog, cpu.ImageLayout(im))
	var r memoRun
	r.m = m
	run, err := cpu.NewPipelineRun(m, pc, port, dec, &r.pipe)
	if err != nil {
		return r, err
	}
	defer run.Release()
	if mode == cycleLoop {
		cpu.NoMemo(run)
	}
	if window == 0 {
		err = run.RunUntil(math.MaxUint64)
	}
	for window > 0 && err == nil && !run.Done() {
		if err = run.RunUntil(m.InstrCount + window); err == nil && resync && !m.Halted {
			if _, err = m.Step(); err == nil {
				err = run.Resync()
			}
		}
	}
	r.stats, r.report, r.accessPJ, r.replayed = c.Stats(), meter.Report(), meter.AccessPJ(), run.Replayed()
	return r, err
}

// sameRun reports the first way two runs differ, or "".
func sameRun(a, b memoRun) string {
	switch {
	case !reflect.DeepEqual(a.pipe, b.pipe):
		return "PipeResult"
	case a.stats != b.stats:
		return "cache stats"
	case a.report != b.report:
		return "power report"
	case a.accessPJ != b.accessPJ:
		return "access energy"
	case a.m.Regs != b.m.Regs || a.m.N != b.m.N || a.m.Z != b.m.Z || a.m.C != b.m.C || a.m.V != b.m.V ||
		a.m.PCIdx != b.m.PCIdx || a.m.InstrCount != b.m.InstrCount || a.m.Halted != b.m.Halted:
		return "architectural state"
	case !a.m.MemEqual(b.m):
		return "memory"
	}
	return ""
}

// holdsText reports whether a cache of geometry geom holds im's text,
// so that runMemo can time it through a holding port.
func holdsText(geom cache.Config, im *program.Image) bool {
	_, err := sim.NewHoldingFetchPort(cache.MustNew(geom), im, cpu.DefaultPipeConfig().BlockBytes,
		power.MustNewMeter(geom, power.DefaultCalibration()).Stream())
	return err == nil
}

// TestSegmentMemoMatchesCycleLoop runs every kernel on every
// configuration with the segment memo on and off and requires the two
// to agree field for field: timing result, output, cache statistics,
// power report and access energy, registers and memory. A configuration
// whose cache holds the text also runs the memo through the holding
// port, as its pass does. At scale 4 (qsort and jpeg, the suite's
// heaviest) it also requires the memo to engage: at least 90 % of the
// instructions are timed by replay.
func TestSegmentMemoMatchesCycleLoop(t *testing.T) {
	type job struct {
		name  string
		scale int
	}
	var jobs []job
	for _, k := range kernels.All() {
		jobs = append(jobs, job{k.Name, 1})
	}
	jobs = append(jobs, job{"qsort", 4}, job{"jpeg", 4})
	var replayed, instrs uint64
	holding := 0
	for _, j := range jobs {
		s, err := sim.PrepareWith(kernels.MustGet(j.name), j.scale, sim.PrepareOptions{Synth: synth.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range sim.Configs {
			prog, im, dec := s.Prog, s.ArmImage, s.ArmDecoded
			if cfg.ISA == sim.ISAFITS {
				prog, im, dec = s.Fits.Lowered, s.Fits.Image, s.FitsDecoded
			}
			on, err := runMemo(t, prog, im, dec, cfg.Cache, memoPlain, 0, 0, false)
			if err != nil {
				t.Fatalf("%s@%d %s: %v", j.name, j.scale, cfg.Name, err)
			}
			off, err := runMemo(t, prog, im, dec, cfg.Cache, cycleLoop, 0, 0, false)
			if err != nil {
				t.Fatalf("%s@%d %s (no memo): %v", j.name, j.scale, cfg.Name, err)
			}
			if d := sameRun(on, off); d != "" {
				t.Errorf("%s@%d %s: memoized run differs from the cycle loop in %s", j.name, j.scale, cfg.Name, d)
			}
			if holdsText(cfg.Cache, im) {
				holding++
				hold, err := runMemo(t, prog, im, dec, cfg.Cache, memoHolding, 0, 0, false)
				if err != nil {
					t.Fatalf("%s@%d %s (holding): %v", j.name, j.scale, cfg.Name, err)
				}
				if d := sameRun(hold, off); d != "" {
					t.Errorf("%s@%d %s: memoized run through the holding port differs from the cycle loop in %s",
						j.name, j.scale, cfg.Name, d)
				}
				hold.m.Release()
			}
			if off.replayed != 0 {
				t.Errorf("%s@%d %s: plain cycle loop replayed %d instructions", j.name, j.scale, cfg.Name, off.replayed)
			}
			if j.scale == 4 {
				replayed += on.replayed
				instrs += on.pipe.Instrs
			}
			on.m.Release()
			off.m.Release()
		}
	}
	if holding == 0 {
		t.Error("no configuration ran through the holding port")
	}
	frac := float64(replayed) / float64(instrs)
	t.Logf("scale 4: %.1f %% of %d instructions replayed; %d runs through the holding port", 100*frac, instrs, holding)
	if frac < 0.9 {
		t.Errorf("scale 4: the memo replayed %.1f %% of instructions, want at least 90 %%", 100*frac)
	}
}

// TestSegmentCountersCovered pins the memo's counter list to PipeResult:
// a counter added to the result must be added to the segment deltas.
func TestSegmentCountersCovered(t *testing.T) {
	n := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(cpu.PipeResult{})) {
		if f.Type.Kind() == reflect.Uint64 && f.Name != "Cycles" {
			n++
		}
	}
	if n != cpu.SegCounters {
		t.Errorf("PipeResult has %d counters besides Cycles, the segment memo carries %d", n, cpu.SegCounters)
	}
}

// FuzzMemoVsCycleLoop builds a loop around two fuzzer-made bodies (the
// generator of FuzzBuilderProgramExecution) with a fuzzer-chosen
// conditional branch between them, and times it on a small fuzzer-chosen
// cache, so that evictions land mid-run, with the segment memo on and
// off, and, when the cache holds the text, with the memo through the
// holding port too. The runs must agree exactly: error, timing result
// and output, cache statistics, power report and access energy,
// registers and memory. Some inputs run
// in windows with Resyncs between, like the sampled simulator, and a
// non-zero budget sets PipeConfig.MaxInstrs, so that the budget runs out
// inside a segment or a fused run.
func FuzzMemoVsCycleLoop(f *testing.F) {
	f.Add(byte(0), byte(7), uint16(0), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0))
	f.Add(byte(0x25), byte(30), uint16(13), []byte{0, 3, 3, 1, 6, 0, 4, 9, 7, 4, 0, 2, 5, 5, 5, 5}, uint16(0))
	f.Add(byte(0x10), byte(0xC3), uint16(0x8007), []byte{3, 0, 1, 9, 4, 2, 1, 8, 0, 6, 6, 1, 2, 2, 2, 2, 6, 7, 7, 7}, uint16(0))
	f.Add(byte(0x25), byte(30), uint16(0), []byte{0, 3, 3, 1, 6, 0, 4, 9, 7, 4, 0, 2, 5, 5, 5, 5}, uint16(57))
	f.Add(byte(0x10), byte(0xC3), uint16(0x8007), []byte{3, 0, 1, 9, 4, 2, 1, 8, 0, 6, 6, 1, 2, 2, 2, 2, 6, 7, 7, 7}, uint16(200))
	f.Fuzz(func(t *testing.T, geom, loop byte, windows uint16, raw []byte, budget uint16) {
		b := asm.New("fuzz")
		b.Zero("buf", 256)
		b.Func("main")
		b.Lea(isa.R1, "buf")
		b.MovI(isa.R11, int32(loop%32)+1)
		b.Label("loop")
		half := len(raw) / 2 &^ 3
		asmfuzz.Body(b, raw[:half])
		b.Bc(isa.Cond(loop>>5%7*2), "skip") // EQ, CS, MI, VS, HI, GE or GT
		asmfuzz.Body(b, raw[half:])
		b.Label("skip")
		b.SubsI(isa.R11, isa.R11, 1)
		b.Bne("loop")
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return
		}
		im, err := arm.Assemble(p)
		if err != nil {
			return
		}
		// 8–32-byte lines, 1–4 ways, 1–8 sets: 8 bytes to 1 KiB.
		line := 8 << (geom % 3)
		g := cache.Config{LineBytes: line, Assoc: 1 << (geom / 3 % 3), SizeBytes: line << (geom / 3 % 3) << (geom / 9 % 4)}
		d := cpu.Predecode(p, cpu.ImageLayout(im))
		window, resync := uint64(windows&0x7FFF), windows&0x8000 != 0
		off, offErr := runMemo(t, p, im, d, g, cycleLoop, uint64(budget), window, resync)
		defer off.m.Release()
		modes := []memoMode{memoPlain}
		if holdsText(g, im) {
			modes = append(modes, memoHolding)
		}
		for _, mode := range modes {
			on, onErr := runMemo(t, p, im, d, g, mode, uint64(budget), window, resync)
			defer on.m.Release()
			if (onErr == nil) != (offErr == nil) || onErr != nil && onErr.Error() != offErr.Error() {
				t.Fatalf("errors differ: memo %v (holding %t), cycle loop %v", onErr, mode == memoHolding, offErr)
			}
			if diff := sameRun(on, off); diff != "" {
				t.Fatalf("memoized run (holding %t) differs from the cycle loop in %s (cache %+v)", mode == memoHolding, diff, g)
			}
		}
	})
}

// TestMemoFusedRunFaults pins execSegment's fused runs at their edges: a
// loop the memo records and replays, then one fused run in which the
// j-th micro-op faults (a misaligned LDR, an STR past the end of memory,
// a PUSH below address 0), early or late in the run, or the
// instruction budget runs out inside it. The
// segment memo, which executes that run in one fused call, and the plain
// cycle loop, which steps it, must leave the same error, instruction
// count, PC, timing result and memory.
func TestMemoFusedRunFaults(t *testing.T) {
	build := func(j int, fault func(b *asm.Builder)) *program.Program {
		b := asm.New("fusedfault")
		b.Zero("buf", 64)
		b.Func("main")
		b.Lea(isa.R1, "buf")
		b.MovI(isa.R11, 6)
		b.Label("loop")
		b.Str(isa.R11, isa.R1, 4)
		b.SubsI(isa.R11, isa.R11, 1)
		b.Bne("loop")
		for range j {
			b.AddI(isa.R3, isa.R3, 5)
		}
		fault(b)
		b.AddI(isa.R4, isa.R4, 9)
		b.EmitWord()
		b.Exit()
		return b.MustBuild()
	}
	misaligned := func(b *asm.Builder) {
		b.AddI(isa.R2, isa.R1, 2)
		b.Ldr(isa.R0, isa.R2, 0)
	}
	pastEnd := func(b *asm.Builder) {
		b.MovImm32(isa.R2, program.MemSize-2)
		b.Str(isa.R0, isa.R2, 0)
	}
	belowZero := func(b *asm.Builder) {
		b.MovI(isa.SP, 4)
		b.Push(isa.R0, isa.R1, isa.R2)
	}
	cases := []struct {
		name  string
		j     int
		fault func(b *asm.Builder)
		max   uint64
		want  string
	}{
		{"misaligned LDR early", 0, misaligned, 0, "misaligned 4-byte access"},
		{"misaligned LDR late", 2, misaligned, 0, "misaligned 4-byte access"},
		{"STR past memory early", 0, pastEnd, 0, "out of memory"},
		{"STR past memory late", 4, pastEnd, 0, "out of memory"},
		{"PUSH below zero early", 0, belowZero, 0, "out of memory"},
		{"PUSH below zero late", 3, belowZero, 0, "out of memory"},
		{"budget inside the run", 4, misaligned, 3 + 6*3 + 2, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(tc.j, tc.fault)
			im, err := arm.Assemble(p)
			if err != nil {
				t.Fatal(err)
			}
			d := cpu.Predecode(p, cpu.ImageLayout(im))
			g := sim.ARM16.Cache
			on, onErr := runMemo(t, p, im, d, g, memoPlain, tc.max, 0, false)
			off, offErr := runMemo(t, p, im, d, g, cycleLoop, tc.max, 0, false)
			defer on.m.Release()
			defer off.m.Release()
			if onErr == nil || offErr == nil {
				t.Fatalf("no fault: memo %v, cycle loop %v", onErr, offErr)
			}
			if onErr.Error() != offErr.Error() {
				t.Fatalf("errors differ:\nmemo:       %v\ncycle loop: %v", onErr, offErr)
			}
			if !strings.Contains(onErr.Error(), tc.want) {
				t.Fatalf("error %q, want it to mention %q", onErr, tc.want)
			}
			if on.replayed == 0 {
				t.Error("the memo replayed nothing before the fused run")
			}
			if d := sameRun(on, off); d != "" {
				t.Fatalf("memoized run differs from the cycle loop in %s (InstrCount %d/%d, PC %d/%d)",
					d, on.m.InstrCount, off.m.InstrCount, on.m.PCIdx, off.m.PCIdx)
			}
		})
	}
}
