package sim

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/asm/asmfuzz"
	"powerfits/internal/cache"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
)

// warmRun is one sampled run of cfg with the warm-once witness on or
// off (the per-batch reference, which also keeps the residency probe),
// and its witness call count.
func warmRun(s *Setup, cfg Config, opt SampleOptions, once bool) (*Result, int, error) {
	var out [1]*Result
	probe := warmProbe{everyBatch: !once}
	err := s.runSampled([]Config{cfg}, power.DefaultCalibration(), opt, nil, out[:], &probe)
	return out[0], probe.witnessed, err
}

// sameSampled reports the first way two results differ, comparing with
// ==: the PipeResult with its Output, the cache statistics, the power
// report, the access energy and the sampling statistics.
func sameSampled(a, b *Result) string {
	pa, pb := *a.Pipe, *b.Pipe
	pa.Output, pb.Output = nil, nil
	switch {
	case !reflect.DeepEqual(pa, pb): // uint64 counters: DeepEqual is ==
		return fmt.Sprintf("PipeResult %+v vs %+v", pa, pb)
	case !slices.Equal(a.Pipe.Output, b.Pipe.Output):
		return "Output"
	case a.Cache != b.Cache:
		return fmt.Sprintf("cache stats %+v vs %+v", a.Cache, b.Cache)
	case a.Power != b.Power:
		return fmt.Sprintf("power report %+v vs %+v", a.Power, b.Power)
	case a.AccessPJ != b.AccessPJ:
		return fmt.Sprintf("AccessPJ %v vs %v", a.AccessPJ, b.AccessPJ)
	case (a.Sampled == nil) != (b.Sampled == nil) || a.Sampled != nil && *a.Sampled != *b.Sampled:
		return fmt.Sprintf("SampleStats %+v vs %+v", a.Sampled, b.Sampled)
	}
	return ""
}

// TestWarmOnceMatchesEveryBatchWitness runs every kernel on every
// configuration, at scale 1 and at its default scale, with the sampled
// fast-forward witnessing each block once where the cache holds the
// text, and again witnessing every batch and probing residency, and
// requires identical results. Holding passes that fast-forward must
// call the witness fewer times; the others (jpeg's ARM8) the same
// number of times.
func TestWarmOnceMatchesEveryBatchWitness(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			for _, scale := range []int{1, k.DefaultScale} {
				s, err := PrepareWith(k, scale, PrepareOptions{Synth: synth.DefaultOptions()})
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range Configs {
					on, nOn, err := warmRun(s, cfg, SampleOptions{}, true)
					if err != nil {
						t.Fatal(err)
					}
					off, nOff, err := warmRun(s, cfg, SampleOptions{}, false)
					if err != nil {
						t.Fatal(err)
					}
					if d := sameSampled(on, off); d != "" {
						t.Errorf("scale %d %s: warm-once differs from the per-batch witness in %s", scale, cfg.Name, d)
					}
					switch {
					case !s.holds(cfg) && nOn != nOff:
						t.Errorf("scale %d %s: a non-holding pass witnessed %d batches, the reference %d", scale, cfg.Name, nOn, nOff)
					case s.holds(cfg) && nOff > 0 && nOn >= nOff:
						t.Errorf("scale %d %s: a holding pass witnessed %d batches, no fewer than the reference's %d", scale, cfg.Name, nOn, nOff)
					}
				}
			}
		})
	}
}

// FuzzWarmOnce builds a loop around two fuzzer-made bodies (the asmfuzz
// generator) and runs it with the sampled estimator on a fuzzer-drawn
// cache, holding the text or not, under a small fuzzer-drawn sampling
// schedule, with the warm-once witness on and off. The two runs must
// agree exactly: error, and the whole Result.
func FuzzWarmOnce(f *testing.F) {
	f.Add(byte(0), byte(7), uint32(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(byte(0x1a), byte(0xe5), uint32(0x0c0b0a09), []byte{0, 3, 3, 1, 6, 0, 4, 9, 7, 4, 0, 2, 5, 5, 5, 5})
	f.Add(byte(0x10), byte(0xC3), uint32(0x01020304), []byte{3, 0, 1, 9, 4, 2, 1, 8, 0, 6, 6, 1, 2, 2, 2, 2, 6, 7, 7, 7})
	f.Fuzz(func(t *testing.T, geom, loop byte, sched uint32, raw []byte) {
		b := asm.New("fuzz")
		b.Zero("buf", 256)
		b.Func("main")
		b.Lea(isa.R1, "buf")
		b.MovI(isa.R11, (int32(loop%32)+1)*16)
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
		// 8–32-byte lines, 1–4 ways, 1–8 sets: 8 bytes to 1 KiB, so
		// some caches hold the text and some evict.
		line := 8 << (geom % 3)
		g := cache.Config{LineBytes: line, Assoc: 1 << (geom / 3 % 3), SizeBytes: line << (geom / 3 % 3) << (geom / 9 % 4)}
		cfg := Config{Name: "fuzz", ISA: ISAARM, Cache: g}
		// A head, warmup and window of a few to a few dozen
		// instructions (none zero, which would take the defaults), and a
		// fast-forward of 1 to 128 more per period.
		opt := SampleOptions{
			HeadInstrs:   uint64(sched&0x3F) + 1,
			WindowInstrs: uint64(sched>>6&0x1F) + 1,
			WarmupInstrs: uint64(sched>>11&0xF) + 1,
			MinWindows:   2,
		}
		opt.PeriodInstrs = opt.WindowInstrs + opt.WarmupInstrs + uint64(sched>>15&0x7F) + 1
		s := &Setup{Kernel: kernels.Kernel{Name: "fuzz"}, Prog: p, ArmImage: im}
		on, nOn, onErr := warmRun(s, cfg, opt, true)
		off, nOff, offErr := warmRun(s, cfg, opt, false)
		if (onErr == nil) != (offErr == nil) || onErr != nil && onErr.Error() != offErr.Error() {
			t.Fatalf("errors differ: warm-once %v, per-batch %v", onErr, offErr)
		}
		if onErr != nil {
			return
		}
		if d := sameSampled(on, off); d != "" {
			t.Fatalf("warm-once differs from the per-batch witness in %s (cache %+v, holds %t, %+v)", d, g, s.holds(cfg), opt)
		}
		if nOn > nOff {
			t.Fatalf("warm-once witnessed %d batches, the reference %d", nOn, nOff)
		}
	})
}

// TestHoldingPassResidencyNeverFails keeps the residency probe in
// holding passes, where Replay trusts residency without it, and
// requires that the probe never finds a line missing: a segment is
// memoized only when every fetch hit, and a cache that holds the text
// never evicts.
// It covers every kernel at scales 1 and 4, exact and sampled, with
// each image's configurations grouped into passes as the suite runs
// them.
func TestHoldingPassResidencyNeverFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite exactly and sampled at two scales")
	}
	var probes, failed atomic.Int64
	probeHolding = func(resident bool) {
		probes.Add(1)
		if !resident {
			failed.Add(1)
		}
	}
	t.Cleanup(func() { probeHolding = nil })
	cal := power.DefaultCalibration()
	t.Run("suite", func(t *testing.T) {
		for _, k := range kernels.All() {
			t.Run(k.Name, func(t *testing.T) {
				t.Parallel()
				for _, scale := range []int{1, 4} {
					s, err := PrepareWith(k, scale, PrepareOptions{Synth: synth.DefaultOptions()})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.RunAll(Configs, cal, RunOptions{}); err != nil {
						t.Fatal(err)
					}
					if _, err := s.RunAll(Configs, cal, RunOptions{Sample: &SampleOptions{}}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	})
	t.Logf("%d residency probes in holding passes, %d failed", probes.Load(), failed.Load())
	if probes.Load() == 0 {
		t.Error("no residency probe ran in a holding pass")
	}
	if failed.Load() != 0 {
		t.Errorf("%d residency probes in holding passes found a line missing", failed.Load())
	}
}
