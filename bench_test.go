// Benchmark harness: one benchmark per paper table/figure (each
// regenerates the corresponding experiment) plus micro-benchmarks of the
// core substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks run the suite at scale 1 so a full -bench
// pass stays in CI territory; `cmd/fitsbench` runs the full-scale
// version and prints the tables.
package powerfits

import (
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"powerfits/internal/archive"
	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/experiments"
	"powerfits/internal/isa/arm"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/sweep"
	"powerfits/internal/synth"
	"powerfits/internal/tracing"
	"powerfits/internal/translate"
)

// ---- Shared preparation (synthesis is deterministic; prepare once) ----

var (
	prepOnce   sync.Once
	prepSetups []*sim.Setup
	prepErr    error
)

func preparedSetups(b *testing.B) []*sim.Setup {
	b.Helper()
	prepOnce.Do(func() {
		for _, k := range kernels.All() {
			s, err := sim.PrepareWith(k, 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				prepErr = err
				return
			}
			prepSetups = append(prepSetups, s)
		}
	})
	if prepErr != nil {
		b.Fatal(prepErr)
	}
	return prepSetups
}

// runConfigs re-measures the timing/power results the figure needs.
func runConfigs(b *testing.B, setups []*sim.Setup, cfgs ...sim.Config) *experiments.Suite {
	b.Helper()
	suite := &experiments.Suite{
		Setups:  setups,
		Results: make(map[string]map[string]*sim.Result),
		Cal:     power.DefaultCalibration(),
		Chip:    power.DefaultChipModel(),
	}
	for _, s := range setups {
		m := make(map[string]*sim.Result, len(cfgs))
		for _, cfg := range cfgs {
			r, err := s.Run(cfg, suite.Cal)
			if err != nil {
				b.Fatal(err)
			}
			m[cfg.Name] = r
		}
		suite.Results[s.Kernel.Name] = m
	}
	return suite
}

func allConfigs() []sim.Config { return sim.Configs }

func vsBaseline() []sim.Config {
	return []sim.Config{sim.ARM16, sim.ARM8, sim.FITS16, sim.FITS8}
}

// benchFigure regenerates one figure per iteration.
func benchFigure(b *testing.B, cfgs []sim.Config, table func(*experiments.Suite) *experiments.Table) {
	setups := preparedSetups(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite := runConfigs(b, setups, cfgs...)
		t := table(suite)
		// Per-benchmark figures carry one row per kernel; summary
		// tables (the headline) carry a single suite row.
		if len(t.Rows) != len(setups) && len(t.Rows) != 1 {
			b.Fatalf("figure %s covered %d/%d kernels", t.ID, len(t.Rows), len(setups))
		}
	}
}

// ---- One benchmark per paper figure ----

// BenchmarkFig03StaticMapping regenerates Figure 3 (static 1:1 mapping),
// re-running the ARM→FITS translation each iteration.
func BenchmarkFig03StaticMapping(b *testing.B) {
	setups := preparedSetups(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range setups {
			res, err := translate.Translate(s.Prog, s.Synth.Spec)
			if err != nil {
				b.Fatal(err)
			}
			if r := res.StaticMappingRate(); r < 0.8 {
				b.Fatalf("%s static mapping %.2f", s.Kernel.Name, r)
			}
		}
	}
}

// BenchmarkFig04DynamicMapping regenerates Figure 4 (dynamic mapping),
// re-profiling each kernel.
func BenchmarkFig04DynamicMapping(b *testing.B) {
	setups := preparedSetups(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range setups {
			prof, err := profile.Collect(s.Prog, 2e9)
			if err != nil {
				b.Fatal(err)
			}
			if r := s.Fits.DynamicMappingRate(prof.Dyn); r < 0.8 {
				b.Fatalf("%s dynamic mapping %.2f", s.Kernel.Name, r)
			}
		}
	}
}

// BenchmarkFig05CodeSize regenerates Figure 5 (ARM vs THUMB vs FITS
// code size), re-running both 16-bit encoders.
func BenchmarkFig05CodeSize(b *testing.B) {
	setups := preparedSetups(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range setups {
			ts, err := ThumbSize(s.Prog)
			if err != nil {
				b.Fatal(err)
			}
			res, err := translate.Translate(s.Prog, s.Synth.Spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Image.Size() >= s.ArmImage.Size() || ts.TotalBytes() <= 0 {
				b.Fatal("size ordering broken")
			}
		}
	}
}

// BenchmarkFig06PowerBreakdown regenerates Figure 6 (per-configuration
// power breakdown).
func BenchmarkFig06PowerBreakdown(b *testing.B) {
	benchFigure(b, allConfigs(), func(s *experiments.Suite) *experiments.Table {
		return s.Fig6(sim.ARM16)
	})
}

// BenchmarkFig07SwitchingSaving regenerates Figure 7.
func BenchmarkFig07SwitchingSaving(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Fig7)
}

// BenchmarkFig08InternalSaving regenerates Figure 8.
func BenchmarkFig08InternalSaving(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Fig8)
}

// BenchmarkFig09LeakageSaving regenerates Figure 9.
func BenchmarkFig09LeakageSaving(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Fig9)
}

// BenchmarkFig10PeakSaving regenerates Figure 10.
func BenchmarkFig10PeakSaving(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Fig10)
}

// BenchmarkFig11TotalCacheSaving regenerates Figure 11.
func BenchmarkFig11TotalCacheSaving(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Fig11)
}

// BenchmarkFig12ChipSaving regenerates Figure 12.
func BenchmarkFig12ChipSaving(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Fig12)
}

// BenchmarkFig13MissRate regenerates Figure 13.
func BenchmarkFig13MissRate(b *testing.B) {
	benchFigure(b, allConfigs(), (*experiments.Suite).Fig13)
}

// BenchmarkFig14IPC regenerates Figure 14.
func BenchmarkFig14IPC(b *testing.B) {
	benchFigure(b, allConfigs(), (*experiments.Suite).Fig14)
}

// BenchmarkHeadline regenerates the abstract's headline averages.
func BenchmarkHeadline(b *testing.B) {
	benchFigure(b, vsBaseline(), (*experiments.Suite).Headline)
}

// ---- Substrate micro-benchmarks ----

// BenchmarkFunctionalSimulator measures cpu.RunFunctional end to end:
// compiling the program to its micro-op table, then running it through
// compiled dispatch.
func BenchmarkFunctionalSimulator(b *testing.B) {
	p := kernels.MustGet("crc32").Build(1)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := cpu.RunFunctional(p, 2e9)
		if err != nil {
			b.Fatal(err)
		}
		instrs = m.InstrCount
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkTimingPipeline measures the cycle-accurate pipeline with
// cache and power models attached.
func BenchmarkTimingPipeline(b *testing.B) {
	s, err := sim.PrepareWith(kernels.MustGet("crc32"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	cal := power.DefaultCalibration()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(sim.FITS8, cal); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSteadyState measures the predecoded timing loop in isolation:
// per-iteration construction (cache, meter, port, machine) and the
// machine's Release run with the timer stopped, so each run leases the
// memory the last one released and ns/op is the cost of one full
// pipeline run over the shared predecode table; allocs/op must be
// exactly 0 — the steady-state cycle loop performs no heap allocations
// (Machine.Output is pre-sized for the kernel's emitted words). The
// port is the one the configuration's pass uses (fetchPort). cycles/s
// is the headline throughput the predecode layer is gated on (see
// DESIGN.md §9).
func benchSteadyState(b *testing.B, s *sim.Setup, cfg sim.Config) {
	cal := power.DefaultCalibration()
	pc := cpu.DefaultPipeConfig()
	prog, im, dec := s.Prog, s.ArmImage, s.ArmDecoded
	if cfg.ISA == sim.ISAFITS {
		prog, im, dec = s.Fits.Lowered, s.Fits.Image, s.FitsDecoded
	}
	var res cpu.PipeResult
	replayed, bulk := replayedFrac(b, prog, im, dec, cfg.Cache) // also warms the memo free list
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cache.MustNew(cfg.Cache)
		stream := power.MustNewMeter(cfg.Cache, cal).Stream()
		port := fetchPort(c, im, stream)
		m := cpu.New(prog, cpu.ImageLayout(im))
		m.Output = make([]uint32, 0, 64)
		b.StartTimer()
		if err := cpu.RunPipeline(m, pc, port, dec, &res, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cycles += res.Cycles
		m.Release()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(replayed, "replayed_frac")
	b.ReportMetric(bulk, "bulk_frac")
}

// fetchPort returns the fetch port a pass over c uses: the holding port
// when c holds the image text, the plain one otherwise.
func fetchPort(c *cache.Cache, im *program.Image, stream *power.Stream) cpu.FetchPort {
	block := cpu.DefaultPipeConfig().BlockBytes
	if port, err := sim.NewHoldingFetchPort(c, im, block, stream); err == nil {
		return port
	}
	return sim.NewFetchPort(c, im, block, stream)
}

// replayedFrac runs the image once, untimed, and returns the share of
// its instructions the segment memo replayed and the share of replayed
// fetches the port priced in bulk (the replay units' fetches past their
// first PeakWindow cycles): the runs are deterministic, so they are
// every timed run's shares too. The run leaves a memo grown for the
// image on the free list, so the timed runs after it allocate nothing.
func replayedFrac(b *testing.B, prog *program.Program, im *program.Image, dec *cpu.Decoded, geom cache.Config) (replayed, bulk float64) {
	pc := cpu.DefaultPipeConfig()
	stream := power.MustNewMeter(geom, power.DefaultCalibration()).Stream()
	m := cpu.New(prog, cpu.ImageLayout(im))
	defer m.Release()
	var res cpu.PipeResult
	run, err := cpu.NewPipelineRun(m, pc, fetchPort(cache.MustNew(geom), im, stream), dec, &res)
	if err != nil {
		b.Fatal(err)
	}
	defer run.Release()
	if err := run.RunUntil(math.MaxUint64); err != nil {
		b.Fatal(err)
	}
	fetches, priced := run.ReplayedFetches()
	return float64(run.Replayed()) / float64(res.Instrs), float64(priced) / float64(fetches)
}

// BenchmarkPipelineSteadyState is the pipeline's cycles/sec benchmark
// pair, one per ISA: the dominant inner loop of every experiment. ci.sh
// runs it with -benchtime=1x asserting 0 allocs/op.
func BenchmarkPipelineSteadyState(b *testing.B) {
	s, err := sim.PrepareWith(kernels.MustGet("crc32"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ARM16", func(b *testing.B) { benchSteadyState(b, s, sim.ARM16) })
	b.Run("FITS8", func(b *testing.B) { benchSteadyState(b, s, sim.FITS8) })
}

// BenchmarkPipelineSharedPass is the steady-state loop of a shared
// timing pass (sim.Setup.Passes): one pipeline run over the crc32 FITS
// image feeding the one power stream that FITS16's and FITS8's meters
// price, as the suite times both sizes of an image whose text both
// caches hold. ci.sh gates it at 0 allocs/op beside
// BenchmarkPipelineSteadyState.
func BenchmarkPipelineSharedPass(b *testing.B) {
	s, err := sim.PrepareWith(kernels.MustGet("crc32"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	if ps, err := s.Passes([]sim.Config{sim.FITS16, sim.FITS8}); err != nil || len(ps) != 1 {
		b.Fatal("crc32 FITS16 and FITS8 do not share a pass")
	}
	cal := power.DefaultCalibration()
	pc := cpu.DefaultPipeConfig()
	im := s.Fits.Image
	var res cpu.PipeResult
	replayed, bulk := replayedFrac(b, s.Fits.Lowered, im, s.FitsDecoded, sim.FITS16.Cache)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cache.MustNew(sim.FITS16.Cache)
		stream := power.MustNewMeter(sim.FITS16.Cache, cal).Stream()
		if _, err := stream.NewMeter(sim.FITS8.Cache); err != nil {
			b.Fatal(err)
		}
		port := fetchPort(c, im, stream)
		m := cpu.New(s.Fits.Lowered, cpu.ImageLayout(im))
		m.Output = make([]uint32, 0, 64)
		b.StartTimer()
		if err := cpu.RunPipeline(m, pc, port, s.FitsDecoded, &res, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cycles += res.Cycles
		m.Release()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(replayed, "replayed_frac")
	b.ReportMetric(bulk, "bulk_frac")
}

// benchTracedSteadyState is benchSteadyState with a sink passed to
// cpu.RunPipeline: the same timing loop with an event sink attached (or
// the nil sink, under which every Emit guard is not taken).
func benchTracedSteadyState(b *testing.B, s *sim.Setup, cfg sim.Config, mkSink func() tracing.EventSink) {
	cal := power.DefaultCalibration()
	pc := cpu.DefaultPipeConfig()
	prog, im, dec := s.Prog, s.ArmImage, s.ArmDecoded
	if cfg.ISA == sim.ISAFITS {
		prog, im, dec = s.Fits.Lowered, s.Fits.Image, s.FitsDecoded
	}
	var res cpu.PipeResult
	replayedFrac(b, prog, im, dec, cfg.Cache) // warms the memo free list for the nil sink
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cache.MustNew(cfg.Cache)
		stream := power.MustNewMeter(cfg.Cache, cal).Stream()
		port := sim.NewFetchPort(c, im, pc.BlockBytes, stream)
		m := cpu.New(prog, cpu.ImageLayout(im))
		m.Output = make([]uint32, 0, 64)
		sink := mkSink()
		b.StartTimer()
		if err := cpu.RunPipeline(m, pc, port, dec, &res, sink); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cycles += res.Cycles
		m.Release()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkPipelineTraced measures the timing loop with a sink
// argument. NilSink is the overhead contract ci.sh gates: a nil
// sink must stay at 0 allocs/op (tracing costs an untraced run one
// not-taken branch per Emit site). Ring captures every event into a
// preallocated ring — the sink Emit path is itself allocation-free, so
// this too must report 0 allocs/op; its ns/op vs NilSink is the tracing
// overhead quoted in DESIGN.md §12.
func BenchmarkPipelineTraced(b *testing.B) {
	s, err := sim.PrepareWith(kernels.MustGet("crc32"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("NilSink", func(b *testing.B) {
		benchTracedSteadyState(b, s, sim.FITS8, func() tracing.EventSink { return nil })
	})
	b.Run("Ring", func(b *testing.B) {
		ring := tracing.MustNewRing(1 << 16)
		b.ResetTimer()
		benchTracedSteadyState(b, s, sim.FITS8, func() tracing.EventSink { return ring })
	})
}

// benchMachineRun measures the functional machine end to end over the
// crc32 kernel with machine construction and Release outside the
// timer, so ns/op is one full program run on leased memory, as in a
// sweep, and allocs/op must be exactly 0 (Machine.Output is pre-sized;
// the fault path builds nothing until a fault actually fires).
func benchMachineRun(b *testing.B, p *program.Program, l cpu.Layout, run func(*cpu.Machine) error) {
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := cpu.New(p, l)
		m.MaxInstrs = 2e9
		m.Output = make([]uint32, 0, 64)
		b.StartTimer()
		if err := run(m); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		instrs += m.InstrCount
		m.Release()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkMachineSteadyState measures the instrs/sec of the functional
// run loop, the superblock executor over the compiled micro-op table
// (DESIGN.md §10), which profiling and cpu.RunFunctional use. ci.sh runs
// it with -benchtime=1x asserting 0 allocs/op.
func BenchmarkMachineSteadyState(b *testing.B) {
	p := kernels.MustGet("crc32").Build(1)
	l := cpu.WordLayout(p.TextBase, len(p.Instrs))
	c := cpu.Compile(p, l)
	b.Run("Superblock", func(b *testing.B) {
		benchMachineRun(b, p, l, func(m *cpu.Machine) error { return m.RunSuperblocks(c, math.MaxUint64, nil, nil, nil) })
	})
}

// BenchmarkSampledPipeline compares the sampled timing estimator
// against the full detailed pipeline it replaces, on one scale-1
// kernel and the paper's baseline configuration. The Full/Sampled
// ns/op ratio is the estimator's wall-clock win: with -count 10 on a
// shared 2-vCPU Xeon the median per-run ratio was 4.2× (IQR 4.0–5.0×,
// per-run 3.2–6.0×; README, "Simulator performance"). Sampled also reports its cycle error against one
// exact run (cycle-err-%, computed outside the timer);
// TestSampledAccuracy in internal/sim is the ≤2% accuracy gate.
// SampledPass times ARM16 and ARM8 in one sampled pass (sim.Setup.RunAll
// with sample options), as a sampled suite does:
// with -count 10 on the same host its median was 6.7 ms (IQR 6.2–6.8)
// against Sampled's 6.8 ms (IQR 6.4–7.7) in the same run, so the
// second cache size costs next to nothing.
func BenchmarkSampledPipeline(b *testing.B) {
	s, err := sim.PrepareWith(kernels.MustGet("bitcount"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	cal := power.DefaultCalibration()
	b.Run("Full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(sim.ARM16, cal); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Sampled", func(b *testing.B) {
		exact, err := s.Run(sim.ARM16, cal)
		if err != nil {
			b.Fatal(err)
		}
		var sampled *sim.Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sampled, err = s.RunSampled(sim.ARM16, cal, sim.SampleOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		want := float64(exact.Pipe.Cycles)
		b.ReportMetric(100*math.Abs(float64(sampled.Pipe.Cycles)-want)/want, "cycle-err-%")
	})
	b.Run("SampledPass", func(b *testing.B) {
		pass := []sim.Config{sim.ARM16, sim.ARM8}
		if ps, err := s.Passes(pass); err != nil || len(ps) != 1 {
			b.Fatal("bitcount ARM16 and ARM8 do not share a pass")
		}
		opt := sim.RunOptions{Sample: &sim.SampleOptions{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunAll(pass, cal, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrepare measures sim.Prepare end to end — the profiling
// pass (which runs on the compiled table), synthesis, translation,
// both encoders and predecode — the per-kernel setup cost every
// experiment pays exactly once.
func BenchmarkPrepare(b *testing.B) {
	k := kernels.MustGet("crc32")
	opts := synth.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.PrepareWith(k, 1, sim.PrepareOptions{Synth: opts}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize measures the full instruction-set synthesis flow
// (k-search, SIS closure, AIS fill, dictionary assignment).
func BenchmarkSynthesize(b *testing.B) {
	p := kernels.MustGet("gsm").Build(1)
	prof, err := profile.Collect(p, 2e9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(prof, synth.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate measures ARM→FITS translation and layout.
func BenchmarkTranslate(b *testing.B) {
	p := kernels.MustGet("jpeg").Build(1)
	prof, err := profile.Collect(p, 2e9)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := synth.Synthesize(prof, synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(p, syn.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkARMAssemble measures the baseline 32-bit encoder.
func BenchmarkARMAssemble(b *testing.B) {
	p := kernels.MustGet("jpeg").Build(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arm.Assemble(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchPort measures the I-cache fetch hot path — cache lookup
// plus the power stream's counts per fetched block — which must not
// allocate in the steady state (the port aliases the image text and
// reuses a per-port scratch buffer).
func BenchmarkFetchPort(b *testing.B) {
	s, err := sim.PrepareWith(kernels.MustGet("crc32"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	pc := cpu.DefaultPipeConfig()
	c := cache.MustNew(cache.SA1100ICache())
	stream := power.MustNewMeter(cache.SA1100ICache(), power.DefaultCalibration()).Stream()
	port := sim.NewFetchPort(c, s.ArmImage, pc.BlockBytes, stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.FetchBlock(s.ArmImage.TextBase + uint32(i*4)&0xFC)
		port.Tick()
	}
}

// BenchmarkSuiteParallel regenerates the whole scale-1 suite through
// the parallel experiment engine at full parallelism — the
// cmd/fitsbench path, and the headline number for engine speedups.
func BenchmarkSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSuite(experiments.Options{Scale: 1, Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSequential is BenchmarkSuiteParallel pinned to one
// worker, the baseline the engine's speedup is measured against.
func BenchmarkSuiteSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSuite(experiments.Options{Scale: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the set-associative LRU cache. The
// stride-4 stream is a fetch stream, mostly served by the MRU-line
// check; the line-hopping stream moves to a new line on every access
// over a 64 KB footprint, so each access pays the set scan and the
// victim choice.
func BenchmarkCacheAccess(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride int
	}{
		{"stride4", 4},
		{"line-hop", cache.SA1100ICache().LineBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := cache.MustNew(cache.SA1100ICache())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(uint32(i*bc.stride) & 0xFFFF)
			}
		})
	}
}

// BenchmarkPowerMeter measures the energy model: one stream access and
// one cycle per op, priced by the meter once at the end. ci.sh gates it
// at 0 allocs/op.
func BenchmarkPowerMeter(b *testing.B) {
	m := power.MustNewMeter(cache.SA1100ICache(), power.DefaultCalibration())
	stream := m.Stream()
	block := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Access(uint32(i*4), block, false)
		stream.Tick()
	}
	if r := m.Report(); r.Cycles != uint64(b.N) || r.Accesses != uint64(b.N) {
		b.Fatalf("meter counted %d cycles and %d accesses, want %d", r.Cycles, r.Accesses, b.N)
	}
}

// BenchmarkStreamReplayRun measures the bulk update of the power
// stream: one op applies a cached summary of a 64-cycle replay unit
// (48 fetches of consecutive blocks, as the segment memo replays them),
// in place of its 48 accesses and 64 ticks. ci.sh gates it at 0
// allocs/op.
func BenchmarkStreamReplayRun(b *testing.B) {
	m := power.MustNewMeter(cache.SA1100ICache(), power.DefaultCalibration())
	stream := m.Stream()
	block := []byte{1, 2, 3, 4}
	build := stream.BeginRun(nil)
	for k := range 48 {
		build.Access(uint32(k+k/3), uint32(k*4), block)
	}
	run := build.End(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.ReplayRun(run)
	}
	if r := m.Report(); r.Cycles != 64*uint64(b.N) || r.Accesses != 48*uint64(b.N) {
		b.Fatalf("meter counted %d cycles and %d accesses, want %d and %d", r.Cycles, r.Accesses, 64*b.N, 48*b.N)
	}
}

// ---- Design-space exploration engine ----

// benchSweepGrid is a small real grid (8 points, crc32 at scale 1)
// shared by the sweep benchmarks.
func benchSweepGrid() sweep.Grid {
	g := sweep.DefaultGrid("crc32", 1)
	g.Ks = []int{5, 6}
	g.DictCaps = []int{16, 64}
	g.Caches = g.Caches[:2]
	return g
}

// BenchmarkSweep measures the exploration engine end to end: "cold"
// pays profile + synthesis + sampled simulation per synthesis image
// (its cache geometries share one pass), "warm" runs the same grid
// against a populated store and must evaluate nothing — the ratio is
// the incremental layer's speedup.
func BenchmarkSweep(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		points := 0
		for i := 0; i < b.N; i++ {
			st := archive.NewStore(filepath.Join(b.TempDir(), strconv.Itoa(i)))
			res, err := sweep.Run(sweep.Options{Grid: benchSweepGrid(), Store: st, NoRefine: true})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Evaluated != res.Stats.Points {
				b.Fatalf("cold sweep reused %d points", res.Stats.ArchiveSkips)
			}
			points += res.Stats.Points
		}
		b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("warm", func(b *testing.B) {
		st := archive.NewStore(b.TempDir())
		if _, err := sweep.Run(sweep.Options{Grid: benchSweepGrid(), Store: st, NoRefine: true}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		points := 0
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(sweep.Options{Grid: benchSweepGrid(), Store: st, NoRefine: true})
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Evaluated != 0 {
				b.Fatalf("warm sweep evaluated %d points", res.Stats.Evaluated)
			}
			points += res.Stats.Points
		}
		b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
	})
}
