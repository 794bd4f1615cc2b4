package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"powerfits/cmd/internal/cli"
	"powerfits/internal/archive"
	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/program"
	"powerfits/internal/serve"
	"powerfits/internal/sim"
	"powerfits/internal/sweep"
	"powerfits/internal/synth"
)

// PipeBenchSchema tags BENCH_pipeline.json records. v2 added the
// functional-machine rows (interpreted vs compiled, instrs_per_sec)
// and the Prepare row next to the v1 pipeline rows; v3 added the
// superblock machine row and the sampled-pipeline rows, each carrying
// its measured cycle error against the exact run; v4 added the
// design-space sweep rows (cold vs warm store, points_per_sec and the
// profile memo hit rate); v5 adds the serving-plane rows (Serve/Hit
// replaying the result cache, Serve/Cold running the full flow per
// request, both with req_per_sec).
const PipeBenchSchema = "powerfits-pipebench/v5"

// pipeBenchSchemaPrefix matches any record revision — the delta table
// tolerates comparing across schema versions (new rows show as added).
const pipeBenchSchemaPrefix = "powerfits-pipebench/"

// pipeBenchEntry is one benchmark row: a steady-state loop for one
// configuration, measured exactly like the bench_test.go counterpart
// (construction outside the timer, shared predecode/compiled table,
// reused result). Pipeline rows carry cycles_per_*; functional-machine
// rows carry instrs_per_sec; the Prepare row carries only ns_per_op.
type pipeBenchEntry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	CyclesPerOp  float64 `json:"cycles_per_op,omitempty"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	InstrsPerSec float64 `json:"instrs_per_sec,omitempty"`
	// CycleErrPct is the sampled estimator's relative cycle error
	// against the exact pipeline run, in percent (sampled rows only).
	CycleErrPct float64 `json:"cycle_err_pct,omitempty"`
	// PointsPerSec and MemoHitRate describe the design-space sweep
	// rows: grid points resolved per second and the profile cache's
	// hit fraction over the measured run.
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	MemoHitRate  float64 `json:"memo_hit_rate,omitempty"`
	// ReqPerSec describes the serving-plane rows: /synth requests
	// answered per second through the in-process handler.
	ReqPerSec  float64 `json:"req_per_sec,omitempty"`
	Iterations int     `json:"iterations"`
}

// pipeBenchReport is the perf-trajectory record successive PRs diff to
// catch timing-loop regressions (see DESIGN.md §9).
type pipeBenchReport struct {
	Schema  string           `json:"schema"`
	Kernel  string           `json:"kernel"`
	Scale   int              `json:"scale"`
	GOOS    string           `json:"goos"`
	GOARCH  string           `json:"goarch"`
	CPUs    int              `json:"cpus"`
	Entries []pipeBenchEntry `json:"entries"`
}

// pipeBenchLoop is the measured body: one full pipeline run per op over
// the shared predecode table, with cache/meter/machine construction
// excluded from the timer so ns/op isolates the cycle loop. It reports
// cycles/s and cycles/op via b.ReportMetric, which testing.Benchmark
// surfaces in Result.Extra.
func pipeBenchLoop(b *testing.B, s *sim.Setup, cfg sim.Config) {
	cal := power.DefaultCalibration()
	pc := cpu.DefaultPipeConfig()
	prog, im, dec := s.Prog, s.ArmImage, s.ArmDecoded
	if cfg.ISA == sim.ISAFITS {
		prog, im, dec = s.Fits.Lowered, s.Fits.Image, s.FitsDecoded
	}
	var res cpu.PipeResult
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cache.MustNew(cfg.Cache)
		meter := power.MustNewMeter(cfg.Cache, cal)
		port := sim.NewFetchPort(c, im, pc.BlockBytes, meter)
		m := cpu.New(prog, cpu.ImageLayout(im))
		m.Output = make([]uint32, 0, 64)
		b.StartTimer()
		if err := cpu.RunPipelineInto(m, pc, port, dec, &res); err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// machineBenchLoop is the functional-machine counterpart of
// pipeBenchLoop: one full program run per op (interpreted Step loop or
// compiled micro-op table), machine construction excluded from the
// timer, instrs/s reported via b.ReportMetric.
func machineBenchLoop(b *testing.B, p *program.Program, l cpu.Layout, run func(*cpu.Machine) error) {
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
		instrs += m.InstrCount
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// record converts one testing.Benchmark result into a report entry,
// echoes it to stderr, and returns the entry for post-hoc annotation.
func (rep *pipeBenchReport) record(name string, r testing.BenchmarkResult) *pipeBenchEntry {
	e := pipeBenchEntry{
		Name:         name,
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		CyclesPerOp:  r.Extra["cycles/op"],
		CyclesPerSec: r.Extra["cycles/s"],
		InstrsPerSec: r.Extra["instrs/s"],
		PointsPerSec: r.Extra["points/s"],
		MemoHitRate:  r.Extra["memo-hit-rate"],
		ReqPerSec:    r.Extra["req/s"],
		Iterations:   r.N,
	}
	rep.Entries = append(rep.Entries, e)
	rate, unit := e.CyclesPerSec, "cycles/s"
	if e.InstrsPerSec > 0 {
		rate, unit = e.InstrsPerSec, "instrs/s"
	}
	if e.PointsPerSec > 0 {
		rate, unit = e.PointsPerSec, "points/s"
	}
	if e.ReqPerSec > 0 {
		rate, unit = e.ReqPerSec, "req/s"
	}
	cli.Raw("%-32s %12.0f ns/op %14.0f %-8s %4d allocs/op\n",
		e.Name, e.NsPerOp, rate, unit, e.AllocsPerOp)
	return &rep.Entries[len(rep.Entries)-1]
}

// runPipeBench benchmarks the timing loop for the paper's two headline
// configurations (full pipeline and sampled estimator, the latter with
// its measured cycle error), the functional machine on all three
// execution paths (interpreted, compiled, superblock-fused), and the
// per-kernel Prepare cost, then writes the JSON trajectory record to
// path — printing a per-entry delta table first when path already
// holds a previous record.
func runPipeBench(path, kernel string, scale int) error {
	if scale <= 0 {
		scale = 1
	}
	k := kernels.MustGet(kernel)
	s, err := sim.Prepare(k, scale, synth.DefaultOptions())
	if err != nil {
		return err
	}
	rep := pipeBenchReport{
		Schema: PipeBenchSchema,
		Kernel: kernel,
		Scale:  scale,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
	cal := power.DefaultCalibration()
	for _, cfg := range []sim.Config{sim.ARM16, sim.FITS8} {
		cfg := cfg
		rep.record("PipelineSteadyState/"+cfg.Name,
			testing.Benchmark(func(b *testing.B) { pipeBenchLoop(b, s, cfg) }))
	}
	for _, cfg := range []sim.Config{sim.ARM16, sim.FITS8} {
		cfg := cfg
		exact, err := s.Run(cfg, cal)
		if err != nil {
			return err
		}
		var sampled *sim.Result
		e := rep.record("SampledPipeline/"+cfg.Name,
			testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := s.RunSampled(cfg, cal, sim.SampleOptions{})
					if err != nil {
						b.Fatal(err)
					}
					sampled = r
				}
			}))
		if sampled != nil {
			e.CycleErrPct = 100 * math.Abs(float64(sampled.Pipe.Cycles)-float64(exact.Pipe.Cycles)) /
				float64(exact.Pipe.Cycles)
			cli.Raw("%-32s %12s cycle error %.3f%%\n", "", "", e.CycleErrPct)
		}
	}

	l := cpu.WordLayout(s.Prog.TextBase, len(s.Prog.Instrs))
	comp := cpu.Compile(s.Prog, l)
	rep.record("MachineSteadyState/Interpreted",
		testing.Benchmark(func(b *testing.B) {
			machineBenchLoop(b, s.Prog, l, (*cpu.Machine).Run)
		}))
	rep.record("MachineSteadyState/Compiled",
		testing.Benchmark(func(b *testing.B) {
			machineBenchLoop(b, s.Prog, l, func(m *cpu.Machine) error { return m.RunCompiled(comp) })
		}))
	rep.record("MachineSteadyState/Superblock",
		testing.Benchmark(func(b *testing.B) {
			machineBenchLoop(b, s.Prog, l, func(m *cpu.Machine) error { return m.RunSuperblocks(comp) })
		}))
	rep.record("Prepare",
		testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Prepare(k, scale, synth.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		}))

	if err := pipeBenchSweep(&rep, kernel, scale); err != nil {
		return err
	}
	if err := pipeBenchServe(&rep, kernel, scale); err != nil {
		return err
	}

	if prev, err := readPipeBench(path); err == nil {
		comparePipeBench(prev, &rep)
	} else if !os.IsNotExist(err) {
		log.Warn("cannot diff against previous pipebench record", "path", path, "err", err)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	log.Info("wrote pipebench record", "path", path)
	return nil
}

// pipeBenchSweep measures the design-space exploration engine over a
// small real grid: cold (every point pays profile + synthesis + sampled
// simulation) and warm (the same grid against the store the cold pass
// filled — the all-skips path). The cold row's memo_hit_rate records
// how much of the preparation work the profile cache absorbed.
func pipeBenchSweep(rep *pipeBenchReport, kernel string, scale int) error {
	grid := sweep.DefaultGrid(kernel, scale)
	grid.Ks = []int{5, 6}
	grid.DictCaps = []int{16, 64}
	grid.Caches = grid.Caches[:2]

	root, err := os.MkdirTemp("", "pipebench-sweep-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	sweepLoop := func(b *testing.B, store func(i int) *archive.Store, wantEval bool) {
		b.ReportAllocs()
		points := 0
		var hits, runs uint64
		for i := 0; i < b.N; i++ {
			res, err := sweep.Run(sweep.Options{Grid: grid, Store: store(i), NoRefine: true})
			if err != nil {
				b.Fatal(err)
			}
			if wantEval != (res.Stats.Evaluated > 0) {
				b.Fatalf("sweep evaluated %d points, want evaluated=%t", res.Stats.Evaluated, wantEval)
			}
			points += res.Stats.Points
			hits += res.Stats.MemoHits
			runs += res.Stats.ProfileRuns
		}
		b.StopTimer()
		b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		if hits+runs > 0 {
			b.ReportMetric(float64(hits)/float64(hits+runs), "memo-hit-rate")
		}
	}

	coldN := 0 // testing.Benchmark re-runs the body with growing b.N;
	// every op needs a store no previous op has filled.
	cold := rep.record("Sweep/Cold", testing.Benchmark(func(b *testing.B) {
		sweepLoop(b, func(int) *archive.Store {
			coldN++
			return archive.NewStore(filepath.Join(root, "cold", strconv.Itoa(coldN)))
		}, true)
	}))

	warmStore := archive.NewStore(filepath.Join(root, "warm"))
	if _, err := sweep.Run(sweep.Options{Grid: grid, Store: warmStore, NoRefine: true}); err != nil {
		return err
	}
	warm := rep.record("Sweep/Warm", testing.Benchmark(func(b *testing.B) {
		sweepLoop(b, func(int) *archive.Store { return warmStore }, false)
	}))

	cli.Raw("%-32s %12s warm/cold speedup %.1fx, cold memo hit rate %.2f\n",
		"", "", cold.NsPerOp/warm.NsPerOp, cold.MemoHitRate)
	return nil
}

// pipeBenchServe measures the serving plane through the in-process
// handler (no sockets): Serve/Hit replays one cached request — the
// O(1) lookup path most multi-tenant traffic takes — and Serve/Cold
// gives every iteration a fresh synthesis identity so it pays the full
// profile→synthesize→simulate flow. Both rows carry req_per_sec; their
// ns/op ratio is the result cache's speedup (the ≥50× BenchmarkServe
// gate, recorded here as a trajectory).
func pipeBenchServe(rep *pipeBenchReport, kernel string, scale int) error {
	do := func(b *testing.B, h http.Handler, blob []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/synth", bytes.NewReader(blob))
		r.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("serve answered %d: %s", w.Code, w.Body)
		}
	}

	hitSvc := serve.New(serve.Options{Workers: 2})
	hitH := hitSvc.Handler()
	hot, err := json.Marshal(serve.Request{Kernel: kernel, Scale: scale, Configs: []string{"FITS8"}})
	if err != nil {
		return err
	}
	hit := rep.record("Serve/Hit", testing.Benchmark(func(b *testing.B) {
		do(b, hitH, hot) // warm the cache outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, hitH, hot)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}))

	coldSvc := serve.New(serve.Options{Workers: 2})
	coldH := coldSvc.Handler()
	coldN := 0 // a unique dictionary budget per op keeps every request cold
	cold := rep.record("Serve/Cold", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			coldN++
			blob, merr := json.Marshal(serve.Request{Kernel: kernel, Scale: scale,
				Configs: []string{"FITS8"}, Synth: serve.SynthKnobs{DictCap: 256 + coldN}})
			if merr != nil {
				b.Fatal(merr)
			}
			do(b, coldH, blob)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	}))
	cli.Raw("%-32s %12s hit/cold speedup %.0fx\n", "", "", cold.NsPerOp/hit.NsPerOp)
	return nil
}

// readPipeBench loads a previous trajectory record; any pipebench
// schema revision is accepted so the delta table works across schema
// bumps (rows that exist on only one side are marked, not compared).
func readPipeBench(path string) (*pipeBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep pipeBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(rep.Schema, pipeBenchSchemaPrefix) {
		return nil, fmt.Errorf("schema %q is not a pipebench record", rep.Schema)
	}
	return &rep, nil
}

// comparePipeBench prints the per-entry delta table between the record
// previously stored at the output path and the fresh measurement —
// the at-a-glance regression check a PR runs before committing a new
// trajectory record. Rows are matched by name; ns/op is the headline
// delta (negative = faster), with the throughput metric alongside when
// both sides carry one.
func comparePipeBench(old, cur *pipeBenchReport) {
	rate := func(e pipeBenchEntry) (float64, string) {
		if e.InstrsPerSec > 0 {
			return e.InstrsPerSec, "instrs/s"
		}
		if e.CyclesPerSec > 0 {
			return e.CyclesPerSec, "cycles/s"
		}
		return 0, ""
	}
	prev := make(map[string]pipeBenchEntry, len(old.Entries))
	for _, e := range old.Entries {
		prev[e.Name] = e
	}
	fmt.Printf("pipebench delta vs previous record (%s, kernel %s):\n", old.Schema, old.Kernel)
	fmt.Printf("  %-32s %14s %14s %9s %14s %14s %9s %8s\n",
		"name", "old ns/op", "new ns/op", "Δns/op", "old rate", "new rate", "Δrate", "Δallocs")
	for _, e := range cur.Entries {
		nr, unit := rate(e)
		o, ok := prev[e.Name]
		if !ok {
			fmt.Printf("  %-32s %14s %14.0f %9s %14s %14.0f %9s %8s  %s\n",
				e.Name, "(new)", e.NsPerOp, "—", "—", nr, "—", "—", unit)
			continue
		}
		delete(prev, e.Name)
		or, _ := rate(o)
		pct := func(oldV, newV float64) string {
			if oldV <= 0 {
				return "—"
			}
			return fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
		}
		fmt.Printf("  %-32s %14.0f %14.0f %9s %14.0f %14.0f %9s %+8d  %s\n",
			e.Name, o.NsPerOp, e.NsPerOp, pct(o.NsPerOp, e.NsPerOp),
			or, nr, pct(or, nr), e.AllocsPerOp-o.AllocsPerOp, unit)
	}
	// Entries the new record dropped, in the old record's order.
	for _, e := range old.Entries {
		if _, gone := prev[e.Name]; gone {
			fmt.Printf("  %-32s %14.0f %14s\n", e.Name, e.NsPerOp, "(gone)")
		}
	}
}
