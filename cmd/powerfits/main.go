// Command powerfits drives the FITS design flow over one benchmark:
// inspect the suite, synthesize an instruction set, disassemble the ARM
// and FITS binaries, and run timing/power simulations.
//
// Usage:
//
//	powerfits list
//	powerfits info   -kernel crc32
//	powerfits isa    -kernel crc32           # the synthesized ISA (cf. paper Fig. 2)
//	powerfits disasm -kernel crc32 [-fits]
//	powerfits dump   -kernel crc32           # assembly text (re-assembles with `asm`)
//	powerfits run    -kernel crc32 [-config FITS8] [-scale N]
//	                 [-sample]                       # sampled timing
//	                 [-window N] [-archive out.json|runs/] [-phases out.csv]
//	                 [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace run.trace]
//	powerfits report -in <file|id> [-dir runs/] [-top N]  # render a run record
//	powerfits trace  -kernel crc32 [-config FITS8] [-scale N] [-sample]
//	                 [-o trace.json] [-limit N]     # Chrome trace-event export of the cycle loop
//	powerfits trace  -check -in trace.json          # validate a trace export's schema
//	powerfits profile -kernel crc32 [-config FITS8] [-scale N] [-sample]
//	                  [-top N] [-folded] [-o out]   # PC→block energy/stall attribution
//	powerfits asm    -file prog.s [-config FITS8]   # assemble + full flow + run
//	powerfits sweep  -kernel jpeg [-j N]            # design-space exploration → Pareto frontier
//	                 [-ks 4,5,6] [-dicts 16,64,256] [-ablations full|all|name,...]
//	                 [-caches 4K,8K,16K[:LINE:ASSOC]] [-strategy grid|random|anneal]
//	                 [-seed N] [-steps N] [-fuel N] [-exact] [-no-refine]
//	                 [-dir runs/] [-o sweep.json]   # incremental vs the run store
//	powerfits config -kernel crc32 > crc32.cfg      # the decoder-configuration image
//	powerfits archive [-dir runs/]                         # list the run store
//	powerfits diff -base <id|file> [-new <id|file>|-live]  # regression-gate two archived runs
//	               [-tol F] [-tol-for k=v,...] [-json]     # (exits 1 on regression)
//	powerfits explain -kernel crc32 [-op N] [-save t.json] # synthesis decision log
//	powerfits explain -in <id|file>                        # replay an archived trace
//	powerfits scrape -url http://host:port/metrics [-o out]  # fetch + strict-parse a live exposition
//	powerfits scrape -url http://host:port/healthz -health   # liveness probe
//	powerfits serve  [-addr host:port] [-j N] [-queue N]     # synthesis daemon: POST /synth
//	                 [-batch-window D] [-cache-entries N] [-dir runs/]
//	powerfits call   -url http://host:port/synth [-kernel crc32|-file prog.s]
//	                 [-scale N] [-config FITS8] [-sample] [-o report.json]
//	powerfits loadgen -url http://host:port/synth [-j N] [-n N|-duration D]
//	                  [-hit F] [-kernel crc32] [-scale N] [-sample] [-o report.json]
//
// Every subcommand also accepts -log-level/-log-json (structured run
// logging) and -telemetry addr (serve /metrics, /healthz, /progress,
// /debug/pprof for the duration of the command).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"powerfits/cmd/internal/cli"
	"powerfits/internal/archive"
	"powerfits/internal/asm"
	"powerfits/internal/experiments"
	"powerfits/internal/isa/fits"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

func usage() {
	cli.Rawln("usage: powerfits <list|info|isa|disasm|dump|run|report|trace|profile|asm|sweep|config|archive|diff|explain|scrape|serve|call|loadgen> [flags]")
	os.Exit(2)
}

// log is the run logger; set in main right after flag parsing.
var log *slog.Logger

// tele is the embedded telemetry server (nil without -telemetry).
var tele *cli.Telemetry

// stopProfiles flushes any active -cpuprofile/-memprofile/-trace
// output; fatal routes through it so profiles survive error exits.
var stopProfiles = func() error { return nil }

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	kernel := fs.String("kernel", "crc32", "benchmark name (see `powerfits list`)")
	scale := fs.Int("scale", 1, "workload scale (0 = kernel default)")
	cfgName := fs.String("config", "FITS8", "configuration: ARM16, ARM8, FITS16, FITS8")
	fitsSide := fs.Bool("fits", false, "disassemble the FITS translation instead of ARM")
	file := fs.String("file", "", "assembly source file (asm command)")
	jobs := fs.Int("j", 0, "parallel workers for sweep (0 = all cores, 1 = sequential)")
	sweepKs := fs.String("ks", "", "sweep opcode-width axis, e.g. 4,5,6 (0 = search; default 4,5,6)")
	sweepDicts := fs.String("dicts", "", "sweep dictionary-budget axis, e.g. 16,64,256")
	sweepAbl := fs.String("ablations", "", "sweep ablation axis: full, nodict, nowin, no2op, nobase, or all")
	sweepCaches := fs.String("caches", "", "sweep cache-geometry axis, e.g. 4K,8K,16K or 8K:16:4")
	strategy := fs.String("strategy", "grid", "sweep visit order: grid, random, anneal")
	seed := fs.Int64("seed", 1, "seed for stochastic sweep strategies")
	steps := fs.Int("steps", 0, "step budget for stochastic strategies (0 = strategy default)")
	fuel := fs.Int("fuel", 0, "bound on sweep points visited (0 = whole grid)")
	exact := fs.Bool("exact", false, "sweep with full pipeline runs instead of the sampled estimator")
	noRefine := fs.Bool("no-refine", false, "skip the exact re-run of sweep frontier points")
	archiveTo := fs.String("archive", "", "write the run record: a .json path, or a run-store directory (run/asm commands)")
	phasesPath := fs.String("phases", "", "write the per-window phase series as CSV (run/asm commands; needs -window)")
	window := fs.Int("window", 0, "phase-sample window in cycles, carried by the -archive record and -phases CSV (run/asm commands; 0 = off)")
	topN := fs.Int("top", 10, "hotspot rows to render (report command)")
	inPath := fs.String("in", "", "run record to render: a file or a run ID in -dir (report command)")
	baseArg := fs.String("base", "", "baseline run: a run ID or a record file (diff command)")
	newArg := fs.String("new", "", "candidate run: a run ID or a record file (diff command)")
	live := fs.Bool("live", false, "diff against a freshly generated suite at the baseline's scale")
	tol := fs.Float64("tol", 0, "relative tolerance for diff classification (0 = 1e-6)")
	tolFor := fs.String("tol-for", "", "per-key tolerance overrides, e.g. fig10=0.05,kernel=0.01 (diff command)")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON (diff command)")
	dir := fs.String("dir", "", "run-store directory (default .powerfits/runs)")
	savePath := fs.String("save", "", "archive the synthesis trace to this file (explain command)")
	opN := fs.Int("op", -1, "explain one opcode point of the final spec (explain command)")
	sample := fs.Bool("sample", false, "use the sampled timing estimator instead of a full pipeline run (run/asm/trace/profile commands)")
	outPath := fs.String("o", "", "output path (trace/profile commands; default stdout)")
	limit := fs.Int("limit", 1<<16, "event ring capacity: the trace keeps the most recent N events (trace command)")
	folded := fs.Bool("folded", false, "emit the profile as folded stacks for flamegraph tooling (profile command)")
	check := fs.Bool("check", false, "validate an existing trace export instead of generating one (trace command, with -in)")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProf := fs.String("memprofile", "", "write a pprof heap profile to this path")
	traceOut := fs.String("trace", "", "write a runtime/trace execution trace to this path")
	url := fs.String("url", "", "telemetry endpoint to fetch (scrape command) or daemon /synth endpoint (call/loadgen)")
	health := fs.Bool("health", false, "treat the response as a /healthz JSON document instead of a Prometheus exposition (scrape command)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address for the synthesis daemon (port 0 = ephemeral; serve command)")
	queue := fs.Int("queue", 0, "bounded accept queue beyond the worker pool, 429 past it (0 = 4×workers; serve command)")
	batchWindow := fs.Duration("batch-window", 0, "hold each preparation open so near-simultaneous requests share it (serve command)")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory result-cache entries (0 = 512; serve command)")
	duration := fs.Duration("duration", 5*time.Second, "load duration when -n is 0 (loadgen command)")
	hitFrac := fs.Float64("hit", 0.9, "fraction of loadgen requests drawn from the fixed hot request (loadgen command)")
	nReqs := fs.Int("n", 0, "total loadgen requests (0 = run for -duration; loadgen command)")
	callTimeout := fs.Duration("timeout", 2*time.Minute, "request timeout (call command)")
	tf := cli.RegisterFlags(fs)
	log = cli.Parse("powerfits", fs, tf, os.Args[2:])
	cli.CheckWindow(log, *window, *phasesPath, *sample)

	var err error
	tele, err = tf.Start(log, nil)
	if err != nil {
		fatal(err)
	}
	defer tele.Close()

	if cmd == "scrape" {
		cmdScrape(*url, *outPath, *health)
		return
	}

	switch cmd {
	case "serve":
		cmdServe(serveOpts{Addr: *addr, AddrFile: tf.TelemetryAddrFile, Dir: *dir,
			Workers: *jobs, Queue: *queue, CacheEntries: *cacheEntries, BatchWindow: *batchWindow})
		return
	case "call":
		cmdCall(callOpts{URL: *url, Kernel: *kernel, Scale: *scale, Config: *cfgName,
			Sample: *sample, File: *file, Out: *outPath, Timeout: *callTimeout})
		return
	case "loadgen":
		cmdLoadgen(serveLoadOptions(*url, *jobs, *nReqs, *duration, *hitFrac,
			*kernel, *scale, *sample, *seed), *outPath)
		return
	}

	stop, err := metrics.StartProfiles(metrics.ProfileConfig{
		CPUProfile: *cpuProf, MemProfile: *memProf, Trace: *traceOut})
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	switch cmd {
	case "list":
		fmt.Printf("%-18s %-12s %s\n", "kernel", "group", "default scale")
		for _, k := range kernels.All() {
			fmt.Printf("%-18s %-12s %d\n", k.Name, k.Group, k.DefaultScale)
		}
		finish()
		return
	case "report":
		if *inPath == "" {
			fatal(fmt.Errorf("report requires -in <record.json|run-id>"))
		}
		report(*inPath, *dir, *topN)
		finish()
		return
	case "archive":
		cmdArchive(*dir)
		finish()
		return
	case "diff":
		ok := cmdDiff(diffOpts{Base: *baseArg, New: *newArg, Dir: *dir, Tol: *tol,
			TolFor: *tolFor, Live: *live, JSON: *jsonOut, Jobs: *jobs, Top: *topN})
		finish()
		if !ok {
			tele.Close()
			os.Exit(1)
		}
		return
	case "explain":
		cmdExplain(*kernel, *scale, *opN, *savePath, *inPath, *dir)
		finish()
		return
	case "sweep":
		cmdSweep(sweepOpts{
			Kernel: *kernel, Scale: *scale,
			Ks: *sweepKs, Dicts: *sweepDicts, Ablations: *sweepAbl, Caches: *sweepCaches,
			Strategy: *strategy, Seed: *seed, Steps: *steps, Fuel: *fuel, Jobs: *jobs,
			Exact: *exact, NoRefine: *noRefine, Dir: *dir, Out: *outPath,
		})
		finish()
		return
	}

	if cmd == "trace" && *check {
		if *inPath == "" {
			fatal(fmt.Errorf("trace -check requires -in trace.json"))
		}
		cmdTraceCheck(*inPath)
		finish()
		return
	}

	var s *sim.Setup
	if cmd == "asm" {
		if *file == "" {
			fatal(fmt.Errorf("asm requires -file"))
		}
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		p, perr := asm.Parse(*file, string(src))
		if perr != nil {
			fatal(perr)
		}
		s, err = sim.PrepareWith(kernels.FromProgram(p), 1, sim.PrepareOptions{
			Synth: synth.DefaultOptions(), Log: log})
	} else {
		k, kerr := kernels.Get(*kernel)
		if kerr != nil {
			fatal(kerr)
		}
		s, err = sim.PrepareWith(k, *scale, sim.PrepareOptions{
			Synth: synth.DefaultOptions(), Log: log})
	}
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "info":
		info(s)
	case "isa":
		printISA(s)
	case "disasm":
		disasm(s, *fitsSide)
	case "dump":
		fmt.Print(asm.Format(s.Prog))
	case "run":
		run(s, *cfgName, runOutputs{Archive: *archiveTo, Phases: *phasesPath, Window: *window, Sample: *sample})
		if *outPath != "" {
			writeReportFromSetup(s, *cfgName, *sample, *outPath)
		}
	case "trace":
		cmdTrace(s, *cfgName, *outPath, *limit, *sample)
	case "profile":
		cmdProfile(s, *cfgName, *topN, *folded, *outPath, *sample)
	case "asm":
		info(s)
		fmt.Println()
		run(s, *cfgName, runOutputs{Archive: *archiveTo, Phases: *phasesPath, Window: *window, Sample: *sample})
	case "config":
		blob := s.Synth.Spec.MarshalConfig()
		if _, err := os.Stdout.Write(blob); err != nil {
			fatal(err)
		}
		log.Info("wrote decoder configuration", "bytes", len(blob))
	default:
		usage()
	}
	finish()
}

// finish flushes the profiling hooks on the success path.
func finish() {
	if err := stopProfiles(); err != nil {
		log.Error("flushing profiles failed", "err", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	if perr := stopProfiles(); perr != nil {
		log.Error("flushing profiles failed", "err", perr)
	}
	tele.Finish(err)
	tele.CloseNow()
	log.Error("powerfits failed", "err", err)
	os.Exit(1)
}

func info(s *sim.Setup) {
	armB := s.ArmImage.Size()
	fmt.Printf("kernel          %s (%s), scale %d\n", s.Kernel.Name, s.Kernel.Group, s.Scale)
	fmt.Printf("instructions    %d static, %d dynamic\n", len(s.Prog.Instrs), s.Profile.TotalDyn)
	fmt.Printf("ARM image       %d bytes (%d literal-pool)\n", armB, s.ArmImage.PoolBytes)
	fmt.Printf("THUMB estimate  %d bytes (%.1f%% of ARM)\n", s.Thumb.TotalBytes(),
		100*float64(s.Thumb.TotalBytes())/float64(armB))
	fmt.Printf("FITS image      %d bytes (%.1f%% of ARM)\n", s.Fits.Image.Size(),
		100*float64(s.Fits.Image.Size())/float64(armB))
	fmt.Printf("mapping         %.1f%% static 1:1, %.1f%% dynamic 1:1\n",
		100*s.Fits.StaticMappingRate(), 100*s.Fits.DynamicMappingRate(s.Profile.Dyn))
	fmt.Printf("synthesized ISA k=%d, %d/%d opcode points (BIS %d, SIS %d, AIS %d), %d dictionary entries\n",
		s.Synth.K, s.Synth.Spec.UsedPoints(), 1<<s.Synth.K,
		len(s.Synth.BIS), len(s.Synth.SIS), len(s.Synth.AIS), s.Synth.DictEntries)
	fmt.Printf("decoder config  %d bytes of non-volatile state\n", s.Synth.Spec.ConfigBytes())
	disp := s.Synth.Spec.DispBits()
	fmt.Printf("branch reach    %.1f%% of branches fit the %d-bit displacement field\n",
		100*s.Profile.DispCoverage(disp-1), disp)
	for kk, c := range s.Synth.CandidateCost {
		fmt.Printf("  k=%d cost %d halfwords (weighted)\n", kk, c)
	}
	for kk, e := range s.Synth.CandidateErr {
		fmt.Printf("  k=%d infeasible: %s\n", kk, e)
	}
}

func printISA(s *sim.Setup) {
	sp := s.Synth.Spec
	fmt.Printf("synthesized instruction set for %s: %d-bit opcodes, %d points\n",
		sp.Name, sp.K, sp.UsedPoints())

	// The paper's Figure 2: bit layouts of the synthesized formats.
	k := sp.K
	narrow := 16 - k - 8
	wide := 16 - k - 4
	full := 16 - k
	fmt.Println("instruction formats (field widths in bits):")
	fmt.Printf("  operate-3   [op:%d][rc:4][ra:4][oprd:%d]\n", k, narrow)
	fmt.Printf("  operate-2   [op:%d][rc:4][lit:%d]\n", k, wide)
	fmt.Printf("  memory      [op:%d][ra:4][rb:4][imm:%d]  (scaled)\n", k, narrow)
	fmt.Printf("  memory-wide [op:%d][ra:4][imm:%d]  (base register in opcode)\n", k, wide)
	fmt.Printf("  branch      [op:%d][disp:%d]  (signed halfwords)\n", k, full)
	fmt.Printf("  trap        [op:%d][number:%d]\n", k, full)
	fmt.Printf("  ext prefix  [op:%d][payload:%d]\n", k, full)
	if len(sp.Window) > 0 {
		regs := make([]string, 0, len(sp.Window))
		for _, r := range sp.Window {
			regs = append(regs, r.String())
		}
		fmt.Printf("register window (narrow-field ranks): %s\n", strings.Join(regs, " "))
	}
	fmt.Printf("%-4s %-26s %-10s %s\n", "op", "signature", "mode", "values")
	for i, pt := range sp.Points {
		switch pt.Kind {
		case fits.PointExt:
			fmt.Printf("%-4d %-26s\n", i, "EXT (prefix)")
		case fits.PointSig:
			mode := "inline"
			vals := ""
			if pt.ImmDict {
				mode = "dict"
				parts := make([]string, 0, len(pt.Values))
				for _, v := range pt.Values {
					parts = append(parts, fmt.Sprint(v))
				}
				vals = strings.Join(parts, ",")
				if len(vals) > 60 {
					vals = vals[:57] + "..."
				}
			}
			fmt.Printf("%-4d %-26s %-10s %s\n", i, pt.Sig, mode, vals)
		}
	}
}

func disasm(s *sim.Setup, fitsSide bool) {
	if fitsSide {
		im := s.Fits.Image
		for i := range s.Fits.Lowered.Instrs {
			in := &s.Fits.Lowered.Instrs[i]
			fmt.Printf("%08x:  %-6s  %s\n", im.InstrAddr[i],
				fmt.Sprintf("%dB", im.InstrSize[i]), in)
		}
		return
	}
	im := s.ArmImage
	for i := range s.Prog.Instrs {
		in := &s.Prog.Instrs[i]
		fmt.Printf("%08x:  %s\n", im.InstrAddr[i], in)
	}
}

// runOutputs carries the run command's record requests.
type runOutputs struct {
	Archive string // -archive: record file or run-store directory
	Phases  string // -phases: CSV phase-series path
	Window  int    // -window: sample window in cycles (0 = off)
	Sample  bool   // -sample: sampled timing estimator
}

func run(s *sim.Setup, cfgName string, out runOutputs) {
	cfg, err := configByName(cfgName)
	if err != nil {
		fatal(err)
	}
	man := metrics.NewManifest("powerfits")
	cal := power.DefaultCalibration()
	tele.Begin(1)
	started := time.Now()
	opt := sim.RunOptions{WindowCycles: out.Window}
	if out.Sample {
		opt.Sample = &sim.SampleOptions{}
	}
	rs, err := s.RunAll([]sim.Config{cfg}, cal, opt)
	if err != nil {
		fatal(err)
	}
	r := rs[0]
	if tele != nil {
		publishRun(tele.Scope("run", s.Kernel.Name, cfg.Name), r)
		tele.Publish(experiments.ProgressEvent{Kernel: s.Kernel.Name, Done: 1, Total: 1,
			DynInstrs: r.Pipe.Instrs, Elapsed: time.Since(started)})
		tele.Finish(nil)
	}
	if out.Archive != "" || out.Phases != "" {
		recordRun(s, cal, r, man, out)
	}
	sw, in, lk := r.Power.Share()
	fmt.Printf("config          %s (%s ISA, %d KB I-cache)\n", cfg.Name, cfg.ISA, cfg.Cache.SizeBytes/1024)
	fmt.Printf("instructions    %d\n", r.Pipe.Instrs)
	fmt.Printf("cycles          %d (IPC %.3f)\n", r.Pipe.Cycles, r.Pipe.IPC())
	fmt.Printf("fetch accesses  %d (%d misses, %.1f per million)\n",
		r.Cache.Accesses, r.Cache.Misses, r.Cache.MissesPerMillion())
	fmt.Printf("branches        %d (%d taken, %d mispredicted)\n", r.Pipe.Branches, r.Pipe.Taken, r.Pipe.Mispredicts)
	fmt.Printf("cache energy    %.2f µJ (switching %.1f%%, internal %.1f%%, leakage %.1f%%)\n",
		r.Power.TotalPJ()/1e6, 100*sw, 100*in, 100*lk)
	fmt.Printf("average power   %.2f mW; peak %.2f mW\n", 1e3*r.Power.AvgPowerW(), 1e3*r.Power.PeakPowerW)
	fmt.Printf("output          %#x\n", r.Pipe.Output)
	if st := r.Sampled; st != nil {
		if st.Exact {
			fmt.Printf("sampling        exact (run too short for sampling; full detail)\n")
		} else {
			fmt.Printf("sampling        %d windows, %.2f%% of instructions detailed, 95%% CI ±%.2f%% cycles / ±%.2f%% energy\n",
				st.Windows, 100*float64(st.DetailedInstrs)/float64(st.TotalInstrs),
				100*st.CycleRelCI, 100*st.EnergyRelCI)
		}
	}
}

// recordRun builds the run's record, files it at the -archive
// destination and writes its phase series to the -phases CSV.
func recordRun(s *sim.Setup, cal power.Calibration, r *sim.Result, man *metrics.Manifest, out runOutputs) {
	reg := metrics.NewRegistry()
	publishRun(reg.Scope("run", s.Kernel.Name, r.Config.Name), r)
	rec := archive.FromRun(man, reg, s, cal, r)
	man.Finish()
	if out.Archive != "" {
		path, err := archive.SaveTo(rec, out.Archive, tele.Scope("archive"))
		if err != nil {
			fatal(err)
		}
		log.Info("archived run", "run_id", rec.RunID, "path", path)
	}
	if out.Phases != "" {
		if err := metrics.WritePhasesCSVFile(out.Phases, rec.Phases); err != nil {
			fatal(err)
		}
		log.Info("wrote phase series", "path", out.Phases)
	}
}

// publishRun exports one run's architectural and power results as
// registry instruments on sc — shared by the -archive record and the
// live telemetry registry.
func publishRun(sc metrics.Scope, r *sim.Result) {
	sc.Counter("cycles").Add(r.Pipe.Cycles)
	sc.Counter("instrs").Add(r.Pipe.Instrs)
	sc.Counter("fetches").Add(r.Cache.Accesses)
	sc.Counter("misses").Add(r.Cache.Misses)
	sc.Counter("branches").Add(r.Pipe.Branches)
	sc.Counter("mispredicts").Add(r.Pipe.Mispredicts)
	sc.Gauge("switching_pj").Set(r.Power.SwitchingPJ)
	sc.Gauge("internal_pj").Set(r.Power.InternalPJ)
	sc.Gauge("leakage_pj").Set(r.Power.LeakagePJ)
	sc.Gauge("total_pj").Set(r.Power.TotalPJ())
	sc.Gauge("avg_power_w").Set(r.Power.AvgPowerW())
	sc.Gauge("peak_power_w").Set(r.Power.PeakPowerW)
	sc.Gauge("ipc").Set(r.Pipe.IPC())
	sc.Gauge("miss_per_million").Set(r.Cache.MissesPerMillion())
}

// stallTable renders the stall-cause breakdown of every run that
// carries one: the zero-issue cycles of the CPI stack split by blocking
// cause, per kernel × configuration.
func stallTable(runs []metrics.RunExport) {
	any := false
	for _, run := range runs {
		if run.Stalls == nil {
			continue
		}
		if !any {
			fmt.Printf("\nstall-cause breakdown (zero-issue cycles)\n")
			fmt.Printf("%-16s %-8s %12s %12s %12s %12s %12s %12s\n",
				"kernel", "config", "icache-miss", "mispredict", "fetch", "hazard", "total", "dual-issue")
			any = true
		}
		b := run.Stalls
		fmt.Printf("%-16s %-8s %12d %12d %12d %12d %12d %12d\n",
			run.Kernel, run.Config, b.MissCycles, b.BubbleCycles,
			b.FetchCycles, b.HazardCycles, b.Total(), b.DualIssue)
	}
}

// report renders a run record — a file, or a run ID in the store at
// dir: manifest, registry, stall table, phase tables and the top-N
// fetch-energy hotspots.
func report(arg, dir string, topN int) {
	rec, err := archive.NewStore(dir).Resolve(arg)
	if err != nil {
		fatal(err)
	}
	if m := rec.Manifest; m != nil {
		fmt.Printf("manifest\n")
		fmt.Printf("  tool         %s %s\n", m.Tool, strings.Join(m.Args, " "))
		if m.Kernel != "" {
			fmt.Printf("  kernel       %s (scale %d), config %s\n", m.Kernel, m.Scale, m.Config)
		}
		if m.ISAPoint != "" {
			fmt.Printf("  isa point    %s\n", m.ISAPoint)
		}
		if m.ConfigHash != "" {
			fmt.Printf("  config hash  %s\n", m.ConfigHash)
		}
		if m.GitDescribe != "" {
			fmt.Printf("  source       %s, %s\n", m.GitDescribe, m.GoVersion)
		} else {
			fmt.Printf("  source       %s\n", m.GoVersion)
		}
		if m.Workers > 0 {
			fmt.Printf("  workers      %d\n", m.Workers)
		}
		fmt.Printf("  time         started %s, wall %.3fs, cpu %.3fs\n", m.StartedAt, m.WallSec, m.CPUSec)
	}
	if len(rec.Registry.Counters) > 0 || len(rec.Registry.Gauges) > 0 {
		fmt.Printf("\nregistry\n")
		for _, c := range rec.Registry.Counters {
			fmt.Printf("  %-44s %20d\n", c.Name, c.Value)
		}
		for _, g := range rec.Registry.Gauges {
			fmt.Printf("  %-44s %20.4f\n", g.Name, g.Value)
		}
		for _, h := range rec.Registry.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Printf("  %-44s %11d obs, mean %.4f\n", h.Name, h.Count, mean)
		}
	}
	stallTable(rec.Phases)
	for _, run := range rec.Phases {
		if run.Series == nil || len(run.Series.Samples) == 0 {
			continue
		}
		fmt.Printf("\nphases: %s on %s (%d-cycle windows)\n", run.Kernel, run.Config, run.Series.WindowCycles)
		fmt.Printf("%12s %8s %8s %8s %10s %12s %12s %12s %7s\n",
			"end_cycle", "cycles", "fetches", "misses", "miss/K", "switch_pJ", "internal_pJ", "leak_pJ", "IPC")
		for _, w := range run.Series.Samples {
			fmt.Printf("%12d %8d %8d %8d %10.2f %12.1f %12.1f %12.1f %7.3f\n",
				w.EndCycle, w.Cycles, w.Fetches, w.Misses, 1e3*w.MissRate(),
				w.SwitchPJ, w.InternalPJ, w.LeakPJ, w.IPC())
		}
		if len(run.Series.Hotspots) > 0 {
			total := run.Series.TotalFetchPJ()
			fmt.Printf("\nfetch-energy hotspots: %s on %s (top %d of %d basic blocks)\n",
				run.Kernel, run.Config, len(run.Series.TopHotspots(topN)), len(run.Series.Hotspots))
			fmt.Printf("%4s %-14s %-19s %10s %8s %14s %7s\n", "#", "func", "block", "fetches", "misses", "fetch_pJ", "share")
			for i, h := range run.Series.TopHotspots(topN) {
				rng := fmt.Sprintf("%08x-%08x", h.StartAddr, h.EndAddr)
				if h.StartAddr == 0 && h.EndAddr == 0 {
					rng = "-"
				}
				share := 0.0
				if total > 0 {
					share = 100 * h.FetchPJ / total
				}
				fmt.Printf("%4d %-14s %-19s %10d %8d %14.1f %6.1f%%\n",
					i+1, h.Label, rng, h.Fetches, h.Misses, h.FetchPJ, share)
			}
		}
	}
}
