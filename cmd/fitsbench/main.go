// Command fitsbench regenerates the paper's evaluation: it prepares and
// simulates the 21-kernel suite under the four processor configurations
// (ARM16, ARM8, FITS16, FITS8) and prints the table behind every figure
// (Figures 3–14), the abstract's headline averages, and the synthesis
// ablations.
//
// Usage:
//
//	fitsbench                 # every figure at default scale, all cores
//	fitsbench -j 1            # sequential engine (identical tables)
//	fitsbench -exp fig11      # one figure
//	fitsbench -exp ablations  # the four synthesis ablations
//	fitsbench -scale 1 -q     # quick run, no progress lines
//	fitsbench -archive .powerfits/runs # archive the full run record (see `powerfits diff`)
//	fitsbench -metrics suite.json -phases suite.csv [-window N]
//	fitsbench -cpuprofile cpu.pprof -memprofile mem.pprof -trace run.trace
//	fitsbench -superblocks -sample    # fast path: fused-superblock profiling + sampled timing
//	fitsbench -telemetry :6060        # live /metrics, /healthz, /progress, /debug/pprof while the run is up
//	fitsbench -log-level debug -log-json   # structured engine/preparation logs
//
// fitsbench reproduces tables; it does not measure the host. Micro
// loops are timed by `go test -bench`, end-to-end runs by
// `bash bench/run.sh`, and a suite's own per-run timings ride in its
// -archive record.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"powerfits/cmd/internal/cli"
	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/sim"
)

// log is the run logger; set in main before any fallible work.
var log *slog.Logger

// tele is the embedded telemetry server (nil without -telemetry).
var tele *cli.Telemetry

// stopProfiles flushes any active -cpuprofile/-memprofile/-trace
// output; fatal routes through it so profiles survive error exits.
var stopProfiles = func() error { return nil }

func fatal(err error) {
	_ = stopProfiles()
	tele.Finish(err)
	tele.CloseNow()
	log.Error("fitsbench failed", "err", err)
	os.Exit(1)
}

// finish flushes the profiling hooks on the success path.
func finish() {
	if err := stopProfiles(); err != nil {
		log.Error("flushing profiles failed", "err", err)
		os.Exit(1)
	}
}

// exportSuite writes the -metrics JSON (manifest + merged registry +
// every kernel×config phase series) and/or the -phases CSV. Runs are
// ordered by kernel name then sim.Configs order, so the export is
// deterministic at any parallelism.
func exportSuite(man *metrics.Manifest, scale int, suite *experiments.Suite,
	metricsPath, phasesPath string) {
	man.Scale = scale
	man.Workers = suite.Workers
	man.SetCalibration(suite.Cal)
	blobs := [][]byte{man.Calibration}
	for _, s := range suite.Setups {
		blobs = append(blobs, s.Synth.Spec.MarshalConfig())
	}
	man.ConfigHash = metrics.HashConfig(blobs...)

	var runs []metrics.RunExport
	for _, s := range suite.Setups {
		for _, cfg := range sim.Configs {
			r := suite.Results[s.Kernel.Name][cfg.Name]
			runs = append(runs, metrics.RunExport{
				Kernel: s.Kernel.Name, Config: cfg.Name, Series: r.Phases,
				Stalls: sim.Stalls(r.Pipe)})
		}
	}
	if metricsPath != "" {
		man.Finish()
		exp := &metrics.Export{Manifest: man, Registry: suite.Metrics.Snapshot(), Runs: runs}
		if err := exp.WriteJSONFile(metricsPath); err != nil {
			fatal(err)
		}
		log.Info("wrote metrics export", "path", metricsPath)
	}
	if phasesPath != "" {
		if err := metrics.WritePhasesCSVFile(phasesPath, runs); err != nil {
			fatal(err)
		}
		log.Info("wrote phase series", "path", phasesPath)
	}
}

// archiveSuite writes the complete run record. A path ending in .json
// lands exactly there (the CI baseline workflow); anything else is
// treated as a run-store directory and the record is filed under its
// deterministic run ID. Store destinations additionally publish the
// store's run-count/byte gauges onto the suite registry, so they ride
// into any later -metrics export and the telemetry /metrics page.
func archiveSuite(man *metrics.Manifest, scale int, suite *experiments.Suite, dest string) {
	rec := archive.FromSuite(man, suite, scale)
	man.Finish()
	path := dest
	var err error
	if strings.HasSuffix(dest, ".json") {
		err = rec.WriteFile(dest)
	} else {
		st := archive.NewStore(dest)
		path, err = st.Save(rec)
		if err == nil {
			if serr := st.PublishStats(suite.Metrics.Scope("archive")); serr != nil {
				log.Warn("archive store stats unavailable", "err", serr)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	log.Info("archived run", "run_id", rec.RunID, "path", path)
}

func main() {
	fs := flag.NewFlagSet("fitsbench", flag.ContinueOnError)
	var (
		scale       = fs.Int("scale", 0, "workload scale (0 = per-kernel default)")
		exp         = fs.String("exp", "all", "experiment id: all, figs, fig3..fig14, headline, ablations, ablate-opwidth, ablate-dict, ablate-regs, ablate-mode")
		quiet       = fs.Bool("q", false, "suppress progress output")
		jobs        = fs.Int("j", 0, "parallel workers (0 = all cores, 1 = sequential)")
		archiveTo   = fs.String("archive", "", "archive the complete run record: a .json path, or a run-store directory")
		metricsPath = fs.String("metrics", "", "write manifest + suite registry + phase series as JSON")
		phasesPath  = fs.String("phases", "", "write every run's phase series as CSV")
		window      = fs.Int("window", 4096, "phase-sample window in cycles (with -metrics/-phases)")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile to this path")
		traceOut    = fs.String("trace", "", "write a runtime/trace execution trace to this path")
		superblocks = fs.Bool("superblocks", false, "profile kernels through the fused superblock executor (identical profiles, faster preparation)")
		sample      = fs.Bool("sample", false, "replace full pipeline runs with the sampled timing estimator (exact outputs, ≤2% validated cycle/energy error)")
	)
	tf := cli.RegisterFlags(fs)
	log = cli.Parse("fitsbench", fs, tf, os.Args[1:])

	exporting := *metricsPath != "" || *phasesPath != ""
	if exporting && *window <= 0 {
		cli.UsageError(log, fmt.Errorf("-window must be positive with -metrics/-phases, got %d", *window))
	}
	if *sample && exporting {
		fatal(fmt.Errorf("-sample is incompatible with -metrics/-phases: phase series require a full detailed run"))
	}

	var err error
	tele, err = tf.Start(log, nil)
	if err != nil {
		fatal(err)
	}
	defer tele.Close()

	stop, err := metrics.StartProfiles(metrics.ProfileConfig{
		CPUProfile: *cpuProf, MemProfile: *memProf, Trace: *traceOut})
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer finish()

	var progress experiments.ProgressFunc
	if !*quiet {
		// The raw heartbeat line is a pinned format (TestHeartbeatFormat);
		// it stays a byte-exact stderr line, not a structured record.
		progress = experiments.LineProgress(func(line string) { cli.Rawln(line) })
	}

	want := strings.ToLower(*exp)
	var tables []*experiments.Table

	needSuite := true
	switch want {
	case "ablations", "ablate-opwidth", "ablate-dict", "ablate-regs", "ablate-mode",
		"extensions", "ext-activity", "ext-geometry", "ext-energy", "ext-traffic", "ext-cpi":
		needSuite = false
	}

	if needSuite {
		man := metrics.NewManifest("fitsbench")
		windowCycles := 0
		if exporting {
			windowCycles = *window
		}
		tele.Begin(len(kernels.All()))
		suite, err := experiments.RunSuite(experiments.Options{
			Scale: *scale, Workers: *jobs,
			Progress: experiments.MultiProgress(progress, tele.Progress()),
			Log:      log, WindowCycles: windowCycles,
			Superblocks: *superblocks, Sampled: *sample})
		if err != nil {
			fatal(err)
		}
		tele.Finish(nil)
		if !*quiet {
			log.Info("suite generated", "wall_sec", suite.WallSec, "workers", suite.Workers)
		}
		for _, t := range suite.AllFigures() {
			if want == "all" || want == "figs" || want == t.ID || strings.HasPrefix(t.ID, want) {
				tables = append(tables, t)
			}
		}
		if *archiveTo != "" {
			archiveSuite(man, *scale, suite, *archiveTo)
		}
		if *metricsPath != "" || *phasesPath != "" {
			exportSuite(man, *scale, suite, *metricsPath, *phasesPath)
		}
		// Fold the suite's merged registry into the served one so a
		// lingering /metrics scrape sees the complete run.
		tele.Merge(suite.Metrics)
	} else if *metricsPath != "" || *phasesPath != "" || *archiveTo != "" {
		fatal(fmt.Errorf("-metrics/-phases/-archive require a suite experiment (not ablations/extensions)"))
	}

	ext := func(f func(int) (*experiments.Table, error)) *experiments.Table {
		t, err := f(1)
		if err != nil {
			fatal(err)
		}
		return t
	}
	switch want {
	case "all", "ablations":
		tables = append(tables, experiments.AblateOpcodeWidth()...)
		tables = append(tables, experiments.AblateDict()...)
		tables = append(tables, experiments.AblateWindow()...)
		tables = append(tables, experiments.AblateModes()...)
		if want == "all" {
			tables = append(tables, ext(experiments.ExtSwitchingModel),
				ext(experiments.ExtGeometry), ext(experiments.ExtEnergy),
				ext(experiments.ExtTraffic), ext(experiments.ExtCPI))
		}
	case "ablate-opwidth":
		tables = experiments.AblateOpcodeWidth()
	case "ablate-dict":
		tables = experiments.AblateDict()
	case "ablate-regs":
		tables = experiments.AblateWindow()
	case "ablate-mode":
		tables = experiments.AblateModes()
	case "extensions":
		tables = []*experiments.Table{ext(experiments.ExtSwitchingModel),
			ext(experiments.ExtGeometry), ext(experiments.ExtEnergy),
			ext(experiments.ExtTraffic), ext(experiments.ExtCPI)}
	case "ext-activity":
		tables = []*experiments.Table{ext(experiments.ExtSwitchingModel)}
	case "ext-geometry":
		tables = []*experiments.Table{ext(experiments.ExtGeometry)}
	case "ext-energy":
		tables = []*experiments.Table{ext(experiments.ExtEnergy)}
	case "ext-traffic":
		tables = []*experiments.Table{ext(experiments.ExtTraffic)}
	case "ext-cpi":
		tables = []*experiments.Table{ext(experiments.ExtCPI)}
	}

	if len(tables) == 0 {
		fatal(fmt.Errorf("no experiment matches %q", *exp))
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
}
