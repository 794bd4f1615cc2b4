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
//	fitsbench -window 4096 -archive suite.json -phases suite.csv  # + phase series and stalls
//	fitsbench -cpuprofile cpu.pprof -memprofile mem.pprof -trace run.trace
//	fitsbench -sample                 # fast path: sampled timing
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

// recordSuite builds the suite's run record, files it at the -archive
// destination (see archive.SaveTo) and writes its phase series to the
// -phases CSV. A store destination publishes the store's gauges onto
// the suite registry after the record is built, so they reach the
// telemetry /metrics page but not the record.
func recordSuite(man *metrics.Manifest, scale int, suite *experiments.Suite, dest, phasesPath string) {
	rec := archive.FromSuite(man, suite, scale)
	man.Finish()
	if dest != "" {
		path, err := archive.SaveTo(rec, dest, suite.Metrics.Scope("archive"))
		if err != nil {
			fatal(err)
		}
		log.Info("archived run", "run_id", rec.RunID, "path", path)
	}
	if phasesPath != "" {
		if err := metrics.WritePhasesCSVFile(phasesPath, rec.Phases); err != nil {
			fatal(err)
		}
		log.Info("wrote phase series", "path", phasesPath)
	}
}

func main() {
	fs := flag.NewFlagSet("fitsbench", flag.ContinueOnError)
	var (
		scale      = fs.Int("scale", 0, "workload scale (0 = per-kernel default)")
		exp        = fs.String("exp", "all", "experiment id: all, figs, fig3..fig14, headline, ablations, ablate-opwidth, ablate-dict, ablate-regs, ablate-mode")
		quiet      = fs.Bool("q", false, "suppress progress output")
		jobs       = fs.Int("j", 0, "parallel workers (0 = all cores, 1 = sequential)")
		archiveTo  = fs.String("archive", "", "archive the complete run record: a .json path, or a run-store directory")
		phasesPath = fs.String("phases", "", "write every run's phase series as CSV (needs -window)")
		window     = fs.Int("window", 0, "phase-sample window in cycles, carried by the -archive record and -phases CSV (0 = off)")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile to this path")
		traceOut   = fs.String("trace", "", "write a runtime/trace execution trace to this path")
		sample     = fs.Bool("sample", false, "replace full pipeline runs with the sampled timing estimator (exact outputs, ≤2% validated cycle/energy error)")
	)
	tf := cli.RegisterFlags(fs)
	log = cli.Parse("fitsbench", fs, tf, os.Args[1:])

	cli.CheckWindow(log, *window, *phasesPath, *sample)

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
		tele.Begin(len(kernels.All()))
		suite, err := experiments.RunSuite(experiments.Options{
			Scale: *scale, Workers: *jobs,
			Progress: experiments.MultiProgress(progress, tele.Progress()),
			Log:      log, WindowCycles: *window, Sampled: *sample})
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
		if *archiveTo != "" || *phasesPath != "" {
			recordSuite(man, *scale, suite, *archiveTo, *phasesPath)
		}
		// Fold the suite's merged registry into the served one so a
		// lingering /metrics scrape sees the complete run.
		tele.Merge(suite.Metrics)
	} else if *phasesPath != "" || *archiveTo != "" {
		fatal(fmt.Errorf("-phases/-archive require a suite experiment (not ablations/extensions)"))
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
