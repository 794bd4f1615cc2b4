// Command bench is the PowerFITS end-to-end benchmark. It drives the
// system from outside, through the same public layer functions the
// tools use (experiments.RunSuite, sweep.Run, serve.New(...).Handler()
// on a loopback HTTP server), checks every output against a committed
// reference, and prints one JSON result line:
//
//	bash bench/run.sh --workload suite-exact --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the workload is replayed sequentially, its preparation
// stages read from sim.PrepareWith's stage log and every other layer
// timed by a span around its call, and the result carries the
// per-layer metrics.
// -compare a.jsonl b.jsonl compares two sets of runs written with -o;
// -update-ref regenerates testdata/reference.json. README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// mirror BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps them
// in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layerTimes are the layers every workload runs; each is reported as
// host seconds per operation of the workload.
var layerTimes = []string{
	"kernels.build", "arm.assemble", "profile", "synth", "translate",
	"thumb", "cpu.predecode", "prepare.infeasible", "sim", "render", "archive",
}

// perLayer are the -trace 1 metrics.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layerTimes {
		defs = append(defs, metricDef{layerMetric(l), "s"})
	}
	return append(defs,
		metricDef{"trace.busy_s", "s"},
		metricDef{"trace.unaccounted_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"engine.idle_frac", "frac"},
		metricDef{"profile.memo_hit_rate", "frac"},
		metricDef{"profile.minstr_per_s", "Minstr/s"},
		metricDef{"prepare.per_image", "ratio"},
		metricDef{"synth.infeasible_frac", "frac"},
		metricDef{"sim.minstr_per_s", "Minstr/s"},
		metricDef{"sim.detail_frac", "frac"},
		metricDef{"sim.sampled_fallbacks", "count"},
		metricDef{"sim.sampled_cycle_err_pct", "%"},
		metricDef{"archive.record_bytes", "bytes"},
		metricDef{"serve.front_frac", "frac"},
		metricDef{"serve.p50_ms", "ms"},
		metricDef{"serve.cache_hit_rate", "frac"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.admit_queue_p99", "count"},
		metricDef{"serve.cold_p50_x", "ratio"},
		metricDef{"serve.p99_x", "ratio"},
		metricDef{"loadgen.late_p99_x", "ratio"},
	)
}()

// layerMetric is the per-layer metric name of a layer's busy time.
func layerMetric(layer string) string {
	switch layer {
	case "kernels.build", "arm.assemble", "cpu.predecode", "prepare.infeasible":
		return layer + "_s"
	}
	return layer + ".busy_s"
}

// env is what every workload receives.
type env struct {
	seed    int64
	budget  time.Duration // how long the measured phase runs
	workers int           // GOMAXPROCS, engine/sweep/serve workers and client connections
	dir     string        // scratch space for archive stores; removed at exit
}

// outcome is one workload run: operations attempted and failed (an
// output that disagrees with the reference, or a request that was not
// answered correctly), and the metric values by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// workload runs one named workload in untraced (-trace 0) or traced
// (-trace 1) mode.
type workload struct {
	name string
	run  func(e *env, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"suite-exact", func(e *env, traced bool) (*outcome, error) { return runSuite(e, false, traced) }},
	{"suite-sampled", func(e *env, traced bool) (*outcome, error) { return runSuite(e, true, traced) }},
	{"sweep-cold", runSweep},
	{"serve-mix", runServe},
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to an -o file: the result plus what
// produced it, the input -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run returns the exit code: 0 on success, 1 when the run fails or an
// output check fails, 2 on bad usage.
func run() (int, error) {
	name := flag.String("workload", "", "workload to run: suite-exact, suite-sampled, sweep-cold or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 replays the workload with per-layer spans and reports the per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for per-run scratch files")
	out := flag.String("o", "", "also append the run as one JSON line to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -o files given as arguments and exit")
	bench := flag.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	updateRef := flag.String("update-ref", "", "regenerate the reference file at this path and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return 2, errors.New("-compare needs two files")
		}
		if err := compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
			return 1, err
		}
		return 0, nil
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if *updateRef == "" && (i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1)) {
		return 2, fmt.Errorf("need -workload (one of %s), -seconds ≥ 1 and -trace 0|1", workloadNames())
	}

	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, workers: runtime.NumCPU()}
	runtime.GOMAXPROCS(e.workers)
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	if *updateRef != "" {
		if err := updateReference(e, *updateRef); err != nil {
			return 1, err
		}
		return 0, nil
	}
	o, err := workloads[i].run(e, *trace == 1)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", *name, err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := o.result(defs)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", *name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *name, Seed: *seed, Trace: *trace, result: *res}); err != nil {
			return 1, err
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%s: %d of %d operations failed their output check", *name, res.Failed, res.Attempted)
	}
	return 0, nil
}

// result checks that the outcome carries exactly the metrics in defs
// and attaches their units.
func (o *outcome) result(defs []metricDef) (*result, error) {
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(o.metrics) != len(defs) {
		var extra []string
		for k := range o.metrics {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics %v", extra)
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// logf writes a diagnostic line to standard error; standard output
// carries only the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
