package main

import (
	"context"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"powerfits/internal/profile"
	"powerfits/internal/sim"
)

// tracer accumulates per-layer busy time and the counts the layer
// ratios are built from. Preparation stages come from the records
// sim.PrepareWith logs (see stageHandler); every other layer is a span
// the benchmark records around a public layer call. Spans are not
// chained: time between them (the benchmark's own bookkeeping, the
// engines' scheduling) stays outside every layer and shows up as
// trace.unaccounted_frac.
type tracer struct {
	mu    sync.Mutex // guards busy and spans: stage records may arrive from engine goroutines
	busy  map[string]time.Duration
	spans int

	prepares   int                 // preparations started
	images     map[string]struct{} // distinct (program, scale, synthesis options) prepared
	memoHits   uint64
	memoMisses uint64
	profiled   uint64 // instructions executed by profiling runs that ran
	points     int    // sweep grid points visited
	infeasible int    // of which the design flow rejected

	simInstrs   uint64 // instructions the timing runs account for
	simDetailed uint64 // of which simulated cycle by cycle
	fallbacks   int    // sampled runs that fell back to exact simulation
	records     int
	recordBytes int64
}

func newTracer() *tracer {
	return &tracer{busy: map[string]time.Duration{}, images: map[string]struct{}{}}
}

func (t *tracer) add(layer string, d time.Duration) {
	t.mu.Lock()
	t.busy[layer] += d
	t.spans++
	t.mu.Unlock()
}

// span adds the time since t0 to layer.
func (t *tracer) span(layer string, t0 time.Time) { t.add(layer, time.Since(t0)) }

// stageLayers maps the stage names in sim.PrepareWith's "prepare
// stages" record to layers.
var stageLayers = map[string]string{
	"build": "kernels.build", "assemble": "arm.assemble", "profile": "profile", "synth": "synth",
	"translate": "translate", "thumb": "thumb", "predecode": "cpu.predecode",
}

// log returns a logger to pass as sim.PrepareOptions.Log (directly or
// through experiments.Options.Log): every successful preparation's stage
// times land in the tracer.
func (t *tracer) log() *slog.Logger { return slog.New(stageHandler{t}) }

// stageHandler is the slog.Handler behind tracer.log. It reads only the
// "prepare stages" records and drops every other record.
type stageHandler struct{ t *tracer }

func (h stageHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h stageHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h stageHandler) WithGroup(string) slog.Handler            { return h }

func (h stageHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "prepare stages" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		stage, _ := strings.CutSuffix(a.Key, "_sec")
		if layer, ok := stageLayers[stage]; ok && a.Value.Kind() == slog.KindFloat64 {
			h.t.add(layer, time.Duration(a.Value.Float64()*float64(time.Second)))
		}
		return true
	})
	return nil
}

// prepare calls prep, a call into sim.PrepareWith that passes on the
// logger it is given, and counts what prepare.per_image,
// profile.memo_hit_rate and profile.minstr_per_s are built from. image
// identifies the (program, scale, synthesis options) prepared; memo is
// the profile memo prep uses, or nil. A preparation that fails logs no
// stages, so its whole time is counted as prepare.infeasible.
func (t *tracer) prepare(image string, memo *profile.Cache, prep func(*slog.Logger) (*sim.Setup, error)) (*sim.Setup, error) {
	t.prepares++
	t.images[image] = struct{}{}
	hits0, misses0 := memo.Stats()
	t0 := time.Now()
	s, err := prep(t.log())
	hits, misses := memo.Stats()
	t.memoHits += hits - hits0
	t.memoMisses += misses - misses0
	if err != nil {
		t.span("prepare.infeasible", t0)
		return nil, err
	}
	if memo == nil || misses > misses0 {
		t.profiled += s.Profile.TotalDyn
	}
	return s, nil
}

// simResult counts one timing run.
func (t *tracer) simResult(r *sim.Result) {
	t.simInstrs += r.Pipe.Instrs
	if r.Sampled == nil {
		t.simDetailed += r.Pipe.Instrs
		return
	}
	t.simDetailed += r.Sampled.DetailedInstrs
	if r.Sampled.Exact {
		t.fallbacks++
	}
}

// saved counts one archive record written to path.
func (t *tracer) saved(path string) {
	if fi, err := os.Stat(path); err == nil {
		t.records++
		t.recordBytes += fi.Size()
	}
}

// spanCost measures what recording one span costs, the basis of
// trace.overhead_frac.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.span("sim", time.Now())
	}
	return time.Since(t0) / n
}

// layerMetrics turns a finished replay of ops operations, which took
// wall in total, into the per-layer metrics every workload reports
// except engine.idle_frac, which each workload derives from its own
// untraced run.
func (t *tracer) layerMetrics(ops int, wall time.Duration) map[string]float64 {
	per := func(d time.Duration) float64 { return d.Seconds() / float64(ops) }
	m := map[string]float64{}
	var accounted time.Duration
	for _, l := range layerTimes {
		m[layerMetric(l)] = per(t.busy[l])
	}
	for _, d := range t.busy {
		accounted += d
	}
	m["trace.busy_s"] = per(wall)
	m["trace.unaccounted_frac"] = 1 - accounted.Seconds()/wall.Seconds()
	m["trace.overhead_frac"] = float64(t.spans) * spanCost().Seconds() / wall.Seconds()
	m["profile.memo_hit_rate"] = ratio(float64(t.memoHits), float64(t.memoHits+t.memoMisses))
	m["profile.minstr_per_s"] = ratio(float64(t.profiled)/1e6, t.busy["profile"].Seconds())
	m["prepare.per_image"] = ratio(float64(t.prepares), float64(len(t.images)))
	m["synth.infeasible_frac"] = ratio(float64(t.infeasible), float64(t.points))
	m["sim.minstr_per_s"] = ratio(float64(t.simInstrs)/1e6, t.busy["sim"].Seconds())
	m["sim.detail_frac"] = ratio(float64(t.simDetailed), float64(t.simInstrs))
	m["sim.sampled_fallbacks"] = float64(t.fallbacks) / float64(ops)
	m["archive.record_bytes"] = ratio(float64(t.recordBytes), float64(t.records))
	m["serve.front_frac"] = t.busy["serve.front"].Seconds() / wall.Seconds()
	// Only one workload measures each of these; the others report 0.
	for _, k := range []string{"sim.sampled_cycle_err_pct", "serve.p50_ms", "serve.cache_hit_rate", "serve.rejected", "serve.admit_queue_p99",
		"serve.cold_p50_x", "serve.p99_x", "loadgen.late_p99_x"} {
		m[k] = 0
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
