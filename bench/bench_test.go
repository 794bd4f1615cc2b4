package main

import (
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestTraceAccountsForReplay checks that the layer spans and the stage
// records sim.PrepareWith logs cover the traced replay of a scale-1
// suite, and that every preparation stage is read from those records.
func TestTraceAccountsForReplay(t *testing.T) {
	e := &env{workers: 1, dir: t.TempDir()}
	for _, sampled := range []bool{false, true} {
		tr := newTracer()
		start := time.Now()
		s, err := tr.suite(e, sampled, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := tr.layerMetrics(1, time.Since(start))
		if f := m["trace.unaccounted_frac"]; f < 0 || f > 0.05 {
			t.Errorf("sampled=%t: trace.unaccounted_frac %.4f, want within [0, 0.05]", sampled, f)
		}
		for _, layer := range stageLayers {
			if tr.busy[layer] <= 0 {
				t.Errorf("sampled=%t: no time recorded for %s", sampled, layer)
			}
		}
		for _, st := range s.Setups {
			want := st.Kernel.Ref(1)
			for _, r := range s.Results[st.Kernel.Name] {
				if !reflect.DeepEqual(r.Pipe.Output, want) {
					t.Fatalf("%s on %s: output %x, want %x", st.Kernel.Name, r.Config.Name, r.Pipe.Output, want)
				}
			}
		}
	}
}

// TestServeMix drives the serving workload briefly in both modes: the
// daemon, both load generators, every response check and the traced
// replay, with the result carrying exactly the listed metrics.
func TestServeMix(t *testing.T) {
	for _, traced := range []bool{false, true} {
		e := &env{seed: 7, budget: time.Second, workers: 2, dir: t.TempDir()}
		o, err := runServe(e, traced)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		res, err := o.result(defs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 100 {
			t.Errorf("traced=%t: %d of %d requests failed", traced, res.Failed, res.Attempted)
		}
	}
}

// TestServeMetricsSurviveFailures feeds the serve-mix per-layer metrics
// a reference phase in which requests failed, down to every one of
// them, and checks that the result line still marshals.
func TestServeMetricsSurviveFailures(t *testing.T) {
	for _, failEvery := range []int{100, 2, 1} {
		r := &loadResult{refWall: time.Second, queueDepths: []float64{0, 1}}
		for i := 0; i < 400; i++ {
			s := sample{lat: time.Duration(i) * time.Microsecond, status: http.StatusOK, hit: true}
			if i%coldEvery == 0 {
				s.hot, s.hit = -1, false
			}
			if i%failEvery == 0 {
				s.failed, s.status = true, http.StatusTooManyRequests
			}
			r.ref = append(r.ref, s)
		}
		o := &outcome{}
		o.count(r.ref)
		o.metrics = newTracer().layerMetrics(1, time.Second)
		maps.Copy(o.metrics, r.layer(time.Millisecond, 2))
		if _, err := json.Marshal(mustResult(t, o, perLayer)); err != nil {
			t.Errorf("failing 1 in %d: per-layer line: %v", failEvery, err)
		}
	}
}

func mustResult(t *testing.T, o *outcome, defs []metricDef) *result {
	t.Helper()
	res, err := o.result(defs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("a run with failed requests reads correct")
	}
	return res
}

// TestTrafficMix checks that every block of coldEvery requests holds
// exactly one cold request, each with a dictionary budget of its own.
func TestTrafficMix(t *testing.T) {
	tf, err := newTraffic(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for block := 0; block < 50; block++ {
		colds := 0
		for i := 0; i < coldEvery; i++ {
			r := tf.next()
			if r.hot >= 0 {
				continue
			}
			colds++
			if seen[string(r.body)] {
				t.Fatalf("cold request %s repeats", r.body)
			}
			seen[string(r.body)] = true
		}
		if colds != 1 {
			t.Fatalf("block %d holds %d cold requests, want 1", block, colds)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in the
// code and BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, code %v", layer, perLayer)
	}
}

// TestQuartilesMatchPython pins quartiles to
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// TestAtReference checks that atReference removes the host's speed,
// as the calibration before each operation measured it, and keeps a
// slowdown of the code itself.
func TestAtReference(t *testing.T) {
	// The same operation at the reference speed, at half speed and at
	// two-thirds speed.
	base := []rep{{wall: 2, cal: calRef}, {wall: 4, cal: 2 * calRef}, {wall: 3, cal: 1.5 * calRef}}
	if got := atReference(base); math.Abs(got-2) > 1e-12 {
		t.Errorf("atReference = %v, want 2", got)
	}
	slower := make([]rep, len(base))
	for i, r := range base {
		slower[i] = rep{wall: 1.1 * r.wall, cal: r.cal}
	}
	if got := atReference(slower); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("atReference of 10%% slower code = %v, want 2.2", got)
	}
}

func TestJudge(t *testing.T) {
	lower := comparedMetric{name: "setup_s", bound: 0.1}
	higher := comparedMetric{name: "work_per_s", higher: true, bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    comparedMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "REGRESSED"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "REGRESSED"},
		{lower, steady, []float64{60, 140, 100, 80, 120}, "unresolved"},
		{lower, []float64{100, 150, 125, 110, 140}, []float64{50, 60, 55, 52, 58}, "better"},
		{comparedMetric{name: "sim.busy_s", bound: -1}, steady, steady, "-"},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}
