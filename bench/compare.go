package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// comparedMetric is one metric -compare reports on.
type comparedMetric struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // negative: no bound (per-layer)
	trace      int     // the -trace mode whose runs carry it
}

// errRegressed reports that -compare found a metric worse than its bound.
var errRegressed = errors.New("a metric regressed beyond its bound")

// compareFiles prints, for every workload and metric present in both
// files, each side's median, spread and run count, how much worse b's
// median is than a's (negative when better), and a verdict: "ok" within the bound, "REGRESSED" beyond it,
// "unresolved" when either side's spread (interquartile range over the
// median) is itself wider than the bound, unless every run of b beats
// every run of a. Per-layer metrics have no bound and get no verdict.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) error {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	var metrics []comparedMetric
	for _, m := range bf.EndToEnd {
		metrics = append(metrics, comparedMetric{m.Name, m.Unit, m.Better == "higher", m.Bound, 0})
	}
	for _, m := range bf.PerLayer {
		metrics = append(metrics, comparedMetric{m.Name, m.Unit, m.Better == "higher", -1, 1})
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns a\tmedian a\tspread a\truns b\tmedian b\tspread b\tworse by\tbound\tverdict\t")
	regressed := false
	for _, wl := range names {
		for _, m := range metrics {
			va, vb := values(a[wl], m), values(b[wl], m)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(m, va, vb)
			if verdict == "REGRESSED" {
				regressed = true
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			bound := "-"
			if m.bound >= 0 {
				bound = fmt.Sprintf("%.1f%%", 100*m.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.1f%%\t%d\t%.6g\t%.1f%%\t%+.1f%%\t%s\t%s\t\n",
				wl, m.name, m.unit, len(va), ma, 100*spread(va), len(vb), mb, 100*spread(vb),
				100*worse, bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed {
		return errRegressed
	}
	return nil
}

// judge classifies b against a. worse is the relative change of the
// median, positive when b is worse.
func judge(m comparedMetric, a, b []float64) (verdict string, worse float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse = ratio(mb-ma, math.Abs(ma))
	if m.higher {
		worse = -worse
	}
	switch {
	case m.bound < 0:
		return "-", worse
	case spread(a) > m.bound || spread(b) > m.bound:
		if allBetter(m, a, b) {
			return "better", worse
		}
		return "unresolved", worse
	case worse > m.bound:
		return "REGRESSED", worse
	}
	return "ok", worse
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(m comparedMetric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.higher && y <= x) || (!m.higher && y >= x) {
				return false
			}
		}
	}
	return true
}

func values(rs []record, m comparedMetric) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[m.name]; ok && r.Trace == m.trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// readRecords reads an -o file, grouping its runs by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}
