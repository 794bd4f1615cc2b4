package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"powerfits/internal/metrics"
)

// fixedRegistry builds the registry the golden test renders: two
// counter series sharing a family, a gauge, and a histogram.
func fixedRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("kernel/crc32/FITS8/fetches").Add(60)
	reg.Counter("kernel/sha/ARM16/fetches").Add(42)
	reg.Gauge("run/ipc").Set(0.75)
	h := reg.Histogram("suite/run_sec", []float64{0.1, 1})
	h.Observe(0.5)
	return reg
}

const goldenExposition = `# HELP powerfits_fetches_total powerfits registry counter of "fetches"; the scope label carries the registry path prefix
# TYPE powerfits_fetches_total counter
powerfits_fetches_total{scope="kernel/crc32/FITS8"} 60
powerfits_fetches_total{scope="kernel/sha/ARM16"} 42
# HELP powerfits_ipc powerfits registry gauge of "ipc"; the scope label carries the registry path prefix
# TYPE powerfits_ipc gauge
powerfits_ipc{scope="run"} 0.75
# HELP powerfits_run_sec_hist powerfits registry histogram of "run_sec"; the scope label carries the registry path prefix
# TYPE powerfits_run_sec_hist histogram
powerfits_run_sec_hist_bucket{scope="suite",le="0.1"} 0
powerfits_run_sec_hist_bucket{scope="suite",le="1"} 1
powerfits_run_sec_hist_bucket{scope="suite",le="+Inf"} 1
powerfits_run_sec_hist_sum{scope="suite"} 0.5
powerfits_run_sec_hist_count{scope="suite"} 1
`

// TestExpositionGolden pins the full text for a fixed registry:
// family naming (counter _total, histogram _hist), HELP/TYPE per
// family, scope labels, cumulative buckets with +Inf, sorted order.
func TestExpositionGolden(t *testing.T) {
	got := string(Exposition(fixedRegistry().Snapshot()))
	if got != goldenExposition {
		t.Fatalf("exposition drifted from golden text:\n--- got ---\n%s--- want ---\n%s", got, goldenExposition)
	}
}

// TestExpositionDeterministic renders the same state twice through
// independent snapshots and expects byte-identical output.
func TestExpositionDeterministic(t *testing.T) {
	reg := fixedRegistry()
	a := Exposition(reg.Snapshot())
	b := Exposition(reg.Snapshot())
	if !bytes.Equal(a, b) {
		t.Fatalf("two renders of one state differ:\n%s\nvs\n%s", a, b)
	}
}

// TestExpositionParsesStrictly round-trips a registry exercising every
// instrument kind through the strict parser.
func TestExpositionParsesStrictly(t *testing.T) {
	reg := fixedRegistry()
	reg.Counter("plain_counter").Inc()
	reg.Gauge("deep/nested/scope/path/value").Set(-1.5)
	p, err := ParseExposition(Exposition(reg.Snapshot()))
	if err != nil {
		t.Fatalf("own exposition fails strict parse: %v", err)
	}
	if got := len(p.Families); got != 5 {
		t.Fatalf("got %d families, want 5", got)
	}
	f := p.Family("powerfits_fetches_total")
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("counter family wrong: %+v", f)
	}
}

// TestExpositionEscaping pushes the label-escaping bytes (backslash,
// quote, newline) through a scope path and expects the parser to
// recover the original value.
func TestExpositionEscaping(t *testing.T) {
	reg := metrics.NewRegistry()
	weird := `back\slash"quote` + "\nnewline"
	reg.Gauge(weird + "/x").Set(1)
	out := Exposition(reg.Snapshot())
	if strings.Contains(string(out), weird) {
		t.Fatalf("raw label bytes leaked unescaped into %q", out)
	}
	p, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("escaped exposition fails parse: %v\n%s", err, out)
	}
	f := p.Family("powerfits_x")
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("missing family in\n%s", out)
	}
	if got, ok := f.Samples[0].Get("scope"); !ok || got != weird {
		t.Fatalf("scope label round-trip: got %q want %q", got, weird)
	}
}

// TestExpositionKindCollision pins the cross-kind collision rule: a
// gauge literally named x_total colliding with counter x's family gets
// the kind suffix, and the document still parses with no duplicate
// family.
func TestExpositionKindCollision(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("a/x").Inc()
	reg.Gauge("a/x_total").Set(2)
	out := Exposition(reg.Snapshot())
	p, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("collision exposition fails parse: %v\n%s", err, out)
	}
	if p.Family("powerfits_x_total") == nil || p.Family("powerfits_x_total_gauge") == nil {
		t.Fatalf("kind collision not resolved deterministically:\n%s", out)
	}
}

// TestExpositionSanitizeCollision pins the same-family series
// collision rule: two registry names that sanitize onto one (family,
// scope) stay distinct series via the raw label.
func TestExpositionSanitizeCollision(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Gauge("a/x.y").Set(1)
	reg.Gauge("a/x_y").Set(2)
	out := Exposition(reg.Snapshot())
	p, err := ParseExposition(out)
	if err != nil {
		t.Fatalf("sanitize collision makes invalid exposition: %v\n%s", err, out)
	}
	f := p.Family("powerfits_x_y")
	if f == nil || len(f.Samples) != 2 {
		t.Fatalf("want one family with two series, got\n%s", out)
	}
	raws := 0
	for _, s := range f.Samples {
		if raw, ok := s.Get("raw"); ok {
			raws++
			if raw != "a/x_y" {
				t.Errorf("raw label %q, want the later claimant a/x_y", raw)
			}
		}
	}
	if raws != 1 {
		t.Fatalf("want exactly one raw-labeled series, got %d in\n%s", raws, out)
	}
}

// TestExpositionEmpty renders an empty registry: a valid, empty
// document.
func TestExpositionEmpty(t *testing.T) {
	out := Exposition(metrics.NewRegistry().Snapshot())
	if len(out) != 0 {
		t.Fatalf("empty registry renders %q", out)
	}
	if _, err := ParseExposition(out); err != nil {
		t.Fatalf("empty exposition invalid: %v", err)
	}
}

// TestScrapeWhileWriting hammers a shared registry from writer
// goroutines while a scraper loops snapshot→render→strict-parse. Run
// under -race (ci.sh does) this is the proof of the snapshot-only
// scrape rule: a live scrape never races engine instrumentation.
func TestScrapeWhileWriting(t *testing.T) {
	reg := metrics.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := reg.Scope("kernel", []string{"crc32", "sha", "jpeg", "fir"}[w])
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sc.Counter("fetches").Add(3)
				sc.Gauge("ipc").Set(float64(i))
				sc.Histogram("run_sec", metrics.DurationBuckets).Observe(float64(i%7) / 10)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if _, err := ParseExposition(Exposition(reg.Snapshot())); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d invalid while writers run: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// Exposition renders the snapshot to a byte slice.
func Exposition(snap metrics.Snapshot) []byte {
	var b bytes.Buffer
	_ = WriteExposition(&b, snap) // a bytes.Buffer never errors
	return b.Bytes()
}
