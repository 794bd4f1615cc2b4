package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b/count")
	c.Add(3)
	c.Inc()
	if got := r.Counter("a/b/count").Value(); got != 4 {
		t.Errorf("counter = %d, want 4 (get-or-create must return the same instrument)", got)
	}
	g := r.Gauge("a/b/gauge")
	g.Set(1.5)
	g.Set(2.5)
	if got := r.Gauge("a/b/gauge").Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("a/b/hist", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	if h.Count() != 3 || h.sum != 105.5 {
		t.Errorf("histogram count/sum = %d/%v, want 3/105.5", h.Count(), h.sum)
	}
}

func TestScopeNaming(t *testing.T) {
	r := NewRegistry()
	r.Scope("crc32", "FITS8").Scope("cache").Counter("misses").Add(7)
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "crc32/FITS8/cache/misses" {
		t.Fatalf("scoped name = %+v, want crc32/FITS8/cache/misses", snap.Counters)
	}
	if snap.Counters[0].Value != 7 {
		t.Errorf("scoped counter = %d, want 7", snap.Counters[0].Value)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zz", "aa", "mm", "bb"} {
		r.Counter(name).Inc()
		r.Gauge("g/" + name).Set(1)
	}
	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("repeated snapshots of unchanged registry differ")
	}
	for i := 1; i < len(s1.Counters); i++ {
		if s1.Counters[i-1].Name >= s1.Counters[i].Name {
			t.Fatalf("counters not sorted: %q ≥ %q", s1.Counters[i-1].Name, s1.Counters[i].Name)
		}
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("shared").Add(2)
	b.Counter("shared").Add(5)
	b.Counter("only-b").Add(1)
	b.Gauge("g").Set(9)
	a.Histogram("h", []float64{1, 2}).Observe(0.5)
	b.Histogram("h", []float64{1, 2}).Observe(1.5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Counter("shared").Value(); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("only-b").Value(); got != 1 {
		t.Errorf("merged new counter = %d, want 1", got)
	}
	if got := a.Gauge("g").Value(); got != 9 {
		t.Errorf("merged gauge = %v, want 9", got)
	}
	h := a.Histogram("h", []float64{1, 2})
	if h.Count() != 2 || h.sum != 2 {
		t.Errorf("merged histogram count/sum = %d/%v, want 2/2", h.Count(), h.sum)
	}

	c := NewRegistry()
	c.Histogram("h", []float64{5}).Observe(1)
	if err := a.Merge(c); err == nil {
		t.Error("merging histograms with different bounds must fail")
	}
}

// TestMergeBoundErrors pins both Merge failure modes with their
// messages — a bound-count mismatch and same-count bounds that diverge
// in value — and checks a failed merge leaves the target histogram's
// observations intact.
func TestMergeBoundErrors(t *testing.T) {
	dst := NewRegistry()
	dst.Histogram("h", []float64{1, 2}).Observe(0.5)

	short := NewRegistry()
	short.Histogram("h", []float64{1}).Observe(0.5)
	err := dst.Merge(short)
	if err == nil || !strings.Contains(err.Error(), "bound count mismatch") {
		t.Fatalf("bound-count mismatch undetected or unclear: %v", err)
	}

	skew := NewRegistry()
	skew.Histogram("h", []float64{1, 3}).Observe(0.5)
	err = dst.Merge(skew)
	if err == nil || !strings.Contains(err.Error(), "bounds diverge") {
		t.Fatalf("bound-value divergence undetected or unclear: %v", err)
	}

	h := dst.Histogram("h", []float64{1, 2})
	if h.Count() != 1 || h.sum != 0.5 {
		t.Errorf("failed merges corrupted the target histogram: count %d, sum %v", h.Count(), h.sum)
	}
}

func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hot").Inc()
				r.Histogram("lat", DurationBuckets).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat", DurationBuckets).Count(); got != 8000 {
		t.Errorf("concurrent histogram = %d, want 8000", got)
	}
}
