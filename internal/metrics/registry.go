// Package metrics is the repository's instrumentation layer: a typed
// counter/gauge/histogram registry with hierarchical scopes, the
// phase-series types a run's event stream is sampled into (produced by
// tracing.Sampler and tracing.Profiler), the manifest and per-run
// phase/stall entries an archive run record carries, and standard Go
// profiling hooks.
//
// The package depends only on the standard library, so any layer can
// publish into it without an import cycle. Registries are safe for
// concurrent use; instruments are lock-free on the write path.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set (0 if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets. Bucket i
// counts observations ≤ Bounds[i]; the last bucket is the +Inf
// overflow. Histograms with identical bounds merge by summing counts.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64
	sum    float64
	count  uint64
}

// DurationBuckets is the default bucket layout for wall-clock seconds,
// spanning sub-millisecond unit work to multi-second suite phases.
var DurationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Registry holds named instruments. Names are hierarchical
// slash-separated paths (conventionally kernel/config/component/metric)
// built with Scope. Get-or-create accessors make registration
// idempotent; Snapshot exports every instrument in deterministic name
// order; Merge folds another registry in (the worker-pool pattern:
// each worker owns a private registry, merged after the barrier).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Bounds must be sorted ascending; later
// calls must pass equal bounds (enforced by Merge, not here — the
// first registration wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Scope returns a view of the registry that prefixes every instrument
// name with the joined parts, e.g. r.Scope("crc32", "FITS8").
func (r *Registry) Scope(parts ...string) Scope {
	return Scope{r: r, prefix: strings.Join(parts, "/")}
}

// Scope is a name-prefixed view of a Registry.
type Scope struct {
	r      *Registry
	prefix string
}

func (s Scope) name(metric string) string {
	if s.prefix == "" {
		return metric
	}
	return s.prefix + "/" + metric
}

// Scope narrows the scope further.
func (s Scope) Scope(parts ...string) Scope {
	return Scope{r: s.r, prefix: s.name(strings.Join(parts, "/"))}
}

// Counter returns the scoped counter.
func (s Scope) Counter(metric string) *Counter { return s.r.Counter(s.name(metric)) }

// Gauge returns the scoped gauge.
func (s Scope) Gauge(metric string) *Gauge { return s.r.Gauge(s.name(metric)) }

// Histogram returns the scoped histogram.
func (s Scope) Histogram(metric string, bounds []float64) *Histogram {
	return s.r.Histogram(s.name(metric), bounds)
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnap is one histogram in a snapshot. Counts has one entry
// per bound plus the +Inf overflow bucket.
type HistogramSnap struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot is a point-in-time export of a registry, ordered by name
// within each instrument kind so repeated exports of the same state
// are byte-identical.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot exports the registry's current state in deterministic
// order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		counts := make([]uint64, len(h.counts))
		copy(counts, h.counts)
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name: name, Bounds: h.bounds, Counts: counts, Sum: h.sum, Count: h.count})
		h.mu.Unlock()
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Merge folds other into r: counters sum, gauges take other's value,
// histograms with identical bounds sum counts. A histogram name
// registered with different bounds on the two sides is an error.
func (r *Registry) Merge(other *Registry) error {
	snap := other.Snapshot()
	for _, c := range snap.Counters {
		r.Counter(c.Name).Add(c.Value)
	}
	for _, g := range snap.Gauges {
		r.Gauge(g.Name).Set(g.Value)
	}
	for _, hs := range snap.Histograms {
		h := r.Histogram(hs.Name, hs.Bounds)
		if len(h.bounds) != len(hs.Bounds) {
			return fmt.Errorf("metrics: histogram %q bound count mismatch (%d vs %d)",
				hs.Name, len(h.bounds), len(hs.Bounds))
		}
		for i, b := range h.bounds {
			if b != hs.Bounds[i] {
				return fmt.Errorf("metrics: histogram %q bounds diverge at %d", hs.Name, i)
			}
		}
		h.mu.Lock()
		for i, n := range hs.Counts {
			h.counts[i] += n
		}
		h.sum += hs.Sum
		h.count += hs.Count
		h.mu.Unlock()
	}
	return nil
}
