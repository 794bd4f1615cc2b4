// Package sweep is the design-space exploration engine: it evaluates a
// grid of (opcode width × immediate-dictionary budget × synthesis
// ablations × cache geometry) points for one kernel and emits the
// Pareto frontier of fetch energy vs code size vs cycles.
//
// Three layers make a sweep fast enough to explore thousands of
// points. Preparation runs once per input it depends on: one ARM
// baseline per run (sim.PrepareBaseline), and a memoized profiling pass
// (profile.Cache, the single-flight reuse.Memo that serve's caches also
// use, through sim.Setup.Profiler), so every synthesis point of a
// kernel shares one build and one run of its most expensive stage, even
// when the workers reach it at once. Every point has a
// deterministic run ID under the internal/archive scheme, probed
// against the store before evaluation — a re-sweep after an interrupt,
// or an extension of the grid, only simulates points it has never
// seen. And evaluation is per synthesis image: the points that differ
// only in cache geometry share one preparation and one Setup.RunAll,
// timed with the sampled estimator (validated ≤2 % error) by default,
// with only the frontier re-run exactly.
//
// Results are deterministic: the frontier document is byte-identical
// at any worker count, and identical between a cold sweep and a
// kill-and-resume over a warm store.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"powerfits/internal/cache"
	"powerfits/internal/isa/fits"
	"powerfits/internal/synth"
)

// Ablation is one setting of the synthesizer's feature switches — the
// grid axis that answers "which mechanism buys how much". Its switches
// are synth.Options' own, with their wire keys:
// {"name":"nodict","no_dict":true}.
type Ablation struct {
	Name string `json:"name"`
	synth.Options
}

// FullISA is the everything-enabled point of the ablation axis.
func FullISA() Ablation { return Ablation{Name: "full"} }

// AllAblations lists the supported ablation-axis values: the full
// synthesizer and the paper's four single-feature knockouts.
func AllAblations() []Ablation {
	return []Ablation{
		FullISA(),
		{"nodict", synth.Options{NoDict: true}},
		{"nowin", synth.Options{NoWindowRanking: true}},
		{"no2op", synth.Options{NoTwoOp: true}},
		{"nobase", synth.Options{NoBasePoints: true}},
	}
}

// AblationNames lists AllAblations' names, comma-separated.
func AblationNames() string {
	var names []string
	for _, a := range AllAblations() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Grid is the design space of one sweep: the cartesian product of the
// four axes, enumerated in a fixed nested order (K outermost, cache
// geometry innermost) so a point index is a stable identity.
type Grid struct {
	// Kernel names the benchmark under exploration.
	Kernel string `json:"kernel"`
	// Scale is the workload scale (≤ 0 = kernel default; Run resolves
	// it before evaluating, so archived records carry the concrete
	// value).
	Scale int `json:"scale"`

	// Ks are the ForceK opcode widths (0 = let synthesis search).
	Ks []int `json:"ks"`
	// DictCaps are the immediate-dictionary budgets.
	DictCaps []int `json:"dict_caps"`
	// Ablations are the synthesis feature settings.
	Ablations []Ablation `json:"ablations"`
	// Caches are the I-cache geometries the FITS configuration runs.
	Caches []cache.Config `json:"caches"`
}

// DefaultGrid is the conventional exploration space: every opcode
// width, three dictionary budgets, the full synthesizer, and three
// SA-1100-style cache sizes — 27 points.
func DefaultGrid(kernel string, scale int) Grid {
	return Grid{
		Kernel:    kernel,
		Scale:     scale,
		Ks:        []int{fits.MinK, fits.MinK + 1, fits.MaxK},
		DictCaps:  []int{16, 64, 256},
		Ablations: []Ablation{FullISA()},
		Caches: []cache.Config{
			{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 32},
			{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 32},
			{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 32},
		},
	}
}

// Validate checks the axes: every one non-empty, every K and dictionary
// budget accepted by synth.Options.Validate, every geometry accepted by
// the cache model.
func (g *Grid) Validate() error {
	if g.Kernel == "" {
		return fmt.Errorf("sweep: grid has no kernel")
	}
	if len(g.Ks) == 0 || len(g.DictCaps) == 0 || len(g.Ablations) == 0 || len(g.Caches) == 0 {
		return fmt.Errorf("sweep: every grid axis needs at least one value (ks=%d dicts=%d ablations=%d caches=%d)",
			len(g.Ks), len(g.DictCaps), len(g.Ablations), len(g.Caches))
	}
	for _, k := range g.Ks {
		for _, d := range g.DictCaps {
			if err := (synth.Options{ForceK: k, DictCap: d}).Validate(); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
	}
	for _, c := range g.Caches {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	seen := map[string]bool{}
	for _, a := range g.Ablations {
		if a.Name == "" {
			return fmt.Errorf("sweep: ablation with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: duplicate ablation %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Size returns the number of points in the grid.
func (g *Grid) Size() int {
	return len(g.Ks) * len(g.DictCaps) * len(g.Ablations) * len(g.Caches)
}

// axes returns the axis lengths in nesting order.
func (g *Grid) axes() [4]int {
	return [4]int{len(g.Ks), len(g.DictCaps), len(g.Ablations), len(g.Caches)}
}

// coords decodes a point index into per-axis coordinates.
func (g *Grid) coords(i int) (ki, di, ai, ci int) {
	a := g.axes()
	ci = i % a[3]
	i /= a[3]
	ai = i % a[2]
	i /= a[2]
	di = i % a[1]
	ki = i / a[1]
	return
}

// index is the inverse of coords.
func (g *Grid) index(ki, di, ai, ci int) int {
	a := g.axes()
	return ((ki*a[1]+di)*a[2]+ai)*a[3] + ci
}

// Point materializes the i-th grid point.
func (g *Grid) Point(i int) Point {
	ki, di, ai, ci := g.coords(i)
	return Point{
		Index:    i,
		K:        g.Ks[ki],
		DictCap:  g.DictCaps[di],
		Ablation: g.Ablations[ai],
		Cache:    g.Caches[ci],
	}
}

// Point is one design point: a synthesis configuration plus the cache
// geometry its FITS binary is timed on.
type Point struct {
	Index    int          `json:"index"`
	K        int          `json:"k"` // ForceK; 0 = search
	DictCap  int          `json:"dict_cap"`
	Ablation Ablation     `json:"ablation"`
	Cache    cache.Config `json:"cache"`
}

// Options folds the point into a base synthesis configuration. The
// base contributes sweep-wide settings (ProfileBudget above all); the
// point overrides the explored axes and adds its ablation's switches.
// Trace is cleared — a sweep never traces, and a shared trace across
// workers would race.
func (p Point) Options(base synth.Options) synth.Options {
	o := base.With(p.Ablation.Options)
	o.ForceK, o.DictCap, o.Trace = p.K, p.DictCap, nil
	return o
}

// Label renders the point's human-readable name, e.g. "k5.d64.full.8K".
func (p Point) Label() string {
	k := "kauto"
	if p.K != 0 {
		k = fmt.Sprintf("k%d", p.K)
	}
	return fmt.Sprintf("%s.d%d.%s.%s", k, p.DictCap, p.Ablation.Name, CacheLabel(p.Cache))
}

// CacheLabel renders a geometry compactly: "8K" for the conventional
// 32-byte-line 32-way organizations, "8K:l16:w4" otherwise.
func CacheLabel(c cache.Config) string {
	size := strconv.Itoa(c.SizeBytes)
	if c.SizeBytes%1024 == 0 {
		size = strconv.Itoa(c.SizeBytes/1024) + "K"
	}
	if c.LineBytes == 32 && c.Assoc == 32 {
		return size
	}
	return fmt.Sprintf("%s:l%d:w%d", size, c.LineBytes, c.Assoc)
}

// ParseInts parses a comma-separated integer axis ("4,5,6").
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad integer %q in axis %q", part, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty axis %q", s)
	}
	return out, nil
}

// ParseCaches parses a comma-separated geometry axis. Each entry is a
// size ("8K", "4096") with the conventional 32-byte lines and 32 ways,
// or size:line:assoc ("8K:16:4") for explicit organizations.
func ParseCaches(s string) ([]cache.Config, error) {
	var out []cache.Config
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 1 && len(fields) != 3 {
			return nil, fmt.Errorf("sweep: cache %q: want SIZE or SIZE:LINE:ASSOC", part)
		}
		size, err := parseSize(fields[0])
		if err != nil {
			return nil, err
		}
		cfg := cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 32}
		if len(fields) == 3 {
			if cfg.LineBytes, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("sweep: cache %q: bad line size", part)
			}
			if cfg.Assoc, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("sweep: cache %q: bad associativity", part)
			}
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: cache %q: %w", part, err)
		}
		out = append(out, cfg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty cache axis %q", s)
	}
	return out, nil
}

// parseSize parses "8K"/"1M"/"4096" into bytes.
func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1024*1024, s[:len(s)-1]
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("sweep: bad size %q", s)
	}
	return v * mult, nil
}

// ParseAblations parses a comma-separated ablation axis by name
// ("full,nodict"); "all" selects every supported value.
func ParseAblations(s string) ([]Ablation, error) {
	if strings.TrimSpace(s) == "all" {
		return AllAblations(), nil
	}
	byName := map[string]Ablation{}
	for _, a := range AllAblations() {
		byName[a.Name] = a
	}
	var out []Ablation
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		a, ok := byName[part]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown ablation %q (have %s)", part, AblationNames())
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty ablation axis %q", s)
	}
	return out, nil
}
