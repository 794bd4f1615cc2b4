package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"powerfits/internal/experiments"
)

// dominates reports whether a is at least as good as b on every
// objective — fetch energy, code size, cycles, all minimized — and
// strictly better on at least one.
func dominates(a, b *PointResult) bool {
	am, bm := a.Metrics, b.Metrics
	if am.EnergyPJ > bm.EnergyPJ || am.CodeBytes > bm.CodeBytes || am.Cycles > bm.Cycles {
		return false
	}
	return am.EnergyPJ < bm.EnergyPJ || am.CodeBytes < bm.CodeBytes || am.Cycles < bm.Cycles
}

// frontier returns the Pareto-minimal feasible points, in a
// deterministic order (energy, then cycles, then code size, then grid
// index) that no worker schedule can perturb.
func frontier(points []*PointResult) []*PointResult {
	var feasible []*PointResult
	for _, p := range points {
		if p != nil && p.Infeasible == "" {
			feasible = append(feasible, p)
		}
	}
	var front []*PointResult
	for _, p := range feasible {
		dominated := false
		for _, q := range feasible {
			if q != p && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		a, b := front[i].Metrics, front[j].Metrics
		if a.EnergyPJ != b.EnergyPJ {
			return a.EnergyPJ < b.EnergyPJ
		}
		if a.Cycles != b.Cycles {
			return a.Cycles < b.Cycles
		}
		if a.CodeBytes != b.CodeBytes {
			return a.CodeBytes < b.CodeBytes
		}
		return front[i].Point.Index < front[j].Point.Index
	})
	// Dominance-equal duplicates (identical objectives from different
	// points) are all kept: they are genuinely tied designs.
	return front
}

// Document schema identifiers.
const (
	DocSchema        = "powerfits-sweep"
	DocSchemaVersion = 1
)

// Document is the serialized form of a sweep — the artifact the
// determinism guarantee applies to. It contains only reproducible
// facts: identities, metrics and the frontier, never wall-clock or
// scheduling observations, so cold/warm and -j1/-j8 sweeps of the same
// grid marshal byte-identically.
type Document struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`

	Grid     Grid   `json:"grid"`
	Strategy string `json:"strategy"`
	Exact    bool   `json:"exact"`

	// Points lists every visited point in ascending grid order.
	Points []*PointResult `json:"points"`
	// Frontier is the Pareto frontier (refined when refinement ran).
	Frontier []*PointResult `json:"frontier"`
}

// Document renders the result's reproducible core.
func (r *Result) Document() *Document {
	d := &Document{
		Schema:        DocSchema,
		SchemaVersion: DocSchemaVersion,
		Grid:          r.Grid,
		Strategy:      r.Strategy,
		Exact:         r.Exact,
		Frontier:      r.Frontier,
	}
	for _, p := range r.Points {
		if p != nil {
			d.Points = append(d.Points, p)
		}
	}
	return d
}

// Marshal renders the document as stable, indented JSON.
func (d *Document) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the document to path.
func (d *Document) WriteFile(path string) error {
	b, err := d.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// FrontierTable renders the frontier through the standard experiment
// table machinery (one row per frontier point).
func (r *Result) FrontierTable() *experiments.Table {
	t := &experiments.Table{
		ID:      "frontier",
		Title:   fmt.Sprintf("%s Pareto frontier (energy × code size × cycles)", r.Grid.Kernel),
		Columns: []string{"K", "dictEnt", "codeB", "kcycles", "energy_uJ", "miss_pct"},
		Note:    fmt.Sprintf("strategy=%s, %d visited, %d on frontier", r.Strategy, r.Stats.Points, len(r.Frontier)),
	}
	for _, p := range r.Frontier {
		m := p.Metrics
		missPct := 0.0
		if m.Fetches > 0 {
			missPct = 100 * float64(m.Misses) / float64(m.Fetches)
		}
		t.Rows = append(t.Rows, experiments.Row{
			Name: p.Label,
			Vals: []float64{
				float64(m.K),
				float64(m.DictEntries),
				float64(m.CodeBytes),
				float64(m.Cycles) / 1e3,
				m.EnergyPJ / 1e6,
				missPct,
			},
		})
	}
	return t
}
