package archive

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"powerfits/internal/experiments"
	"powerfits/internal/metrics"
	"powerfits/internal/sim"
)

// stubRecord builds a small valid record by hand.
func stubRecord(id string, startedAt string) *Record {
	var man *metrics.Manifest
	if startedAt != "" {
		man = &metrics.Manifest{Tool: "test", StartedAt: startedAt}
	}
	return &Record{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		RunID:         id,
		Scale:         1,
		ConfigHash:    "hash-" + id,
		Manifest:      man,
		Figures: []Figure{{
			ID: "fig11", Title: "t", Columns: []string{"FITS16"},
			Rows:    []FigureRow{{Name: "crc32", Vals: []float64{18}}},
			Average: []float64{18},
		}},
		Kernels: []KernelMetrics{{Kernel: "crc32", Config: "FITS8",
			Cycles: 100, Instrs: 80, Fetches: 60, Misses: 2,
			SwitchPJ: 10, InternalPJ: 20, LeakPJ: 3, PeakW: 0.01}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := stubRecord("rabc", "2026-01-01T00:00:00Z")
	path := filepath.Join(t.TempDir(), "sub", "rec.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.RunID != rec.RunID || back.Scale != rec.Scale || back.ConfigHash != rec.ConfigHash {
		t.Fatalf("round trip lost identity: %+v", back)
	}
	if len(back.Figures) != 1 || back.Figures[0].Rows[0].Vals[0] != 18 {
		t.Fatalf("round trip lost figures: %+v", back.Figures)
	}
	if len(back.Kernels) != 1 || back.Kernels[0].Cycles != 100 {
		t.Fatalf("round trip lost kernel metrics: %+v", back.Kernels)
	}
}

func TestValidateRejectsForeignDocuments(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Record)
		want string
	}{
		{"missing schema", func(r *Record) { r.Schema = "" }, "missing schema"},
		{"wrong schema", func(r *Record) { r.Schema = "other-tool" }, "not"},
		{"future version", func(r *Record) { r.SchemaVersion = SchemaVersion + 1 }, "schema_version"},
		{"no run id", func(r *Record) { r.RunID = "" }, "run_id"},
	}
	for _, tc := range cases {
		rec := stubRecord("rdef", "")
		tc.mut(rec)
		err := rec.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestReadRejectsUnknownVersion(t *testing.T) {
	rec := stubRecord("rv2", "")
	rec.SchemaVersion = 99
	path := filepath.Join(t.TempDir(), "rec.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema_version 99") {
		t.Fatalf("unknown version accepted or unclear error: %v", err)
	}
}

func TestStoreLifecycle(t *testing.T) {
	st := NewStore(filepath.Join(t.TempDir(), "runs"))

	if recs, err := st.List(); err != nil || len(recs) != 0 {
		t.Fatalf("empty store: recs=%v err=%v", recs, err)
	}
	if _, err := st.Latest(); err == nil {
		t.Fatal("Latest on empty store did not error")
	}

	older := stubRecord("rold", "2026-01-01T00:00:00Z")
	newer := stubRecord("rnew", "2026-02-01T00:00:00Z")
	for _, r := range []*Record{newer, older} {
		if _, err := st.Save(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Load("rold")
	if err != nil || got.RunID != "rold" {
		t.Fatalf("Load: %v %v", got, err)
	}
	recs, err := st.List()
	if err != nil || len(recs) != 2 {
		t.Fatalf("List: %d records, err=%v", len(recs), err)
	}
	if recs[0].RunID != "rold" || recs[1].RunID != "rnew" {
		t.Fatalf("List order by start time wrong: %s, %s", recs[0].RunID, recs[1].RunID)
	}
	latest, err := st.Latest()
	if err != nil || latest.RunID != "rnew" {
		t.Fatalf("Latest: %v %v", latest, err)
	}

	// Resolve accepts both a path and a run ID.
	byPath, err := st.Resolve(st.Path("rold"))
	if err != nil || byPath.RunID != "rold" {
		t.Fatalf("Resolve by path: %v %v", byPath, err)
	}
	byID, err := st.Resolve("rnew")
	if err != nil || byID.RunID != "rnew" {
		t.Fatalf("Resolve by id: %v %v", byID, err)
	}
	if _, err := st.Resolve("nope"); err == nil {
		t.Fatal("Resolve of unknown arg did not error")
	}
}

// TestFromSuiteDeterministicID is the archive's identity guarantee:
// archiving the same configuration twice lands on the same run ID (no
// wall-clock in the ID), and the record covers every figure and every
// kernel × configuration. It also pins the record as the suite's one
// timing and averages document: the headline figure, every figure's
// average, the per-kernel prepare_sec and per-config run_sec gauges,
// and engine/wall_sec all match the suite they came from.
func TestFromSuiteDeterministicID(t *testing.T) {
	suite, err := experiments.RunSuite(experiments.Options{Scale: 1, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	a := FromSuite(metrics.NewManifest("test"), suite, 1)
	b := FromSuite(metrics.NewManifest("test"), suite, 1)
	if a.RunID != b.RunID {
		t.Fatalf("run IDs diverge for identical configuration: %s vs %s", a.RunID, b.RunID)
	}
	if a.RunID == FromSuite(nil, suite, 2).RunID {
		t.Fatal("different scales share a run ID")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(a.Figures), len(suite.AllFigures()); got != want {
		t.Fatalf("record has %d figures, suite renders %d", got, want)
	}
	if got, want := len(a.Kernels), len(suite.Setups)*4; got != want {
		t.Errorf("record has %d kernel metrics, want %d", got, want)
	}
	if a.Manifest == nil || a.Manifest.ConfigHash != a.ConfigHash {
		t.Error("manifest not stamped with the config hash")
	}

	head := suite.Headline()
	for i, tab := range suite.AllFigures() {
		f := a.Figures[i]
		if f.ID != tab.ID || !slices.Equal(f.Average, tab.Average()) {
			t.Errorf("figure %d: record %s average %v, suite %s average %v",
				i, f.ID, f.Average, tab.ID, tab.Average())
		}
		if f.ID == head.ID && (len(f.Rows) != 1 || !slices.Equal(f.Rows[0].Vals, head.Rows[0].Vals)) {
			t.Errorf("headline figure rows %+v, suite headline %v", f.Rows, head.Rows[0].Vals)
		}
	}
	gauges := make(map[string]float64)
	for _, g := range a.Registry.Gauges {
		gauges[g.Name] = g.Value
	}
	for _, tm := range suite.Timings {
		if got := gauges["kernel/"+tm.Kernel+"/prepare_sec"]; got != tm.PrepareSec {
			t.Errorf("%s prepare_sec gauge %v, suite timing %v", tm.Kernel, got, tm.PrepareSec)
		}
		// The engine sums the per-config gauges in sim.Configs order.
		var run float64
		for _, cfg := range sim.Configs {
			run += gauges["kernel/"+tm.Kernel+"/"+cfg.Name+"/run_sec"]
		}
		if run != tm.RunSec {
			t.Errorf("%s run_sec gauges sum to %v, suite timing %v", tm.Kernel, run, tm.RunSec)
		}
	}
	if got := gauges["engine/wall_sec"]; got != suite.WallSec {
		t.Errorf("engine/wall_sec gauge %v, suite wall %v", got, suite.WallSec)
	}

	// The self-diff of one record must be exactly clean.
	d, err := Compare(a, b, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() || d.Regressed != 0 || d.Improved != 0 || d.Changed != 0 || d.Compared == 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}
}

// TestStoreStats checks the store-size accounting /metrics surfaces:
// a missing directory is empty (not an error), counts track saves, and
// PublishStats mirrors them as gauges.
func TestStoreStats(t *testing.T) {
	st := NewStore(filepath.Join(t.TempDir(), "never-created"))
	runs, bytes, err := st.Stats()
	if err != nil || runs != 0 || bytes != 0 {
		t.Fatalf("missing dir: got (%d, %d, %v), want (0, 0, nil)", runs, bytes, err)
	}

	st = NewStore(filepath.Join(t.TempDir(), "runs"))
	var wantBytes int64
	for i, id := range []string{"r1", "r2"} {
		path, err := st.Save(stubRecord(id, "2026-01-01T00:00:0"+string(rune('0'+i))+"Z"))
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += info.Size()
	}
	// Non-record files don't count.
	if err := os.WriteFile(filepath.Join(st.Dir, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, bytes, err = st.Stats()
	if err != nil || runs != 2 || bytes != wantBytes {
		t.Fatalf("Stats() = (%d, %d, %v), want (2, %d, nil)", runs, bytes, err, wantBytes)
	}

	reg := metrics.NewRegistry()
	if err := st.PublishStats(reg.Scope("archive")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("archive/runs").Value(); got != 2 {
		t.Errorf("archive/runs gauge %v, want 2", got)
	}
	if got := reg.Gauge("archive/bytes").Value(); got != float64(wantBytes) {
		t.Errorf("archive/bytes gauge %v, want %d", got, wantBytes)
	}
}
