package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"powerfits/internal/experiments"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
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

	// Observation does not move the identity: a windowed run of the same
	// suite keeps the ID, kernel metrics and figures, and adds one phase
	// run per kernel × configuration carrying its stall breakdown.
	if len(a.Phases) != 0 {
		t.Fatalf("unwindowed record has %d phase runs", len(a.Phases))
	}
	observed, err := experiments.RunSuite(experiments.Options{Scale: 1, WindowCycles: 4096})
	if err != nil {
		t.Fatal(err)
	}
	w := FromSuite(metrics.NewManifest("test"), observed, 1)
	if w.RunID != a.RunID {
		t.Errorf("windowed run ID %s, unwindowed %s", w.RunID, a.RunID)
	}
	if !reflect.DeepEqual(w.Kernels, a.Kernels) || !reflect.DeepEqual(w.Figures, a.Figures) {
		t.Error("windowed record's kernels or figures differ from the unwindowed record's")
	}
	if got, want := len(w.Phases), len(observed.Setups)*len(sim.Configs); got != want || want != 84 {
		t.Fatalf("windowed record has %d phase runs, want %d (84)", got, want)
	}
	for _, pr := range w.Phases {
		r := observed.Results[pr.Kernel][pr.Config]
		if pr.Series == nil || pr.Series != r.Phases {
			t.Errorf("%s/%s: phase series not the run's", pr.Kernel, pr.Config)
		}
		if want := sim.Stalls(r.Pipe); pr.Stalls == nil || *pr.Stalls != *want {
			t.Errorf("%s/%s: stalls %+v, want %+v", pr.Kernel, pr.Config, pr.Stalls, want)
		}
	}
	var buf bytes.Buffer
	if err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Phases, w.Phases) {
		t.Error("phase runs or stalls changed over a Write/Read round trip")
	}
}

// TestFromRunRecord pins the single-run record behind `powerfits run
// -archive`: a deterministic ID that moves with the configuration and
// the estimator but not with observation, one kernel row, and one
// phase run carrying its stall breakdown only when the run was
// observed.
func TestFromRunRecord(t *testing.T) {
	s, err := sim.PrepareWith(kernels.MustGet("crc32"), 1, sim.PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cal := power.DefaultCalibration()
	record := func(cfg sim.Config, opt sim.RunOptions) (*Record, *sim.Result) {
		rs, err := s.RunAll([]sim.Config{cfg}, cal, opt)
		if err != nil {
			t.Fatal(err)
		}
		return FromRun(metrics.NewManifest("test"), nil, s, cal, rs[0]), rs[0]
	}
	plain, _ := record(sim.FITS8, sim.RunOptions{})
	observed, r := record(sim.FITS8, sim.RunOptions{WindowCycles: 2048})
	other, _ := record(sim.ARM16, sim.RunOptions{})
	sampled, _ := record(sim.FITS8, sim.RunOptions{Sample: &sim.SampleOptions{}})
	if err := observed.Validate(); err != nil {
		t.Fatal(err)
	}
	if plain.RunID != observed.RunID {
		t.Errorf("observation moved the run ID: %s vs %s", plain.RunID, observed.RunID)
	}
	if other.RunID == plain.RunID || sampled.RunID == plain.RunID || !sampled.Sampled {
		t.Errorf("run IDs not namespaced by config and estimator: FITS8 %s, ARM16 %s, sampled %s",
			plain.RunID, other.RunID, sampled.RunID)
	}
	if m := observed.Manifest; m.Kernel != "crc32" || m.Config != "FITS8" || m.Scale != 1 ||
		m.ConfigHash != observed.ConfigHash || m.ISAPoint == "" || len(m.Calibration) == 0 {
		t.Errorf("manifest not stamped: %+v", m)
	}
	if len(observed.Kernels) != 1 || observed.Kernels[0] != plain.Kernels[0] {
		t.Errorf("kernel rows %+v, want one equal to the unobserved run's %+v", observed.Kernels, plain.Kernels)
	}
	if len(plain.Phases) != 0 || len(observed.Phases) != 1 {
		t.Fatalf("phase runs: %d unobserved, %d observed; want 0 and 1", len(plain.Phases), len(observed.Phases))
	}
	if pr := observed.Phases[0]; pr.Series != r.Phases || pr.Stalls == nil || *pr.Stalls != *sim.Stalls(r.Pipe) {
		t.Errorf("phase run does not carry the run's series and stalls: %+v", pr)
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
