// Package archive persists complete run records — manifest, registry
// snapshot, every experiment figure, per-kernel architectural metrics,
// phase series and synthesis decision traces — as versioned JSON under
// a run store (.powerfits/runs by default), and diffs two records with
// relative-tolerance classification so a committed baseline can gate
// CI on regressions.
//
// Run IDs are deterministic: they derive from the schema version, the
// workload scale and the configuration hash (power calibration plus
// every kernel's decoder-configuration image), never from wall-clock
// time. Re-archiving an identical configuration therefore lands on the
// same ID, which is what makes "diff this run against the baseline"
// meaningful.
package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"powerfits/internal/experiments"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// Schema identifies the record format; SchemaVersion its revision.
// Readers reject anything else — a record written by a future revision
// must not be silently misinterpreted by an old differ.
const (
	Schema        = "powerfits-run"
	SchemaVersion = 1
)

// DefaultDir is the conventional run-store location.
const DefaultDir = ".powerfits/runs"

// Figure is one experiment table, serialized with its computed
// averages so a diff never has to re-derive them.
type Figure struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Unit    string      `json:"unit,omitempty"`
	Columns []string    `json:"columns"`
	Rows    []FigureRow `json:"rows"`
	Average []float64   `json:"average"`
}

// FigureRow is one benchmark's values in a Figure.
type FigureRow struct {
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

// KernelMetrics is the deterministic architectural outcome of one
// kernel × configuration run — the numbers a regression diff compares
// (timing lives in the registry and is deliberately excluded).
type KernelMetrics struct {
	Kernel      string  `json:"kernel"`
	Config      string  `json:"config"`
	Cycles      uint64  `json:"cycles"`
	Instrs      uint64  `json:"instrs"`
	Fetches     uint64  `json:"fetches"`
	Misses      uint64  `json:"misses"`
	Branches    uint64  `json:"branches"`
	Mispredicts uint64  `json:"mispredicts"`
	SwitchPJ    float64 `json:"switch_pj"`
	InternalPJ  float64 `json:"internal_pj"`
	LeakPJ      float64 `json:"leak_pj"`
	PeakW       float64 `json:"peak_w"`
}

// Record is one archived run.
type Record struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	// RunID is deterministic: derived from schema version, scale and
	// config hash — never from wall-clock.
	RunID string `json:"run_id"`
	Scale int    `json:"scale"`
	// ConfigHash pins the power calibration and every kernel's decoder
	// configuration.
	ConfigHash string `json:"config_hash,omitempty"`
	// Sampled marks a record whose timing runs used the sampled
	// estimator (see sim.RunSampled): cycles and energy are
	// extrapolated within a validated ≤2 % error bound, outputs and
	// instruction counts exact. The marker participates in the run ID,
	// so a sampled record never overwrites a full-simulation baseline.
	Sampled bool `json:"sampled,omitempty"`

	Manifest *metrics.Manifest   `json:"manifest,omitempty"`
	Registry metrics.Snapshot    `json:"registry,omitempty"`
	Figures  []Figure            `json:"figures,omitempty"`
	Kernels  []KernelMetrics     `json:"kernels,omitempty"`
	Phases   []metrics.RunExport `json:"phase_runs,omitempty"`
	Traces   []*synth.Trace      `json:"synth_traces,omitempty"`

	// Sweep is the payload of a design-space-sweep point record: one
	// (kernel, synthesis options, cache geometry) evaluation. Sweep
	// records are what make re-sweeps incremental — their IDs derive
	// only from the point's identity, so a resumed or extended sweep
	// can probe the store before paying for simulation.
	Sweep *SweepPoint `json:"sweep,omitempty"`

	// Serve is the payload of a serving-plane result-cache record: the
	// exact response `powerfits serve` produced for one canonicalized
	// request. Like Sweep records, the ID derives only from the
	// request's identity, so the daemon can probe the store before
	// paying for synthesis.
	Serve *ServeResult `json:"serve,omitempty"`
}

// ServeResult memoizes one served synthesis response. Body holds the
// response payload as raw bytes (base64 in the JSON document) rather
// than nested JSON, so a cache hit replays the cold response
// byte-identically — re-indenting on archive round-trip would break
// the serve plane's equivalence guarantee.
type ServeResult struct {
	// Key is the canonical request hash — the same value the record's
	// run ID derives from.
	Key string `json:"key"`
	// Request echoes the canonicalized request document for operators
	// browsing the store.
	Request json.RawMessage `json:"request,omitempty"`
	// Body is the exact response payload.
	Body []byte `json:"body"`
}

// ServeRunID returns the deterministic run ID a serving-plane record
// with this canonical request key files under — callable before the
// request has been computed, which is the daemon's cache-probe path.
// The "serve/" prefix namespaces serve records away from suite, sweep
// and trace records that might share a hash input.
func ServeRunID(scale int, key string) string {
	return runID(scale, "serve/"+key)
}

// FromServe wraps one computed response as a store record. The run ID
// depends only on the canonical request key (which already folds in
// the sampled-vs-exact marker, synthesis knobs and calibration), never
// on the response bytes or wall-clock, so re-serving the same request
// overwrites rather than duplicates.
func FromServe(scale int, key string, request json.RawMessage, sampled bool, body []byte) *Record {
	return &Record{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		RunID:         ServeRunID(scale, key),
		Scale:         scale,
		ConfigHash:    key,
		Sampled:       sampled,
		Serve:         &ServeResult{Key: key, Request: request, Body: body},
	}
}

// runID derives the deterministic run identifier from identity-bearing
// blobs.
func runID(scale int, configHash string) string {
	h := metrics.HashConfig(
		[]byte(fmt.Sprintf("%s/%d/scale=%d/", Schema, SchemaVersion, scale)),
		[]byte(configHash),
	)
	return "r" + h[:16]
}

// figureOf converts one experiments table.
func figureOf(t *experiments.Table) Figure {
	f := Figure{ID: t.ID, Title: t.Title, Unit: t.Unit,
		Columns: append([]string(nil), t.Columns...), Average: t.Average()}
	for _, r := range t.Rows {
		f.Rows = append(f.Rows, FigureRow{Name: r.Name, Vals: append([]float64(nil), r.Vals...)})
	}
	return f
}

// FromSuite builds a complete record from one generated suite: every
// figure in paper order, the per-kernel architectural metrics of all
// four configurations, the merged registry, and any phase series the
// suite was observed with. The manifest (optional) is stamped with the
// suite's scale, workers, calibration and config hash.
func FromSuite(man *metrics.Manifest, suite *experiments.Suite, scale int) *Record {
	blobs := [][]byte{}
	cal, _ := json.Marshal(suite.Cal)
	blobs = append(blobs, cal)
	for _, s := range suite.Setups {
		blobs = append(blobs, s.Synth.Spec.MarshalConfig())
	}
	if suite.Sampled {
		// Fold the estimator marker into the identity so a sampled run
		// lands on its own ID instead of overwriting the exact baseline.
		blobs = append(blobs, []byte("sampled"))
	}
	hash := metrics.HashConfig(blobs...)

	rec := &Record{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		RunID:         runID(scale, hash),
		Scale:         scale,
		ConfigHash:    hash,
		Sampled:       suite.Sampled,
		Manifest:      man,
	}
	if man != nil {
		man.Scale = scale
		man.Workers = suite.Workers
		man.ConfigHash = hash
		man.SetCalibration(suite.Cal)
	}
	if suite.Metrics != nil {
		rec.Registry = suite.Metrics.Snapshot()
	}
	for _, t := range suite.AllFigures() {
		rec.Figures = append(rec.Figures, figureOf(t))
	}
	for _, s := range suite.Setups {
		for _, cfg := range sim.Configs {
			r := suite.Results[s.Kernel.Name][cfg.Name]
			rec.Kernels = append(rec.Kernels, kernelMetrics(s.Kernel.Name, r))
			if r.Phases != nil {
				rec.Phases = append(rec.Phases, phaseRun(s.Kernel.Name, r))
			}
		}
	}
	return rec
}

// FromRun builds the record of one kernel run on one configuration
// (`powerfits run`/`asm`): its architectural metrics, reg's snapshot
// (optional), and its phase series and stall breakdown when the run
// was observed. The manifest (optional) is stamped with the kernel,
// scale, configuration, ISA point, calibration and config hash. The
// run ID derives from the decoder configuration, calibration,
// configuration name and estimator, namespaced by "run/" away from
// suite, sweep, serve and trace records.
func FromRun(man *metrics.Manifest, reg *metrics.Registry, s *sim.Setup, cal power.Calibration, r *sim.Result) *Record {
	calBlob, _ := json.Marshal(cal) // plain numeric fields, as in FromSuite
	sampled := r.Sampled != nil
	hash := metrics.HashConfig([]byte("run/"), s.Synth.Spec.MarshalConfig(), calBlob,
		[]byte(fmt.Sprintf("/config=%s/sampled=%t", r.Config.Name, sampled)))
	rec := &Record{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		RunID:         runID(s.Scale, hash),
		Scale:         s.Scale,
		ConfigHash:    hash,
		Sampled:       sampled,
		Manifest:      man,
		Kernels:       []KernelMetrics{kernelMetrics(s.Kernel.Name, r)},
	}
	if man != nil {
		man.Kernel, man.Scale, man.Config = s.Kernel.Name, s.Scale, r.Config.Name
		man.ISAPoint = fmt.Sprintf("k=%d, %d/%d opcode points, %d dictionary entries",
			s.Synth.K, s.Synth.Spec.UsedPoints(), 1<<s.Synth.K, s.Synth.DictEntries)
		man.ConfigHash = hash
		man.Calibration = calBlob
	}
	if reg != nil {
		rec.Registry = reg.Snapshot()
	}
	if r.Phases != nil {
		rec.Phases = []metrics.RunExport{phaseRun(s.Kernel.Name, r)}
	}
	return rec
}

// kernelMetrics is one run's row of a record's Kernels.
func kernelMetrics(kernel string, r *sim.Result) KernelMetrics {
	return KernelMetrics{
		Kernel:      kernel,
		Config:      r.Config.Name,
		Cycles:      r.Pipe.Cycles,
		Instrs:      r.Pipe.Instrs,
		Fetches:     r.Cache.Accesses,
		Misses:      r.Cache.Misses,
		Branches:    r.Pipe.Branches,
		Mispredicts: r.Pipe.Mispredicts,
		SwitchPJ:    r.Power.SwitchingPJ,
		InternalPJ:  r.Power.InternalPJ,
		LeakPJ:      r.Power.LeakagePJ,
		PeakW:       r.Power.PeakPowerW,
	}
}

// phaseRun is one observed run's entry in a record's phase runs.
func phaseRun(kernel string, r *sim.Result) metrics.RunExport {
	return metrics.RunExport{Kernel: kernel, Config: r.Config.Name,
		Series: r.Phases, Stalls: sim.Stalls(r.Pipe)}
}

// SweepPoint is one design-space evaluation: a kernel prepared under
// one set of synthesis options and timed on one cache geometry. The
// identity fields (kernel, scale, options key, geometry, estimator,
// calibration — everything above Infeasible) determine the record's
// run ID; the remaining fields carry the measured outcome.
type SweepPoint struct {
	Kernel string `json:"kernel"`
	Scale  int    `json:"scale"`
	// Label is the human-readable point name ("k5.d64.full.8K").
	Label string `json:"label"`
	// OptionsKey is synth.Options.Key() — the canonical identity of
	// every synthesis knob the point sets.
	OptionsKey string `json:"options_key"`
	CacheBytes int    `json:"cache_bytes"`
	CacheLine  int    `json:"cache_line"`
	CacheAssoc int    `json:"cache_assoc"`
	// Sampled marks an estimate from sim.RunSampled (≤2 % validated
	// cycle/energy error); false means an exact full-pipeline run.
	// Part of the identity, so an exact record never collides with a
	// sampled one.
	Sampled bool `json:"sampled"`

	// Infeasible carries the synthesis/translation error of a point the
	// flow rejected (e.g. a forced opcode width with no feasible
	// encoding). Infeasible points are archived too: a re-sweep must
	// not re-discover the same dead ends.
	Infeasible string `json:"infeasible,omitempty"`

	// K is the opcode width the synthesizer chose (equals the forced
	// width when one was set).
	K           int     `json:"k,omitempty"`
	DictEntries int     `json:"dict_entries,omitempty"`
	CodeBytes   int     `json:"code_bytes,omitempty"`
	Cycles      uint64  `json:"cycles,omitempty"`
	Instrs      uint64  `json:"instrs,omitempty"`
	Fetches     uint64  `json:"fetches,omitempty"`
	Misses      uint64  `json:"misses,omitempty"`
	EnergyPJ    float64 `json:"energy_pj,omitempty"`
}

// configHash derives the identity hash of the point: only identity
// fields participate, so the ID is known before the point has been
// evaluated — which is exactly what lets an incremental sweep probe
// the store first. cal is the serialized power calibration.
func (sp *SweepPoint) configHash(cal []byte) string {
	return metrics.HashConfig(
		[]byte(fmt.Sprintf("sweep-point/v1/%s/scale=%d/cache=%d:%d:%d/sampled=%t/",
			sp.Kernel, sp.Scale, sp.CacheBytes, sp.CacheLine, sp.CacheAssoc, sp.Sampled)),
		[]byte(sp.OptionsKey),
		cal,
	)
}

// SweepRunID returns the deterministic run ID a point record will be
// filed under — callable before evaluation.
func SweepRunID(sp *SweepPoint, cal []byte) string {
	return runID(sp.Scale, sp.configHash(cal))
}

// FromSweepPoint wraps one evaluated (or infeasible) sweep point as a
// store record. The run ID depends only on the point's identity and
// the calibration, never on the measured values or wall-clock, so
// re-archiving the same point overwrites rather than duplicates.
func FromSweepPoint(sp *SweepPoint, cal []byte) *Record {
	hash := sp.configHash(cal)
	return &Record{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		RunID:         runID(sp.Scale, hash),
		Scale:         sp.Scale,
		ConfigHash:    hash,
		Sampled:       sp.Sampled,
		Sweep:         sp,
	}
}

// FromTrace builds a trace-only record (the `powerfits explain -save`
// artifact): one kernel's synthesis decision log, identified by its
// decoder-configuration image.
func FromTrace(man *metrics.Manifest, tr *synth.Trace, specConfig []byte, scale int) *Record {
	hash := metrics.HashConfig([]byte("trace/"+tr.Program+"/"), specConfig)
	if man != nil {
		man.Scale = scale
		man.ConfigHash = hash
	}
	return &Record{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		RunID:         runID(scale, hash),
		Scale:         scale,
		ConfigHash:    hash,
		Manifest:      man,
		Traces:        []*synth.Trace{tr},
	}
}

// Validate checks a decoded record's schema markers, returning a clear
// error for foreign or future documents.
func (r *Record) Validate() error {
	if r.Schema == "" {
		return fmt.Errorf("archive: not a %s record (missing schema field)", Schema)
	}
	if r.Schema != Schema {
		return fmt.Errorf("archive: schema %q is not %q", r.Schema, Schema)
	}
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("archive: schema_version %d not understood (this build reads version %d); re-archive with a matching binary or refresh the baseline",
			r.SchemaVersion, SchemaVersion)
	}
	if r.RunID == "" {
		return fmt.Errorf("archive: record has no run_id")
	}
	return nil
}

// Write serializes the record as indented JSON.
func (r *Record) Write(w io.Writer) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// WriteFile writes the record to path, creating parent directories.
// The write is atomic — the record lands in a temp file in the target
// directory and is renamed into place — so a reader (or a resumed
// incremental sweep probing the store) never observes a torn record:
// either the old complete document or the new one.
func (r *Record) WriteFile(path string) error {
	dir := filepath.Dir(path)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return r.writeAtomic(path)
}

// writeAtomic is the temp-file + rename body of WriteFile; the parent
// directory must already exist (Store.Save creates it once, not per
// record).
func (r *Record) writeAtomic(path string) error {
	tmp, err := r.writeTemp(filepath.Dir(path))
	if err != nil {
		return err
	}
	return commitTemp(tmp, path)
}

// writeTemp writes the record to a new temp file in dir and returns its
// name.
func (r *Record) writeTemp(dir string) (string, error) {
	f, err := os.CreateTemp(dir, ".tmp-record-*")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	if err := r.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// commitTemp renames a written temp file into place, removing it when
// the rename fails.
func commitTemp(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Read decodes and validates a record.
func Read(rd io.Reader) (*Record, error) {
	var r Record
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("archive: decoding record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReadFile reads and validates a record from path.
func ReadFile(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Store is a directory of archived runs, one <run-id>.json per record.
//
// A Store is safe for concurrent use: Save serializes only the rename
// that publishes a record, and Get tolerates readers racing a writer
// mid-rename, which is what lets the serving plane share one Store as
// a result-cache backend across many handler goroutines.
type Store struct {
	Dir string

	// mkdir creates the store directory once per Store; every Save
	// after the first skips the syscall, which matters when a sweep
	// files thousands of point records.
	mkdir    sync.Once
	mkdirErr error

	// save serializes the renames that publish records. Each Save
	// writes its own temp file unlocked, so concurrent writers overlap
	// their file I/O; the temp+rename write is atomic with respect to
	// readers, and the lock orders the renames, so the last Save to
	// rename is the record on disk.
	save sync.Mutex
}

// NewStore returns a store rooted at dir ("" selects DefaultDir).
func NewStore(dir string) *Store {
	if dir == "" {
		dir = DefaultDir
	}
	return &Store{Dir: dir}
}

// Path returns the file path of a run ID.
func (s *Store) Path(id string) string { return filepath.Join(s.Dir, id+".json") }

// Save writes the record under its run ID and returns the path. A
// record with the same configuration overwrites its predecessor — the
// ID is the identity. The write is atomic (temp file + rename in the
// store directory), so an interrupted run never leaves a torn record
// behind: a later incremental re-sweep either finds the complete
// record and skips the point, or finds nothing and re-evaluates it.
func (s *Store) Save(r *Record) (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	s.mkdir.Do(func() { s.mkdirErr = os.MkdirAll(s.Dir, 0o755) })
	if s.mkdirErr != nil {
		return "", s.mkdirErr
	}
	tmp, err := r.writeTemp(s.Dir)
	if err != nil {
		return "", err
	}
	path := s.Path(r.RunID)
	s.save.Lock()
	err = commitTemp(tmp, path)
	s.save.Unlock()
	if err != nil {
		return "", err
	}
	return path, nil
}

// SaveTo files the record at an -archive destination: a path ending in
// .json is written exactly there (the CI baseline workflow); anything
// else is a run-store directory, where the record lands under its run
// ID and the store's run-count and byte gauges are then published on
// stats. It returns the written path.
func SaveTo(r *Record, dest string, stats metrics.Scope) (string, error) {
	if strings.HasSuffix(dest, ".json") {
		return dest, r.WriteFile(dest)
	}
	st := NewStore(dest)
	path, err := st.Save(r)
	if err != nil {
		return "", err
	}
	return path, st.PublishStats(stats)
}

// Load reads one record by run ID.
func (s *Store) Load(id string) (*Record, error) {
	return ReadFile(s.Path(id))
}

// Get probes the store for a run ID: (record, true) when present and
// readable, (nil, false, nil) when absent. Unlike Load it separates
// "not cached" from real failures, and it retries one transient read
// failure: on filesystems where rename is not atomic with respect to
// open (or when a record is replaced between open and decode), a
// reader racing a writer can observe a short-lived inconsistent view,
// and a cache probe must not turn that race into a hard error.
func (s *Store) Get(id string) (*Record, bool, error) {
	path := s.Path(id)
	for attempt := 0; ; attempt++ {
		r, err := ReadFile(path)
		if err == nil {
			return r, true, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		if attempt == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		return nil, false, err
	}
}

// List reads every record in the store, sorted by manifest start time
// then run ID (records without a manifest sort first).
func (s *Store) List() ([]*Record, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []*Record
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		r, err := ReadFile(filepath.Join(s.Dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := startedAt(out[a]), startedAt(out[b])
		if sa != sb {
			return sa < sb
		}
		return out[a].RunID < out[b].RunID
	})
	return out, nil
}

// Stats reports the store's size — how many run records it holds and
// their total bytes on disk. A store whose directory does not exist
// yet is empty, not an error.
func (s *Store) Stats() (runs int, bytes int64, err error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			return 0, 0, ierr
		}
		runs++
		bytes += info.Size()
	}
	return runs, bytes, nil
}

// PublishStats exports the store's run count and byte size as gauges
// on sc (conventionally the "archive" scope), so the store shows up in
// /metrics scrapes alongside the run's own instruments.
func (s *Store) PublishStats(sc metrics.Scope) error {
	runs, bytes, err := s.Stats()
	if err != nil {
		return err
	}
	sc.Gauge("runs").Set(float64(runs))
	sc.Gauge("bytes").Set(float64(bytes))
	return nil
}

func startedAt(r *Record) string {
	if r.Manifest == nil {
		return ""
	}
	return r.Manifest.StartedAt
}

// Resolve loads a record from what the CLI was given: an existing file
// path, or a run ID looked up in the store.
func (s *Store) Resolve(arg string) (*Record, error) {
	if _, err := os.Stat(arg); err == nil {
		return ReadFile(arg)
	}
	r, err := s.Load(arg)
	if err != nil {
		return nil, fmt.Errorf("archive: %q is neither a readable file nor a run ID in %s: %w", arg, s.Dir, err)
	}
	return r, nil
}
