package serve

import (
	"encoding/json"

	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
)

// Report schema markers, checked by clients the way archive records
// are.
const (
	ReportSchema        = "powerfits-serve-report"
	ReportSchemaVersion = 1
)

// Report is the /synth response document. Every field is a
// deterministic function of the canonicalized request — no wall-clock,
// worker counts or host identity — which is what lets a cached
// response be byte-identical to the cold computation it memoizes.
// Volatile context (cache layer hit, run ID) travels in response
// headers instead.
type Report struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	// Key is the canonical request hash; RunID the archive identity
	// the response is cached under.
	Key   string `json:"key"`
	RunID string `json:"run_id"`
	// Request echoes the canonicalized request: what the cache key
	// actually covers, with every default resolved.
	Request Request `json:"request"`

	Program ProgramInfo                 `json:"program"`
	ISA     ISAInfo                     `json:"isa"`
	Results []experiments.ConfigOutcome `json:"results"`
}

// ProgramInfo describes the program and its three encodings (the
// paper's Figures 3–5 reduced to one program).
type ProgramInfo struct {
	Name         string  `json:"name"`
	Scale        int     `json:"scale"`
	StaticInstrs uint64  `json:"static_instrs"`
	DynInstrs    uint64  `json:"dyn_instrs"`
	ArmBytes     int     `json:"arm_bytes"`
	ThumbBytes   int     `json:"thumb_bytes"`
	FitsBytes    int     `json:"fits_bytes"`
	StaticMapPct float64 `json:"static_map_pct"`
	DynMapPct    float64 `json:"dyn_map_pct"`
}

// ISAInfo describes the synthesized instruction set.
type ISAInfo struct {
	K           int `json:"k"`
	BIS         int `json:"bis"`
	SIS         int `json:"sis"`
	AIS         int `json:"ais"`
	DictEntries int `json:"dict_entries"`
	ConfigBytes int `json:"config_bytes"`
}

// serveRunID derives the archive run ID for a canonical request.
func serveRunID(c *Canonical) string {
	return archive.ServeRunID(c.Req.Scale, c.Key)
}

// Evaluate times the canonical request's configurations on a prepared
// setup and renders the response (Render).
func (c *Canonical) Evaluate(s *sim.Setup) ([]byte, *Report, error) {
	var ro sim.RunOptions
	if c.Req.Sampled {
		ro.Sample = &sim.SampleOptions{}
	}
	rs, err := s.RunAll(c.Configs, power.DefaultCalibration(), ro)
	if err != nil {
		return nil, nil, err
	}
	return c.Render(s, rs)
}

// Render builds the response from results already timed on s, one per
// configuration in c.Configs under the default calibration: the Report
// and its exact serialized bytes (indented JSON + trailing newline —
// the bytes every cache layer stores and replays).
func (c *Canonical) Render(s *sim.Setup, rs []*sim.Result) ([]byte, *Report, error) {
	results := make(map[string]*sim.Result, len(rs))
	for _, r := range rs {
		results[r.Config.Name] = r
	}

	rep := &Report{
		Schema:        ReportSchema,
		SchemaVersion: ReportSchemaVersion,
		Key:           c.Key,
		RunID:         c.RunID,
		Request:       c.Req,
		Program: ProgramInfo{
			Name:         s.Kernel.Name,
			Scale:        s.Scale,
			StaticInstrs: s.Profile.TotalStatic,
			DynInstrs:    s.Profile.TotalDyn,
			ArmBytes:     s.ArmImage.Size(),
			ThumbBytes:   s.Thumb.TotalBytes(),
			FitsBytes:    s.Fits.Image.Size(),
			StaticMapPct: 100 * s.Fits.StaticMappingRate(),
			DynMapPct:    100 * s.Fits.DynamicMappingRate(s.Profile.Dyn),
		},
		ISA: ISAInfo{
			K:           s.Synth.K,
			BIS:         len(s.Synth.BIS),
			SIS:         len(s.Synth.SIS),
			AIS:         len(s.Synth.AIS),
			DictEntries: s.Synth.DictEntries,
			ConfigBytes: s.Synth.Spec.ConfigBytes(),
		},
		Results: experiments.Outcomes(results, power.DefaultChipModel()),
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return append(body, '\n'), rep, nil
}

// DefaultCalBlob is the serialized default power calibration — the
// component of every request identity a Service built by New uses.
// CLI paths that must agree byte-for-byte with a default daemon
// (`powerfits run -o`) canonicalize against the same blob.
func DefaultCalBlob() []byte {
	blob, err := json.Marshal(power.DefaultCalibration())
	if err != nil {
		panic("serve: default calibration does not marshal: " + err.Error())
	}
	return blob
}

// Compute evaluates one canonical request end to end outside a
// Service: prepare, run, render. The benchmark module's serve workload
// checks the daemon's bodies against it.
func Compute(c *Canonical, profiles *profile.Cache) ([]byte, *Report, error) {
	s, err := c.Prepare(profiles, nil)
	if err != nil {
		return nil, nil, err
	}
	return c.Evaluate(s)
}
