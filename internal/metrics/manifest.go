package metrics

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Manifest stamps one run record with everything needed to attribute the
// numbers to a reproducible configuration: what ran (tool, kernel,
// scale, processor configuration, ISA point), under which model
// (calibration, decoder-configuration hash), from which source tree
// (git describe, Go version) and at what cost (wall/CPU time).
type Manifest struct {
	Tool        string          `json:"tool"`
	Args        []string        `json:"args,omitempty"`
	Kernel      string          `json:"kernel,omitempty"`
	Scale       int             `json:"scale,omitempty"`
	Config      string          `json:"config,omitempty"`
	ISAPoint    string          `json:"isa_point,omitempty"`
	ConfigHash  string          `json:"config_hash,omitempty"`
	Calibration json.RawMessage `json:"calibration,omitempty"`
	GitDescribe string          `json:"git_describe,omitempty"`
	GoVersion   string          `json:"go_version"`
	Workers     int             `json:"workers,omitempty"`
	StartedAt   string          `json:"started_at"`
	WallSec     float64         `json:"wall_sec"`
	CPUSec      float64         `json:"cpu_sec"`

	started time.Time
	cpu0    float64
}

// NewManifest starts a manifest for the named tool, stamping the
// command line, Go version and best-effort `git describe` of the
// working tree.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Tool:        tool,
		Args:        os.Args[1:],
		GoVersion:   runtime.Version(),
		GitDescribe: gitDescribe(),
		StartedAt:   time.Now().UTC().Format(time.RFC3339),
		started:     time.Now(),
		cpu0:        processCPUSeconds(),
	}
	return m
}

// Finish stamps the elapsed wall and CPU time. Call it once, just
// before export.
func (m *Manifest) Finish() {
	m.WallSec = time.Since(m.started).Seconds()
	m.CPUSec = processCPUSeconds() - m.cpu0
}

// SetCalibration records the power calibration as embedded JSON.
func (m *Manifest) SetCalibration(cal any) {
	if blob, err := json.Marshal(cal); err == nil {
		m.Calibration = blob
	}
}

// HashConfig returns the hex SHA-256 of the given blobs, used to pin
// the decoder configuration (and anything else identity-bearing) into
// the manifest.
func HashConfig(blobs ...[]byte) string {
	h := sha256.New()
	for _, b := range blobs {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gitDescribe returns `git describe --always --dirty` for the current
// directory, or "" when the tree is not a git checkout or git is
// unavailable.
func gitDescribe() string { return gitDescribeIn("") }

// gitDescribeIn runs git describe in dir ("" = current directory). The
// manifest treats source attribution as best-effort: any failure —
// no git binary, no checkout — degrades to the empty string rather
// than an error.
func gitDescribeIn(dir string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
