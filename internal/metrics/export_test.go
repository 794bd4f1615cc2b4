package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func demoRuns() []RunExport {
	return []RunExport{{
		Kernel: "crc32", Config: "FITS8",
		Series: &Series{
			WindowCycles: 4,
			Samples: []WindowSample{
				{EndCycle: 4, Cycles: 4, Fetches: 3, Misses: 1, SwitchPJ: 40, InternalPJ: 20, LeakPJ: 4, Instrs: 8},
				{EndCycle: 8, Cycles: 4, Fetches: 4, SwitchPJ: 10, InternalPJ: 20, LeakPJ: 4, Instrs: 6},
			},
			Hotspots: []Hotspot{{StartAddr: 0x1000, EndAddr: 0x1040, Fetches: 7, Misses: 1, FetchPJ: 50}},
		},
	}}
}

func TestPhasesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePhasesCSV(&buf, demoRuns()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 samples:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "kernel,config,end_cycle") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "crc32,FITS8,4,4,3,1,40,") {
		t.Errorf("bad first row %q", lines[1])
	}
}

func TestManifestTiming(t *testing.T) {
	m := NewManifest("test")
	m.Finish()
	if m.WallSec < 0 || m.CPUSec < 0 {
		t.Errorf("negative timing: wall %v cpu %v", m.WallSec, m.CPUSec)
	}
	if m.GoVersion == "" || m.StartedAt == "" {
		t.Errorf("manifest missing go version or start time: %+v", m)
	}
}
