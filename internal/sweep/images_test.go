package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

var updateImages = flag.Bool("update", false, "rewrite testdata/images.txt")

// TestGoldenImages pins every translated FITS image of the sweep's
// synthesis space: the 21 kernels at scale 1 under ForceK 0/5/6 ×
// DictCap 16/64/256 × every ablation, plus each kernel's default
// options at its default scale. A line holds the SHA-256 of the
// image's text, slot addresses and slot sizes, or the error text of an
// infeasible point. Regenerate with
//
//	go test ./internal/sweep -run TestGoldenImages -update
func TestGoldenImages(t *testing.T) {
	var sb strings.Builder
	line := func(k string, scale int, label string, s *sim.Setup, err error) {
		if err != nil {
			fmt.Fprintf(&sb, "%s s%d %s error: %v\n", k, scale, label, err)
			return
		}
		fmt.Fprintf(&sb, "%s s%d %s %s\n", k, scale, label, imageDigest(s.Fits.Image))
	}
	for _, k := range kernels.All() {
		base, err := sim.PrepareBaseline(k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		prof := base.Profiler(nil, synth.DefaultOptions())
		for _, fk := range []int{0, 5, 6} {
			for _, dc := range []int{16, 64, 256} {
				for _, a := range AllAblations() {
					p := Point{K: fk, DictCap: dc, Ablation: a}
					opts := p.Options(synth.DefaultOptions())
					s, err := base.WithFITS(prof, opts, nil)
					line(k.Name, 1, p.Label()[:strings.LastIndexByte(p.Label(), '.')], s, err)
				}
			}
		}
		s, err := sim.PrepareWith(k, 0, sim.PrepareOptions{Synth: synth.DefaultOptions()})
		line(k.Name, k.DefaultScale, "default", s, err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "images.txt")
	if *updateImages {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			wline := "<missing>"
			if i < len(wl) {
				wline = wl[i]
			}
			t.Fatalf("image line %d diverges from %s:\ngolden: %q\ngot:    %q", i+1, golden, wline, gl[i])
		}
	}
	if len(wl) != len(gl) {
		t.Fatalf("%d image lines, golden has %d", len(gl), len(wl))
	}
}

// imageDigest hashes what the timing model reads of an image: its text
// bytes, slot addresses and slot sizes.
func imageDigest(im *program.Image) string {
	h := sha256.New()
	h.Write(im.Text)
	var b [4]byte
	for _, a := range im.InstrAddr {
		binary.LittleEndian.PutUint32(b[:], a)
		h.Write(b[:])
	}
	h.Write(im.InstrSize)
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
