package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenRenderScale1 pins the rendered figure tables to a
// committed golden file: any change to the simulated numbers or the
// table formatting shows up as a reviewable diff. Regenerate with
//
//	go test ./internal/experiments -run Golden -update
func TestGoldenRenderScale1(t *testing.T) {
	seq, err := RunSuite(Options{Scale: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSuite(Options{Scale: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(seq)
	if pgot := renderAll(par); got != pgot {
		t.Fatal("rendered tables depend on parallelism — golden comparison would be meaningless")
	}

	compareGolden(t, filepath.Join("testdata", "golden_scale1.txt"), got)
}

// TestGoldenAblationsExtensions pins the rendered ablation and
// extension tables (extensions at scale 1, as fitsbench runs them) the
// same way; EXPERIMENTS.md quotes them.
func TestGoldenAblationsExtensions(t *testing.T) {
	ext, err := Extensions(1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range append(Ablations(), ext...) {
		tb.Render(&sb)
	}
	compareGolden(t, filepath.Join("testdata", "golden_ext_scale1.txt"), sb.String())
}

// compareGolden fails t where got differs from the golden file, or
// rewrites the file under -update.
func compareGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with `go test ./internal/experiments -run Golden -update`): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			wline := "<missing>"
			if i < len(wl) {
				wline = wl[i]
			}
			t.Fatalf("render diverges from golden at line %d:\ngolden: %q\ngot:    %q\n(intentional? refresh with -update)", i+1, wline, gl[i])
		}
	}
	t.Fatalf("render is a strict prefix of the golden file (intentional? refresh with -update)")
}
