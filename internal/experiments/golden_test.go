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
	seq, err := RunParallel(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(seq)
	if pgot := renderAll(par); got != pgot {
		t.Fatal("rendered tables depend on parallelism — golden comparison would be meaningless")
	}

	golden := filepath.Join("testdata", "golden_scale1.txt")
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
