package sim

import (
	"reflect"
	"slices"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/profile"
)

// TestCountedPassProfileMatchesCollect holds the suite's profile source
// to profile.Collect: for every kernel, the counts an ARM timing pass
// gathers (RunOptions.Counts), built into a profile by
// profile.FromCounts, give Collect's Dyn, Output, TotalDyn and
// signature, literal, register and branch statistics. Exact passes run
// at scales 1 and 4 and sampled ones at the default scale; a sampled
// pass forced into its exact fallback (a MinWindows it cannot reach)
// must not count its aborted prefix. Every ARM pass of Passes counts,
// so jpeg, whose ARM16 and ARM8 passes split, checks both.
func TestCountedPassProfileMatchesCollect(t *testing.T) {
	cal := power.DefaultCalibration()
	cases := []struct {
		name   string
		scale  int
		sample *SampleOptions
	}{
		{"exact/1", 1, nil},
		{"exact/4", 4, nil},
		{"sampled/default", 0, &SampleOptions{}},
		{"fallback/1", 1, &SampleOptions{MinWindows: 1 << 20}},
	}
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cases {
				base, err := PrepareBaseline(k, c.scale, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := profile.Collect(base.Prog, 0)
				if err != nil {
					t.Fatal(err)
				}
				passes, err := base.Passes([]Config{ARM16, ARM8})
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range passes {
					counts := make([]uint64, len(base.Prog.Instrs))
					rs, err := base.RunAll(pass, cal, RunOptions{Sample: c.sample, Counts: counts})
					if err != nil {
						t.Fatalf("%s on %s: %v", c.name, passName(pass), err)
					}
					if fell := rs[0].Sampled != nil && rs[0].Sampled.Exact; fell != (c.name == "fallback/1") {
						t.Fatalf("%s on %s: exact fallback %t", c.name, passName(pass), fell)
					}
					got := profile.FromCounts(base.Prog, counts, rs[0].Pipe.Output)
					if diff := profileDiff(got, want); diff != "" {
						t.Errorf("%s on %s: %s differ from profile.Collect's", c.name, passName(pass), diff)
					}
				}
			}
		})
	}
}

// profileDiff names the first part in which two profiles of one
// program differ, or returns "".
func profileDiff(a, b *profile.Profile) string {
	switch {
	case !slices.Equal(a.Dyn, b.Dyn):
		return "per-instruction counts"
	case !slices.Equal(a.Output, b.Output):
		return "outputs"
	case a.TotalDyn != b.TotalDyn || a.TotalStatic != b.TotalStatic:
		return "totals"
	case !reflect.DeepEqual(a.Sigs, b.Sigs):
		return "signature statistics"
	case !reflect.DeepEqual(a.Lits, b.Lits):
		return "literal statistics"
	case a.NarrowRegs != b.NarrowRegs:
		return "register statistics"
	case a.BranchDisp != b.BranchDisp:
		return "branch statistics"
	}
	return ""
}

// TestRunAllRejectsBadTargetsAndCounts checks the guards of a partial
// Setup and of counting: a baseline Setup refuses FITS configurations
// in RunAll and Passes, and RunAll refuses counts over configurations
// that span more than one pass (jpeg's ARM16 and ARM8 split) and counts
// whose length is not the pass program's instruction count.
func TestRunAllRejectsBadTargetsAndCounts(t *testing.T) {
	base, err := PrepareBaseline(kernels.MustGet("jpeg"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Prog.Instrs)
	cal := power.DefaultCalibration()
	for _, c := range []struct {
		name   string
		cfgs   []Config
		opt    RunOptions
		passes bool // Passes must refuse cfgs too
	}{
		{"FITS on a baseline", []Config{FITS16}, RunOptions{}, true},
		{"FITS beside ARM on a baseline", []Config{ARM16, FITS8}, RunOptions{}, true},
		{"sampled FITS on a baseline", []Config{FITS8}, RunOptions{Sample: &SampleOptions{}}, true},
		{"counts over two passes", []Config{ARM16, ARM8}, RunOptions{Counts: make([]uint64, n)}, false},
		{"too few counts", []Config{ARM16}, RunOptions{Counts: make([]uint64, n-1)}, false},
		{"too many sampled counts", []Config{ARM16}, RunOptions{Sample: &SampleOptions{}, Counts: make([]uint64, n+1)}, false},
	} {
		if _, err := base.RunAll(c.cfgs, cal, c.opt); err == nil {
			t.Errorf("%s: RunAll accepted it", c.name)
		}
		if _, err := base.Passes(c.cfgs); (err == nil) == c.passes {
			t.Errorf("%s: Passes returned %v", c.name, err)
		}
	}
}
