package experiments

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"powerfits/internal/sim"
)

// The suite is expensive to prepare; share one scale-1 run across all
// shape tests.
var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = RunSuite(Options{Scale: 1, Workers: runtime.GOMAXPROCS(0)})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestSuiteCompleteness(t *testing.T) {
	s := testSuite(t)
	if len(s.Setups) != 21 {
		t.Fatalf("suite has %d kernels, want 21 (the paper's benchmark count)", len(s.Setups))
	}
	for _, st := range s.Setups {
		res := s.Results[st.Kernel.Name]
		for _, cfg := range sim.Configs {
			if res[cfg.Name] == nil {
				t.Fatalf("%s missing %s result", st.Kernel.Name, cfg.Name)
			}
		}
	}
}

// TestPaperShapeMappingCoverage asserts Figures 3–4: high 1:1 mapping.
func TestPaperShapeMappingCoverage(t *testing.T) {
	s := testSuite(t)
	if avg := s.Fig3().Average()[0]; avg < 90 {
		t.Errorf("average static mapping %.1f%% < 90%% (paper: 96%%)", avg)
	}
	if avg := s.Fig4().Average()[0]; avg < 90 {
		t.Errorf("average dynamic mapping %.1f%% < 90%% (paper: 98%%)", avg)
	}
}

// TestPaperShapeCodeSize asserts Figure 5's ordering: FITS < THUMB < ARM
// on average, with FITS near half of ARM.
func TestPaperShapeCodeSize(t *testing.T) {
	s := testSuite(t)
	avg := s.Fig5().Average()
	armA, thumbA, fitsA := avg[0], avg[1], avg[2]
	if !(fitsA < thumbA && thumbA < armA) {
		t.Errorf("size ordering broken: ARM %.1f THUMB %.1f FITS %.1f", armA, thumbA, fitsA)
	}
	if fitsA > 60 {
		t.Errorf("FITS average %.1f%% of ARM; paper reports ≈53%%", fitsA)
	}
	// Per-benchmark: FITS must always beat ARM.
	for _, r := range s.Fig5().Rows {
		if r.Vals[2] >= 100 {
			t.Errorf("%s: FITS %.1f%% ≥ ARM", r.Name, r.Vals[2])
		}
	}
}

// TestPaperShapeBreakdown asserts Figure 6's observations: internal
// dominates; growing the cache lowers the switching share and keeps the
// leakage share roughly stable; FITS lowers the switching share at
// equal size.
func TestPaperShapeBreakdown(t *testing.T) {
	s := testSuite(t)
	a16 := s.Fig6(sim.ARM16).Average()
	a8 := s.Fig6(sim.ARM8).Average()
	f16 := s.Fig6(sim.FITS16).Average()
	if a16[1] < 50 {
		t.Errorf("ARM16 internal share %.1f%% < 50%%", a16[1])
	}
	if !(a16[0] < a8[0]) {
		t.Errorf("switching share must fall with cache size: 16K %.1f%% vs 8K %.1f%%", a16[0], a8[0])
	}
	if !(f16[0] < a16[0]) {
		t.Errorf("FITS must lower the switching share at equal size: %.1f%% vs %.1f%%", f16[0], a16[0])
	}
}

// TestPaperShapeSwitchingSaving asserts Figure 7: FITS16 ≈ FITS8 save
// substantially, ARM8 saves almost nothing.
func TestPaperShapeSwitchingSaving(t *testing.T) {
	s := testSuite(t)
	avg := s.Fig7().Average() // FITS16, FITS8, ARM8
	if avg[0] < 25 || avg[1] < 25 {
		t.Errorf("FITS switching savings too low: %.1f / %.1f (paper ≈50)", avg[0], avg[1])
	}
	if avg[2] > 5 || avg[2] < -5 {
		t.Errorf("ARM8 switching saving %.1f%% should be ≈0", avg[2])
	}
}

// TestPaperShapeSizeDrivenSavings asserts Figures 8–9: the half-sized
// caches save internal and leakage power; same-sized FITS16 saves far
// less.
func TestPaperShapeSizeDrivenSavings(t *testing.T) {
	s := testSuite(t)
	for _, tb := range []*Table{s.Fig8(), s.Fig9()} {
		avg := tb.Average()
		if avg[1] < 30 || avg[2] < 30 {
			t.Errorf("%s: half-size savings too low: FITS8 %.1f ARM8 %.1f", tb.ID, avg[1], avg[2])
		}
		if avg[0] > avg[1]/2 {
			t.Errorf("%s: FITS16 saving %.1f should be well below FITS8 %.1f", tb.ID, avg[0], avg[1])
		}
	}
}

// TestPaperShapeTotalSaving asserts Figure 11's ordering:
// FITS8 > ARM8 > FITS16 > 0, with magnitudes near the paper's
// 47/27/18.
func TestPaperShapeTotalSaving(t *testing.T) {
	s := testSuite(t)
	avg := s.Fig11().Average() // FITS16, FITS8, ARM8
	fits16, fits8, arm8 := avg[0], avg[1], avg[2]
	if !(fits8 > arm8 && arm8 > fits16 && fits16 > 0) {
		t.Errorf("total-saving ordering broken: FITS16 %.1f FITS8 %.1f ARM8 %.1f", fits16, fits8, arm8)
	}
	if fits8 < 35 || fits8 > 60 {
		t.Errorf("FITS8 total saving %.1f%% far from paper's 47%%", fits8)
	}
}

// TestPaperShapeMissRates asserts Figure 13: the half-sized FITS cache
// misses no more than the full-sized ARM cache, and thrashy benchmarks
// blow up only under ARM8.
func TestPaperShapeMissRates(t *testing.T) {
	s := testSuite(t)
	tb := s.Fig13() // ARM16, ARM8, FITS16, FITS8
	avg := tb.Average()
	if avg[3] > avg[0] {
		t.Errorf("FITS8 average miss rate %.1f exceeds ARM16's %.1f", avg[3], avg[0])
	}
	// jpeg (13.7 KB of ARM text) must thrash the 8 KB ARM cache but fit
	// when halved by FITS.
	for _, r := range tb.Rows {
		if r.Name != "jpeg" {
			continue
		}
		// At scale 1 the FITS8 misses are compulsory only; the thrash
		// gap widens further at the default scales.
		arm8, fits8 := r.Vals[1], r.Vals[3]
		if arm8 < 10*fits8 {
			t.Errorf("jpeg: ARM8 %.0f misses/M should dwarf FITS8 %.0f", arm8, fits8)
		}
	}
}

// TestPaperShapeIPC asserts Figure 14: IPC comparable across
// configurations, max 2; FITS8 within a whisker of ARM16.
func TestPaperShapeIPC(t *testing.T) {
	s := testSuite(t)
	tb := s.Fig14()
	for _, r := range tb.Rows {
		for i, v := range r.Vals {
			if v <= 0 || v > 2 {
				t.Errorf("%s %s: IPC %.2f out of (0,2]", r.Name, tb.Columns[i], v)
			}
		}
		arm16, fits8 := r.Vals[0], r.Vals[3]
		if fits8 < arm16*0.85 {
			t.Errorf("%s: FITS8 IPC %.2f well below ARM16 %.2f", r.Name, fits8, arm16)
		}
	}
}

// TestHeadline asserts the abstract-level summary stays in the paper's
// neighbourhood for the robust metrics.
func TestHeadline(t *testing.T) {
	s := testSuite(t)
	row := s.Headline().Rows[0].Vals // switching, internal, leakage, total, peak
	if row[0] < 30 {
		t.Errorf("switching saving %.1f%% (paper 49.4)", row[0])
	}
	if row[3] < 40 || row[3] > 55 {
		t.Errorf("total cache saving %.1f%% (paper 46.6)", row[3])
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID: "t", Title: "Demo", Unit: "%", Columns: []string{"a", "b"},
		Rows:     []Row{{"x", []float64{1, 2}}, {"y", []float64{3, 4}}},
		PaperAvg: []float64{2, -1},
		Note:     "hello",
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Demo", "AVERAGE", "paper avg", "hello", "2.00", "—"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	avg := tb.Average()
	if avg[0] != 2 || avg[1] != 3 {
		t.Errorf("average = %v", avg)
	}
}

// TestExtensions exercises the extension experiments at scale 1 and
// checks their key findings: the headline saving is robust to the
// switching model and to cache geometry, and energy savings are at
// least as large as average-power savings.
func TestExtensions(t *testing.T) {
	tables, err := Extensions(1)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*Table, len(tables))
	for _, tb := range tables {
		byID[tb.ID] = tb
	}

	act := byID["ext-activity"]
	avg := act.Average()
	if avg[0] < 35 || avg[1] < 35 {
		t.Errorf("headline not robust to switching model: %v", avg)
	}

	geo := byID["ext-geometry"]
	for _, r := range geo.Rows {
		for i, v := range r.Vals {
			if v < 25 {
				t.Errorf("%s @ %s: FITS8 saving %.1f%% collapsed", r.Name, geo.Columns[i], v)
			}
		}
	}

	for _, r := range byID["ext-energy"].Rows {
		energy, pow, runtime := r.Vals[0], r.Vals[1], r.Vals[2]
		if energy+1e-9 < pow {
			t.Errorf("%s: energy saving %.1f%% below power saving %.1f%%", r.Name, energy, pow)
		}
		if runtime > 102 {
			t.Errorf("%s: FITS8 runtime %.1f%% of ARM16 (should not be slower)", r.Name, runtime)
		}
	}
}
