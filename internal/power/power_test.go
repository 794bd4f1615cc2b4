package power

import (
	"math"
	"math/rand"
	"testing"

	"powerfits/internal/cache"
)

func testMeter(t *testing.T, geom cache.Config) (*Meter, Calibration) {
	t.Helper()
	cal := DefaultCalibration()
	m, err := NewMeter(geom, cal)
	if err != nil {
		t.Fatal(err)
	}
	return m, cal
}

func TestMeterAccounting(t *testing.T) {
	geom := cache.SA1100ICache()
	m, cal := testMeter(t, geom)
	kb := float64(geom.SizeBytes) / 1024

	// 10 idle cycles: internal and leakage accrue, no switching.
	for i := 0; i < 10; i++ {
		m.Tick()
	}
	r := m.Report()
	if r.SwitchingPJ != 0 {
		t.Errorf("idle switching = %f", r.SwitchingPJ)
	}
	wantInt := 10 * (cal.InternalBasePJ + cal.InternalPJPerKB*kb)
	if math.Abs(r.InternalPJ-wantInt) > 1e-6 {
		t.Errorf("internal = %f, want %f", r.InternalPJ, wantInt)
	}
	wantLeak := 10 * cal.LeakPJPerKBCycle * kb
	if math.Abs(r.LeakagePJ-wantLeak) > 1e-6 {
		t.Errorf("leakage = %f, want %f", r.LeakagePJ, wantLeak)
	}
	if r.Cycles != 10 {
		t.Errorf("cycles = %d", r.Cycles)
	}
}

func TestMeterAccessEnergy(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	// One 4-byte hit access: fixed 50% activity + address toggles from 0.
	m.Access(0x0, []byte{1, 2, 3, 4}, false)
	m.Tick()
	r := m.Report()
	wantSw := cal.SwitchPJPerBit * 16 // 32 bits × 0.5, addr unchanged
	if math.Abs(r.SwitchingPJ-wantSw) > 1e-6 {
		t.Errorf("switching = %f, want %f", r.SwitchingPJ, wantSw)
	}
	if r.Accesses != 1 || r.Misses != 0 {
		t.Errorf("access counts wrong: %+v", r)
	}

	// A miss adds the line-fill energy to the internal component.
	before := m.Report().InternalPJ
	m.Access(0x40, []byte{0, 0, 0, 0}, true)
	m.Tick()
	r = m.Report()
	fill := cal.FillPJPerBit * float64(cache.SA1100ICache().LineBytes*8)
	gotFill := r.InternalPJ - before - (cal.InternalBasePJ + cal.InternalPJPerKB*16)
	if math.Abs(gotFill-fill) > 1e-6 {
		t.Errorf("fill energy = %f, want %f", gotFill, fill)
	}
}

func TestHammingMode(t *testing.T) {
	cal := DefaultCalibration()
	cal.UseHamming = true
	m, err := NewMeter(cache.SA1100ICache(), cal)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(0, []byte{0xFF, 0, 0, 0}, false) // 8 toggles from zero state
	m.Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*8; math.Abs(got-want) > 1e-6 {
		t.Errorf("hamming switching = %f, want %f", got, want)
	}
	m.Access(0, []byte{0xFF, 0, 0, 0}, false) // identical: 0 toggles
	m.Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*8; math.Abs(got-want) > 1e-6 {
		t.Errorf("repeated block must not toggle: %f != %f", got, want)
	}
}

// TestDefaultModeIgnoresContents pins the fast path: with UseHamming
// off (the default) the switching energy depends only on the delivered
// width and the address, never on the block bytes.
func TestDefaultModeIgnoresContents(t *testing.T) {
	a, _ := testMeter(t, cache.SA1100ICache())
	b, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 64; i++ {
		addr := uint32(i * 4)
		a.Access(addr, []byte{0, 0, 0, 0}, false)
		b.Access(addr, []byte{byte(i), 0xFF, byte(i >> 3), 0xA5}, false)
		a.Tick()
		b.Tick()
	}
	if ra, rb := a.Report(), b.Report(); ra != rb {
		t.Errorf("default-mode reports differ with block contents:\n%+v\n%+v", ra, rb)
	}
}

// TestAccessWidthCap pins the 16-byte output-bus cap for oversized
// blocks in both switching models.
func TestAccessWidthCap(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	m.Access(0, make([]byte, 32), false) // capped at 16 bytes = 128 bits
	m.Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*64; math.Abs(got-want) > 1e-6 {
		t.Errorf("oversized block switching = %f, want %f", got, want)
	}

	cal2 := DefaultCalibration()
	cal2.UseHamming = true
	h, err := NewMeter(cache.SA1100ICache(), cal2)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 32)
	for i := range big {
		big[i] = 0xFF
	}
	h.Access(0, big, false) // only the first 16 bytes toggle
	h.Tick()
	if got, want := h.Report().SwitchingPJ, cal2.SwitchPJPerBit*128; math.Abs(got-want) > 1e-6 {
		t.Errorf("hamming oversized block switching = %f, want %f", got, want)
	}
}

func TestSizeScaling(t *testing.T) {
	m16, _ := testMeter(t, cache.SA1100ICache())
	m8, _ := testMeter(t, cache.SA1100ICacheHalf())
	for i := 0; i < 100; i++ {
		m16.Tick()
		m8.Tick()
	}
	r16, r8 := m16.Report(), m8.Report()
	if r8.LeakagePJ*2 != r16.LeakagePJ {
		t.Errorf("leakage must scale with size: %f vs %f", r8.LeakagePJ, r16.LeakagePJ)
	}
	if r8.InternalPJ >= r16.InternalPJ {
		t.Errorf("internal must shrink with size: %f vs %f", r8.InternalPJ, r16.InternalPJ)
	}
}

func TestPeakWindow(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	// 100 idle cycles, then a burst of 8 access cycles.
	for i := 0; i < 100; i++ {
		m.Tick()
	}
	for i := 0; i < 8; i++ {
		m.Access(uint32(i*4), []byte{1, 2, 3, 4}, false)
		m.Tick()
	}
	r := m.Report()
	idle := cal.InternalBasePJ + cal.InternalPJPerKB*16 + cal.LeakPJPerKBCycle*16
	idleW := idle * 1e-12 * cal.FreqHz
	if r.PeakPowerW <= idleW {
		t.Errorf("peak %f not above idle %f", r.PeakPowerW, idleW)
	}
	if avg := r.AvgPowerW(); r.PeakPowerW <= avg {
		t.Errorf("peak %f not above average %f", r.PeakPowerW, avg)
	}
}

// refTick is Meter.Tick as first written, advancing the peak-window
// ring with a modulo; TestTickMatchesModuloRing holds Tick to it.
func refTick(m *Meter) {
	m.rep.Cycles++
	m.rep.InternalPJ += m.internalCycle
	m.rep.LeakagePJ += m.leakCycle

	cyclePJ := m.pendingPJ + m.internalCycle + m.leakCycle
	m.pendingPJ = 0

	m.wSum += cyclePJ - m.window[m.wIdx]
	m.window[m.wIdx] = cyclePJ
	m.wIdx = (m.wIdx + 1) % len(m.window)
	if m.wFill < len(m.window) {
		m.wFill++
	}
	if m.wFill == len(m.window) && m.wSum > m.peakPJ {
		m.peakPJ = m.wSum
	}
}

// TestTickMatchesModuloRing feeds identical random streams of accesses,
// misses and idle cycles to Tick and to refTick and requires every
// reported energy to be bit-identical, for several window lengths and
// both switching models.
func TestTickMatchesModuloRing(t *testing.T) {
	for _, window := range []int{1, 3, 8} {
		for _, hamming := range []bool{false, true} {
			cal := DefaultCalibration()
			cal.PeakWindow = window
			cal.UseHamming = hamming
			for seed := int64(1); seed <= 5; seed++ {
				m := MustNewMeter(cache.SA1100ICache(), cal)
				ref := MustNewMeter(cache.SA1100ICache(), cal)
				r := rand.New(rand.NewSource(seed))
				block := make([]byte, 16)
				for cycle := 0; cycle < 2000; cycle++ {
					for n := r.Intn(3); n > 0; n-- { // 0-2 accesses; 0 is idle
						addr := uint32(r.Intn(1 << 16))
						r.Read(block)
						b := block[:r.Intn(len(block)+1)]
						miss := r.Intn(16) == 0
						m.Access(addr, b, miss)
						ref.Access(addr, b, miss)
					}
					if r.Intn(200) == 0 { // a burst that lifts the peak
						m.Access(0, block, true)
						ref.Access(0, block, true)
					}
					m.Tick()
					refTick(ref)
					if got, want := m.Report(), ref.Report(); got != want {
						t.Fatalf("window %d hamming %v seed %d cycle %d: report %+v, want %+v",
							window, hamming, seed, cycle, got, want)
					}
					if got, want := m.AccessPJ(), ref.AccessPJ(); got != want {
						t.Fatalf("window %d hamming %v seed %d cycle %d: AccessPJ %v, want %v",
							window, hamming, seed, cycle, got, want)
					}
					sw, in, lk := m.EnergyPJ()
					rsw, rin, rlk := ref.EnergyPJ()
					if sw != rsw || in != rin || lk != rlk {
						t.Fatalf("window %d hamming %v seed %d cycle %d: EnergyPJ (%v %v %v), want (%v %v %v)",
							window, hamming, seed, cycle, sw, in, lk, rsw, rin, rlk)
					}
				}
			}
		}
	}
}

func TestShareSumsToOne(t *testing.T) {
	m, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 50; i++ {
		m.Access(uint32(i*4), []byte{1, 2, 3, 4}, i%10 == 0)
		m.Tick()
	}
	sw, in, lk := m.Report().Share()
	if math.Abs(sw+in+lk-1) > 1e-9 {
		t.Errorf("shares sum to %f", sw+in+lk)
	}
}

func TestSaving(t *testing.T) {
	if got := Saving(100, 60); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Saving = %f", got)
	}
	if got := Saving(100, 150); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("negative saving = %f", got)
	}
	if Saving(0, 10) != 0 {
		t.Error("zero baseline must not divide")
	}
}

func TestChipModel(t *testing.T) {
	m, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 1000; i++ {
		m.Access(uint32(i*4), []byte{byte(i), 2, 3, 4}, false)
		m.Tick()
	}
	r := m.Report()
	cm := DefaultChipModel()
	chip := cm.ChipPJ(r)
	share := r.TotalPJ() / chip
	if share < 0.2 || share > 0.35 {
		t.Errorf("I-cache share of chip = %.3f, want ≈ 0.27", share)
	}
}

func TestValidation(t *testing.T) {
	cal := DefaultCalibration()
	cal.FreqHz = 0
	if _, err := NewMeter(cache.SA1100ICache(), cal); err == nil {
		t.Error("zero frequency accepted")
	}
	cal = DefaultCalibration()
	cal.PeakWindow = 0
	if _, err := NewMeter(cache.SA1100ICache(), cal); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewMeter(cache.Config{SizeBytes: 3}, DefaultCalibration()); err == nil {
		t.Error("bad geometry accepted")
	}
}
