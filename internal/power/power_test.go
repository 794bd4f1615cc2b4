package power

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
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
		m.Stream().Tick()
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
	m.Stream().Access(0x0, []byte{1, 2, 3, 4}, false)
	m.Stream().Tick()
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
	m.Stream().Access(0x40, []byte{0, 0, 0, 0}, true)
	m.Stream().Tick()
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
	m.Stream().Access(0, []byte{0xFF, 0, 0, 0}, false) // 8 toggles from zero state
	m.Stream().Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*8; math.Abs(got-want) > 1e-6 {
		t.Errorf("hamming switching = %f, want %f", got, want)
	}
	m.Stream().Access(0, []byte{0xFF, 0, 0, 0}, false) // identical: 0 toggles
	m.Stream().Tick()
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
		a.Stream().Access(addr, []byte{0, 0, 0, 0}, false)
		b.Stream().Access(addr, []byte{byte(i), 0xFF, byte(i >> 3), 0xA5}, false)
		a.Stream().Tick()
		b.Stream().Tick()
	}
	if ra, rb := a.Report(), b.Report(); ra != rb {
		t.Errorf("default-mode reports differ with block contents:\n%+v\n%+v", ra, rb)
	}
}

// TestAccessWidthCap pins the 16-byte output-bus cap for oversized
// blocks in both switching models.
func TestAccessWidthCap(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	m.Stream().Access(0, make([]byte, 32), false) // capped at 16 bytes = 128 bits
	m.Stream().Tick()
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
	h.Stream().Access(0, big, false) // only the first 16 bytes toggle
	h.Stream().Tick()
	if got, want := h.Report().SwitchingPJ, cal2.SwitchPJPerBit*128; math.Abs(got-want) > 1e-6 {
		t.Errorf("hamming oversized block switching = %f, want %f", got, want)
	}
}

func TestSizeScaling(t *testing.T) {
	m16, _ := testMeter(t, cache.SA1100ICache())
	m8, _ := testMeter(t, cache.SA1100ICacheHalf())
	for i := 0; i < 100; i++ {
		m16.Stream().Tick()
		m8.Stream().Tick()
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
		m.Stream().Tick()
	}
	for i := 0; i < 8; i++ {
		m.Stream().Access(uint32(i*4), []byte{1, 2, 3, 4}, false)
		m.Stream().Tick()
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

func TestShareSumsToOne(t *testing.T) {
	m, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 50; i++ {
		m.Stream().Access(uint32(i*4), []byte{1, 2, 3, 4}, i%10 == 0)
		m.Stream().Tick()
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
		m.Stream().Access(uint32(i*4), []byte{byte(i), 2, 3, 4}, false)
		m.Stream().Tick()
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

	// Every unit cost must be finite and non-negative, and the clock
	// finite: NaN slips past a plain "<= 0" test.
	for _, tc := range []struct {
		name string
		set  func(*Calibration)
	}{
		{"negative switching", func(c *Calibration) { c.SwitchPJPerBit = -1 }},
		{"NaN switching", func(c *Calibration) { c.SwitchPJPerBit = math.NaN() }},
		{"negative internal base", func(c *Calibration) { c.InternalBasePJ = -0.5 }},
		{"infinite internal per KB", func(c *Calibration) { c.InternalPJPerKB = math.Inf(1) }},
		{"NaN fill", func(c *Calibration) { c.FillPJPerBit = math.NaN() }},
		{"negative leakage", func(c *Calibration) { c.LeakPJPerKBCycle = -2.5 }},
		{"NaN frequency", func(c *Calibration) { c.FreqHz = math.NaN() }},
		{"infinite frequency", func(c *Calibration) { c.FreqHz = math.Inf(1) }},
	} {
		cal := DefaultCalibration()
		tc.set(&cal)
		if err := cal.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	zero := DefaultCalibration()
	zero.SwitchPJPerBit, zero.InternalBasePJ, zero.InternalPJPerKB = 0, 0, 0
	zero.FillPJPerBit, zero.LeakPJPerKBCycle = 0, 0
	if err := zero.Validate(); err != nil {
		t.Errorf("zero unit costs rejected: %v", err)
	}

	s, err := newStream(DefaultCalibration(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewMeter(cache.Config{SizeBytes: 16 * 1024, LineBytes: 64, Assoc: 32}); err == nil {
		t.Error("meter with another line size accepted on a stream")
	}
	if _, err := newStream(DefaultCalibration(), 0); err == nil {
		t.Error("zero line size accepted")
	}
}

// refMeter is the energy model in its direct per-cycle form: every
// access adds its switching and fill energy to float running sums,
// every Tick adds the cycle's internal and leakage energy, and the peak
// window is a ring of per-cycle float energies. Meter must read exactly
// the same values whenever no partial sum rounds.
type refMeter struct {
	cal           Calibration
	internalCycle float64
	leakCycle     float64
	fillPJ        float64

	prevData [2]uint64
	prevAddr uint32

	pendingPJ float64 // access energy awaiting this cycle's Tick

	rep Report

	window []float64
	wIdx   int
	wSum   float64
	wFill  int
	peakPJ float64

	lastAccessPJ float64
	accessPJ     float64
}

func newRefMeter(geom cache.Config, cal Calibration) *refMeter {
	kb := float64(geom.SizeBytes) / 1024
	return &refMeter{
		cal:           cal,
		internalCycle: cal.InternalBasePJ + cal.InternalPJPerKB*kb,
		leakCycle:     cal.LeakPJPerKBCycle * kb,
		fillPJ:        cal.FillPJPerBit * float64(geom.LineBytes*8),
		window:        make([]float64, cal.PeakWindow),
		rep:           Report{FreqHz: cal.FreqHz},
	}
}

func (m *refMeter) Access(addr uint32, block []byte, miss bool) {
	m.rep.Accesses++
	n := min(len(block), 16)
	var dataToggles int
	if m.cal.UseHamming {
		var cur [2]uint64
		for i := 0; i < n; i++ {
			cur[i/8] |= uint64(block[i]) << (8 * (i % 8))
		}
		dataToggles = bits.OnesCount64(cur[0]^m.prevData[0]) +
			bits.OnesCount64(cur[1]^m.prevData[1])
		m.prevData = cur
	} else {
		dataToggles = n * 8 / 2
	}
	toggles := dataToggles + bits.OnesCount32(addr^m.prevAddr)
	m.prevAddr = addr

	sw := m.cal.SwitchPJPerBit * float64(toggles)
	m.rep.SwitchingPJ += sw
	m.pendingPJ += sw
	m.lastAccessPJ = sw
	if miss {
		m.rep.Misses++
		m.rep.InternalPJ += m.fillPJ
		m.pendingPJ += m.fillPJ
		m.lastAccessPJ += m.fillPJ
	}
	m.accessPJ += m.lastAccessPJ
}

func (m *refMeter) Tick() {
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

func (m *refMeter) Report() Report {
	r := m.rep
	w := float64(len(m.window))
	peak := m.peakPJ
	if m.wFill < len(m.window) && m.wFill > 0 {
		peak = m.wSum
		w = float64(m.wFill)
	}
	if w > 0 {
		r.PeakPowerW = peak / w * 1e-12 * m.cal.FreqHz
	}
	return r
}

// refRig drives meters of several geometries on one stream and a
// reference meter per geometry with the same accesses and cycles, plus
// the same meters on a second stream that takes each all-hit unit
// (refRig.unit) in one ReplayRun instead of access by access.
type refRig struct {
	stream *Stream
	meters []*Meter
	refs   []*refMeter

	bulk       *Stream
	bulkMeters []*Meter
	run        []uint64
}

// refGeoms are the geometries every rig prices: the paper's 16 and
// 8 KB caches and a 4 KB one, all with 32-byte lines.
var refGeoms = []cache.Config{
	cache.SA1100ICache(),
	cache.SA1100ICacheHalf(),
	{SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 32},
}

// newStream builds an empty stream for caches of the given line size,
// as NewMeter does beneath its meter.
func newStream(cal Calibration, lineBytes int) (*Stream, error) {
	s := new(Stream)
	if err := s.init(cal, lineBytes); err != nil {
		return nil, err
	}
	return s, nil
}

func newRefRig(tb testing.TB, cal Calibration) *refRig {
	tb.Helper()
	s, err := newStream(cal, 32)
	if err != nil {
		tb.Fatal(err)
	}
	bulk, _ := newStream(cal, 32)
	rig := &refRig{stream: s, bulk: bulk}
	for _, g := range refGeoms {
		m, err := s.NewMeter(g)
		if err != nil {
			tb.Fatal(err)
		}
		bm, _ := bulk.NewMeter(g)
		rig.meters = append(rig.meters, m)
		rig.bulkMeters = append(rig.bulkMeters, bm)
		rig.refs = append(rig.refs, newRefMeter(g, cal))
	}
	return rig
}

func (r *refRig) access(addr uint32, block []byte, miss bool) {
	r.stream.Access(addr, block, miss)
	r.bulk.Access(addr, block, miss)
	for _, ref := range r.refs {
		ref.Access(addr, block, miss)
	}
}

func (r *refRig) tick() {
	r.stream.Tick()
	r.bulk.Tick()
	for _, ref := range r.refs {
		ref.Tick()
	}
}

// unit feeds an all-hit unit: access k, of blocks[k] at addrs[k], comes
// gaps[k] ticks after the one before it (or the unit's start), and the
// unit closes trailing ticks after its last access. The per-access
// stream and the references take it access by access, the bulk stream
// as one summary built by a RunBuilder and applied by ReplayRun.
func (r *refRig) unit(gaps []int, addrs []uint32, blocks [][]byte, trailing int) {
	b := r.bulk.BeginRun(r.run[:0])
	at := 0
	for k, gap := range gaps {
		for range gap {
			r.stream.Tick()
			for _, ref := range r.refs {
				ref.Tick()
			}
		}
		at += gap
		r.stream.Access(addrs[k], blocks[k], false)
		for _, ref := range r.refs {
			ref.Access(addrs[k], blocks[k], false)
		}
		b.Access(uint32(at), addrs[k], blocks[k])
	}
	for range trailing {
		r.stream.Tick()
		for _, ref := range r.refs {
			ref.Tick()
		}
	}
	r.run = b.End(uint32(at + trailing))
	r.bulk.ReplayRun(r.run)
}

// check requires the bulk stream's state to equal the per-access
// stream's, every reading of every meter to equal its reference with
// ==, and every bulk meter's reading to equal its per-access meter's.
func (r *refRig) check(tb testing.TB, at string) {
	tb.Helper()
	if d := diffStreams(r.bulk, r.stream); d != "" {
		tb.Fatalf("%s: bulk stream differs in %s", at, d)
	}
	for i, m := range r.meters {
		ref := r.refs[i]
		if got, want := m.Report(), ref.Report(); got != want {
			tb.Fatalf("%s, %d B cache: report %+v, want %+v", at, refGeoms[i].SizeBytes, got, want)
		}
		sw, in, lk := m.EnergyPJ()
		if want := ref.rep; sw != want.SwitchingPJ || in != want.InternalPJ || lk != want.LeakagePJ {
			tb.Fatalf("%s, %d B cache: EnergyPJ (%v %v %v), want (%v %v %v)", at, refGeoms[i].SizeBytes,
				sw, in, lk, want.SwitchingPJ, want.InternalPJ, want.LeakagePJ)
		}
		if got, want := m.AccessPJ(), ref.accessPJ; got != want {
			tb.Fatalf("%s, %d B cache: AccessPJ %v, want %v", at, refGeoms[i].SizeBytes, got, want)
		}
		if got, want := m.LastAccessPJ(), ref.lastAccessPJ; got != want {
			tb.Fatalf("%s, %d B cache: LastAccessPJ %v, want %v", at, refGeoms[i].SizeBytes, got, want)
		}
		bm := r.bulkMeters[i]
		if got, want := bm.Report(), m.Report(); got != want {
			tb.Fatalf("%s, %d B cache: bulk report %+v, want %+v", at, refGeoms[i].SizeBytes, got, want)
		}
		bsw, bin, blk := bm.EnergyPJ()
		if bsw != sw || bin != in || blk != lk {
			tb.Fatalf("%s, %d B cache: bulk EnergyPJ (%v %v %v), want (%v %v %v)", at, refGeoms[i].SizeBytes,
				bsw, bin, blk, sw, in, lk)
		}
		if got, want := bm.AccessPJ(), m.AccessPJ(); got != want {
			tb.Fatalf("%s, %d B cache: bulk AccessPJ %v, want %v", at, refGeoms[i].SizeBytes, got, want)
		}
		if got, want := bm.LastAccessPJ(), m.LastAccessPJ(); got != want {
			tb.Fatalf("%s, %d B cache: bulk LastAccessPJ %v, want %v", at, refGeoms[i].SizeBytes, got, want)
		}
	}
}

// diffStreams names the first part of two streams' state that differs,
// or returns "": every count, the open access cycle, and the peak
// window's marks from oldest to newest, bases and largest candidate.
func diffStreams(a, b *Stream) string {
	switch {
	case a.cycles != b.cycles || a.accesses != b.accesses || a.toggles != b.toggles || a.misses != b.misses:
		return "counts"
	case a.prevData != b.prevData || a.prevAddr != b.prevAddr || a.lastToggles != b.lastToggles || a.lastMiss != b.lastMiss:
		return "the last access"
	case a.open != b.open || a.open && a.at != b.at:
		return "the open access cycle"
	case a.baseT != b.baseT || a.baseM != b.baseM || a.peakAcPJ != b.peakAcPJ:
		return "the peak window's bases or maximum"
	case a.tail-a.head != b.tail-b.head:
		return "the number of window marks"
	}
	for k := uint64(0); k < a.tail-a.head; k++ {
		if a.marks[(a.head+k)&a.mask] != b.marks[(b.head+k)&b.mask] {
			return fmt.Sprintf("window mark %d", k)
		}
	}
	return ""
}

// randomRun feeds rig a random stream: idle cycles, then cycles of
// zero to three accesses (a miss one time in sixteen, a burst of
// 16-byte misses one cycle in two hundred). With dense set, every
// meter is checked after each access, before its cycle closes, and
// after each cycle; otherwise only now and then, so that most closed
// access cycles reach the peak window through the next access.
func randomRun(tb testing.TB, rig *refRig, r *rand.Rand, idle, cycles int, dense bool, name string) {
	tb.Helper()
	block := make([]byte, 16)
	for c := 0; c < idle; c++ {
		rig.tick()
	}
	for c := 0; c < cycles; c++ {
		for n := r.Intn(4); n > 0; n-- {
			r.Read(block)
			rig.access(uint32(r.Intn(1<<16)), block[:r.Intn(len(block)+1)], r.Intn(16) == 0)
			if dense {
				rig.check(tb, fmt.Sprintf("%s: cycle %d, mid-cycle", name, idle+c))
			}
		}
		if r.Intn(200) == 0 {
			rig.access(0, block, true)
		}
		rig.tick()
		if dense || r.Intn(64) == 0 {
			rig.check(tb, fmt.Sprintf("%s: cycle %d", name, idle+c))
		}
	}
	rig.check(tb, name+": end")
}

// TestMeterMatchesPerCycleReference holds the count-priced Meter to the
// per-cycle reference with == on every reading, under the default
// calibration with several peak windows and both switching models.
// The runs cover idle prefixes, runs shorter than the window, several
// accesses in one cycle, and reads between an access and its cycle's
// Tick (where the phase sampler and the sampled estimator read).
func TestMeterMatchesPerCycleReference(t *testing.T) {
	for _, window := range []int{1, 3, 8, 16} {
		for _, hamming := range []bool{false, true} {
			cal := DefaultCalibration()
			cal.PeakWindow, cal.UseHamming = window, hamming
			for seed := int64(1); seed <= 6; seed++ {
				r := rand.New(rand.NewSource(seed))
				cycles := 1500
				if seed%3 == 0 {
					cycles = r.Intn(window + 1) // shorter than the window, or just filling it
				}
				idle := 0
				if seed%2 == 0 {
					idle = r.Intn(2 * window)
				}
				for _, dense := range []bool{true, false} {
					name := fmt.Sprintf("window %d hamming %v seed %d dense %v", window, hamming, seed, dense)
					randomRun(t, newRefRig(t, cal), rand.New(rand.NewSource(seed)), idle, cycles, dense, name)
				}
			}
		}
	}
}

// TestReplayRunMatchesAccesses holds the bulk stream to the stream fed
// access by access over long random units (up to 400 accesses, so the
// RunBuilder drops marks no window reaches), short ones, units right
// after a miss or an open access cycle, and back-to-back units, for
// several windows (one too long for 32-bit marks) and both switching
// models.
func TestReplayRunMatchesAccesses(t *testing.T) {
	for _, window := range []int{1, 3, 8, 16, 300} {
		for _, hamming := range []bool{false, true} {
			cal := DefaultCalibration()
			cal.PeakWindow, cal.UseHamming = window, hamming
			rig := newRefRig(t, cal)
			r := rand.New(rand.NewSource(int64(window)))
			var gaps []int
			var addrs []uint32
			var blocks [][]byte
			for u := 0; u < 60; u++ {
				n := 1 + r.Intn(12)
				if u%3 == 0 {
					n = 1 + r.Intn(400)
				}
				gaps, addrs, blocks = gaps[:0], addrs[:0], blocks[:0]
				base := uint32(r.Intn(1 << 12))
				for k := 0; k < n; k++ {
					gaps = append(gaps, r.Intn(4))
					addrs = append(addrs, (base+uint32(k))*4)
					blocks = append(blocks, []byte{byte(r.Intn(256)), byte(k), byte(r.Intn(256)), 7})
				}
				rig.unit(gaps, addrs, blocks, r.Intn(3))
				name := fmt.Sprintf("window %d hamming %v unit %d", window, hamming, u)
				rig.check(t, name)
				switch r.Intn(4) {
				case 0:
					rig.access(uint32(r.Intn(1<<12))*4, blocks[0], true)
				case 1:
					rig.tick()
				}
			}
		}
	}
}

// exactMeter recomputes a stream's energies exactly with math/big.Rat
// from its recorded per-cycle toggles and misses.
type exactMeter struct {
	cal     Calibration
	toggles []uint64 // per closed cycle
	misses  []uint64
}

// rat returns the exact value of a float64.
func rat(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }

func ratMul(a *big.Rat, n uint64) *big.Rat {
	return new(big.Rat).Mul(a, new(big.Rat).SetInt(new(big.Int).SetUint64(n)))
}

// energies returns the exact switching, internal and leakage energy and
// peak power of the recorded stream on a cache of geometry geom.
func (e *exactMeter) energies(geom cache.Config) (sw, in, lk, peakW *big.Rat) {
	kb := new(big.Rat).SetFrac64(int64(geom.SizeBytes), 1024)
	internal := new(big.Rat).Add(rat(e.cal.InternalBasePJ), new(big.Rat).Mul(rat(e.cal.InternalPJPerKB), kb))
	leak := new(big.Rat).Mul(rat(e.cal.LeakPJPerKBCycle), kb)
	fill := ratMul(rat(e.cal.FillPJPerBit), uint64(geom.LineBytes*8))
	perCycle := new(big.Rat).Add(internal, leak)

	var toggles, misses uint64
	cyclePJ := make([]*big.Rat, len(e.toggles))
	for c := range e.toggles {
		toggles += e.toggles[c]
		misses += e.misses[c]
		pj := new(big.Rat).Add(ratMul(rat(e.cal.SwitchPJPerBit), e.toggles[c]), ratMul(fill, e.misses[c]))
		cyclePJ[c] = pj.Add(pj, perCycle)
	}
	cycles := uint64(len(e.toggles))
	sw = ratMul(rat(e.cal.SwitchPJPerBit), toggles)
	in = new(big.Rat).Add(ratMul(internal, cycles), ratMul(fill, misses))
	lk = ratMul(leak, cycles)

	w := min(len(cyclePJ), e.cal.PeakWindow)
	peak := new(big.Rat)
	if w > 0 {
		sum := new(big.Rat)
		for c, pj := range cyclePJ {
			sum.Add(sum, pj)
			if c >= w {
				sum.Sub(sum, cyclePJ[c-w])
			}
			if c >= w-1 && sum.Cmp(peak) > 0 {
				peak.Set(sum)
			}
		}
		peak.Quo(peak, new(big.Rat).SetInt64(int64(w)))
	}
	peakW = peak.Mul(peak, rat(1e-12))
	peakW.Mul(peakW, rat(e.cal.FreqHz))
	return sw, in, lk, peakW
}

// ulps returns how many float64 steps separate got from the exact x
// rounded to float64 (both non-negative).
func ulps(got float64, x *big.Rat) uint64 {
	want, _ := x.Float64()
	a, b := math.Float64bits(got), math.Float64bits(want)
	if a > b {
		return a - b
	}
	return b - a
}

// TestMeterPricesNonDyadicExactly checks the meter under a non-dyadic
// switching cost (7.3 pJ/bit), where float sums do round, against an
// exact big.Rat recomputation of the same stream: switching and leakage
// are their exact values rounded once, internal energy and peak power
// lie within 4 ulp.
func TestMeterPricesNonDyadicExactly(t *testing.T) {
	for _, window := range []int{1, 3, 8} {
		for _, hamming := range []bool{false, true} {
			cal := DefaultCalibration()
			cal.SwitchPJPerBit, cal.PeakWindow, cal.UseHamming = 7.3, window, hamming
			for _, cycles := range []int{window - 1, 4000} {
				s, err := newStream(cal, 32)
				if err != nil {
					t.Fatal(err)
				}
				meters := make([]*Meter, len(refGeoms))
				for i, g := range refGeoms {
					meters[i], _ = s.NewMeter(g)
				}
				ex := &exactMeter{cal: cal}
				r := rand.New(rand.NewSource(int64(window*31 + cycles)))
				block := make([]byte, 16)
				for c := 0; c < cycles; c++ {
					before := s.toggles
					var misses uint64
					for n := r.Intn(3); n > 0; n-- {
						r.Read(block)
						miss := r.Intn(16) == 0
						s.Access(uint32(r.Intn(1<<16)), block[:r.Intn(len(block)+1)], miss)
						if miss {
							misses++
						}
					}
					s.Tick()
					ex.toggles = append(ex.toggles, s.toggles-before)
					ex.misses = append(ex.misses, misses)
				}
				for i, g := range refGeoms {
					got := meters[i].Report()
					sw, in, lk, peakW := ex.energies(g)
					name := fmt.Sprintf("window %d hamming %v cycles %d, %d B cache", window, hamming, cycles, g.SizeBytes)
					if n := ulps(got.SwitchingPJ, sw); n != 0 {
						t.Errorf("%s: switching %v is %d ulp from the exact value", name, got.SwitchingPJ, n)
					}
					if n := ulps(got.LeakagePJ, lk); n != 0 {
						t.Errorf("%s: leakage %v is %d ulp from the exact value", name, got.LeakagePJ, n)
					}
					if n := ulps(got.InternalPJ, in); n > 4 {
						t.Errorf("%s: internal %v is %d ulp from the exact value", name, got.InternalPJ, n)
					}
					if n := ulps(got.PeakPowerW, peakW); n > 4 {
						t.Errorf("%s: peak power %v is %d ulp from the exact value", name, got.PeakPowerW, n)
					}
				}
			}
		}
	}
}

// FuzzMeterMatchesReference decodes a calibration and an
// access/idle/miss/unit stream from the fuzz input and holds every
// meter to the per-cycle reference with ==, and every meter of the bulk
// stream, which takes each all-hit unit in one ReplayRun, to the meter
// fed access by access. Unit costs are multiples of 1/8 pJ, so no sum
// in either form rounds. The first seven bytes set the calibration:
// the peak window (1–32), the switching model, and the five unit costs.
// Each later byte is one operation: an access (its low two bits 0; the
// next byte is the address, the one after seeds the block contents), a
// cycle, a run of idle cycles, a read, or a unit (low three bits 7): 1–16
// accesses of consecutive 4-byte blocks from the next byte's address,
// with 0–7 trailing ticks from the byte after, then one byte per access
// for its gap (0–3 ticks, so several accesses may share a cycle) and its
// contents, and a read after it. The seed corpus lives in
// testdata/fuzz/FuzzMeterMatchesReference.
func FuzzMeterMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		cal := DefaultCalibration()
		cal.PeakWindow = 1 + int(data[0])%32
		cal.UseHamming = data[1]&1 == 1
		cal.SwitchPJPerBit = float64(data[2]) / 8
		cal.InternalBasePJ = float64(data[3]) / 8
		cal.InternalPJPerKB = float64(data[4]) / 8
		cal.FillPJPerBit = float64(data[5]) / 8
		cal.LeakPJPerKBCycle = float64(data[6]) / 8
		rig := newRefRig(t, cal)
		block := make([]byte, 32)
		ops := data[7:]
		next := func(i *int) byte {
			if *i+1 < len(ops) {
				*i++
				return ops[*i]
			}
			return 0
		}
		var gaps []int
		var addrs []uint32
		var blocks [][]byte
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch op & 3 {
			case 0: // access: length 1–32 and miss from op, address and contents from the next bytes
				addr, seed := next(&i), next(&i)
				n := 1 + int(op>>2)&31
				for j := range block[:n] {
					block[j] = seed * byte(j+1)
				}
				rig.access(uint32(addr)*4, block[:n], op&0x80 != 0)
			case 1:
				rig.tick()
			case 2:
				for n := op >> 2; n > 0; n-- {
					rig.tick()
				}
			case 3:
				if op&4 == 0 {
					rig.check(t, fmt.Sprintf("op %d", i))
					break
				}
				base, trailing := uint32(next(&i)), int(next(&i)&7)
				gaps, addrs, blocks = gaps[:0], addrs[:0], blocks[:0]
				for k := range 1 + int(op>>3)&15 {
					g := next(&i)
					gaps = append(gaps, int(g&3))
					addrs = append(addrs, (base+uint32(k))*4)
					blocks = append(blocks, []byte{g, g >> 2, g * 3, byte(k)})
				}
				rig.unit(gaps, addrs, blocks, trailing)
				rig.check(t, fmt.Sprintf("unit at op %d", i))
			}
		}
		rig.check(t, "end")
	})
}
