// Package power implements the sim-panalyzer-style analytical power
// model for the instruction cache, plus the chip-level model used for
// the paper's Figure 12.
//
// Following Section 4 of the paper, total power P = A·C·V²·f + V·I_leak
// is decomposed into:
//
//   - switching power — the output driver and its load: activity-based,
//     modelled as energy per toggled bit on the fetch output bus and the
//     address bus of each cache access;
//   - internal power — the dynamic power of the cache block itself
//     (decoders, wordlines, precharge, clock): charged for every cycle
//     the cache is powered and scaling with total cache size, which
//     reproduces the paper's observation that internal power is "highly
//     dependent upon the total size of the cache" and that half-sized
//     caches save it while same-sized FITS does not;
//   - leakage power — gate-count based, scaling with size and elapsed
//     time, so a smaller cache that runs longer loses part of its
//     saving (the paper's ARM8 exception);
//   - peak power — the maximum power over a short sliding window of
//     cycles, sensitive to both per-access activity and cache size.
//
// Every term is a count times a unit cost: switching scales with bus
// toggles, fills with misses, and internal and leakage energy with
// cycles times cache size. A Stream keeps those counts for one fetch
// stream, with one integer increment per cycle, and a Meter prices them
// for one cache geometry when read. Under the default calibration every
// unit cost is dyadic, so each priced total is exact: it equals the sum
// of its per-access and per-cycle energies, added in any order.
//
// Constants are calibrated so the ARM16 baseline reproduces the paper's
// Figure 6 breakdown shape (internal > 50 %, dynamic ≫ leakage at
// 0.35 µm) and the StrongARM chip share (I-cache ≈ 27 % of chip power).
// Absolute joules are not the reproduction target; ratios are.
package power

import (
	"fmt"
	"math"
	"math/bits"

	"powerfits/internal/cache"
)

// Calibration holds the energy coefficients of the cache power model.
// All energies are picojoules.
type Calibration struct {
	// SwitchPJPerBit is the switching energy per toggled output-bus or
	// address-bus bit per access.
	SwitchPJPerBit float64
	// UseHamming selects measured data-bus toggles (Hamming distance of
	// consecutive fetch blocks). When false — the default, matching
	// sim-panalyzer's "switching capacitance × number of accesses" —
	// the data bus is charged a fixed 50 % activity factor per access,
	// while address-bus toggles are always measured.
	UseHamming bool
	// InternalBasePJ is the size-independent per-cycle internal energy.
	InternalBasePJ float64
	// InternalPJPerKB is the per-cycle internal energy per KB of cache.
	InternalPJPerKB float64
	// FillPJPerBit is the line-fill energy per bit on a miss.
	FillPJPerBit float64
	// LeakPJPerKBCycle is the leakage energy per KB per cycle.
	LeakPJPerKBCycle float64
	// PeakWindow is the sliding-window length (cycles) for peak power.
	PeakWindow int
	// FreqHz is the core clock (the paper fixes 200 MHz).
	FreqHz float64
}

// DefaultCalibration returns the SA-1100-class calibration used by all
// experiments.
func DefaultCalibration() Calibration {
	return Calibration{
		SwitchPJPerBit:   7.5,
		InternalBasePJ:   25.0,
		InternalPJPerKB:  15.625,
		FillPJPerBit:     3.0,
		LeakPJPerKBCycle: 2.5,
		PeakWindow:       8,
		FreqHz:           200e6,
	}
}

// Validate checks the calibration for usable values: finite,
// non-negative unit costs (the peak window relies on energy never
// falling as accesses are added), a finite positive clock and a
// positive peak window.
func (c Calibration) Validate() error {
	for _, u := range []struct {
		name string
		pj   float64
	}{
		{"switching energy", c.SwitchPJPerBit},
		{"internal base energy", c.InternalBasePJ},
		{"internal energy per KB", c.InternalPJPerKB},
		{"fill energy", c.FillPJPerBit},
		{"leakage energy", c.LeakPJPerKBCycle},
	} {
		if !(u.pj >= 0) || math.IsInf(u.pj, 1) {
			return fmt.Errorf("power: %s %v is not finite and non-negative", u.name, u.pj)
		}
	}
	if !(c.FreqHz > 0) || math.IsInf(c.FreqHz, 1) {
		return fmt.Errorf("power: frequency %v is not finite and positive", c.FreqHz)
	}
	if c.PeakWindow <= 0 {
		return fmt.Errorf("power: non-positive peak window")
	}
	return nil
}

// Report is the energy/power outcome of one simulation.
type Report struct {
	SwitchingPJ float64
	InternalPJ  float64
	LeakagePJ   float64
	Cycles      uint64
	Accesses    uint64
	Misses      uint64
	PeakPowerW  float64
	FreqHz      float64
}

// TotalPJ returns total cache energy.
func (r Report) TotalPJ() float64 { return r.SwitchingPJ + r.InternalPJ + r.LeakagePJ }

// Seconds returns the simulated wall time.
func (r Report) Seconds() float64 { return float64(r.Cycles) / r.FreqHz }

// AvgPowerW returns average total cache power in watts.
func (r Report) AvgPowerW() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.TotalPJ() * 1e-12 / r.Seconds()
}

// Share returns the (switching, internal, leakage) fractions of total
// cache energy, the paper's Figure 6 quantity.
func (r Report) Share() (sw, internal, leak float64) {
	t := r.TotalPJ()
	if t == 0 {
		return 0, 0, 0
	}
	return r.SwitchingPJ / t, r.InternalPJ / t, r.LeakagePJ / t
}

// Stream counts one fetch-access stream: elapsed cycles, accesses, bus
// toggles and misses, plus the peak window's access totals. It holds
// no energies; the Meters built on it price its counts when read. One
// stream serves every meter whose cache sees the same accesses, the
// same line size and the same Calibration (the sim layer's shared
// passes), so each access and cycle is counted once however many
// geometries are priced. A Stream belongs to exactly one run and is not
// safe for concurrent use.
type Stream struct {
	cal       Calibration
	lineBytes int
	fillPJ    float64 // per-miss line-fill energy

	cycles   uint64 // closed cycles
	accesses uint64
	toggles  uint64 // output- plus address-bus bit toggles over all accesses
	misses   uint64

	prevData [2]uint64 // previous output-bus contents (up to 16 bytes)
	prevAddr uint32

	lastToggles int // bus toggles of the most recent access
	lastMiss    bool

	// Peak window. Only the access energy varies between full windows:
	// their per-cycle part is PeakWindow × (internal + leak) for any
	// meter. A window ending at an idle cycle holds no more access
	// energy than the window ending at the last access cycle before it,
	// so each access cycle, once closed, offers one candidate: the
	// window ending there. Before cycle PeakWindow−1 that window holds
	// only the cycles run so far; it is a lower bound on the first full
	// window, which the last access cycle inside it attains.
	open   bool   // accesses of cycle at have not entered the window
	at     uint64 // cycle of the most recent access
	window uint64 // PeakWindow
	// marks is a ring, its length a power of two, of the closed access
	// cycles in the latest candidate window: marks[head&mask] is the
	// oldest and marks[(tail-1)&mask] the newest.
	marks      []windowMark
	mask       uint64
	head, tail uint64
	baseT      uint64  // toggles before the oldest mark
	baseM      uint64  // misses before the oldest mark
	peakAcPJ   float64 // largest access energy of a candidate window
}

// windowMark is a closed access cycle and the stream's running totals at
// its end.
type windowMark struct{ cycle, toggles, misses uint64 }

func (s *Stream) init(cal Calibration, lineBytes int) error {
	if err := cal.Validate(); err != nil {
		return err
	}
	if lineBytes <= 0 {
		return fmt.Errorf("power: non-positive line size %d", lineBytes)
	}
	s.cal, s.lineBytes = cal, lineBytes
	s.fillPJ = cal.FillPJPerBit * float64(lineBytes*8)
	s.window = uint64(cal.PeakWindow)
	ring := uint64(1)
	for ring < s.window {
		ring <<= 1
	}
	s.marks, s.mask = make([]windowMark, ring), ring-1
	return nil
}

// Access records one cache access delivering block (the fetched bytes,
// up to 16) at addr; miss marks a line fill.
func (s *Stream) Access(addr uint32, block []byte, miss bool) {
	if s.open && s.at != s.cycles {
		s.fold()
	}
	s.open, s.at = true, s.cycles

	var dataToggles int
	dataToggles, s.prevData = busToggles(block, s.prevData, s.cal.UseHamming)
	t := dataToggles + bits.OnesCount32(addr^s.prevAddr)
	s.prevAddr = addr

	s.accesses++
	s.toggles += uint64(t)
	s.lastToggles, s.lastMiss = t, miss
	if miss {
		s.misses++
	}
}

// busToggles returns the output-bus toggles of delivering block (its
// first 16 bytes) after a block that left the bus holding prev, and the
// bus's new contents. Under hamming they are the Hamming distance;
// otherwise the fixed 50 % activity factor depends only on the
// delivered width, so the bytes are never packed and the bus keeps
// prev.
func busToggles(block []byte, prev [2]uint64, hamming bool) (int, [2]uint64) {
	n := min(len(block), 16)
	if !hamming {
		return n * 8 / 2, prev
	}
	var cur [2]uint64
	for i := 0; i < n; i++ {
		cur[i/8] |= uint64(block[i]) << (8 * (i % 8))
	}
	return bits.OnesCount64(cur[0]^prev[0]) + bits.OnesCount64(cur[1]^prev[1]), cur
}

// Tick closes one cycle. It only counts: the per-cycle energies are
// priced from the count when read, and the closed cycle's accesses
// enter the peak window at the next Access or Report.
func (s *Stream) Tick() { s.cycles++ }

// fold moves the open access cycle, which has been closed, into the
// peak window and offers the access energy of the window ending there
// as a candidate.
func (s *Stream) fold() {
	s.open = false
	for s.head != s.tail && s.marks[s.head&s.mask].cycle+s.window <= s.at {
		old := &s.marks[s.head&s.mask]
		s.baseT, s.baseM = old.toggles, old.misses
		s.head++
	}
	s.marks[s.tail&s.mask] = windowMark{s.at, s.toggles, s.misses}
	s.tail++
	if pj := s.price(s.toggles-s.baseT, s.misses-s.baseM); pj > s.peakAcPJ {
		s.peakAcPJ = pj
	}
}

// price returns the access energy of toggles bus toggles and misses
// line fills. (Counts stay far below 2⁶³, and the signed conversion is
// the cheaper one.)
func (s *Stream) price(toggles, misses uint64) float64 {
	return s.cal.SwitchPJPerBit*float64(int64(toggles)) + s.fillPJ*float64(int64(misses))
}

// Meter prices a Stream for one cache geometry: the stream's counts
// times the calibration's unit costs, with the internal and leakage
// costs per cycle set by the cache size. It computes every energy when
// read. Meters built on one stream share its accesses and cycles; a
// Meter from NewMeter has a stream of its own.
type Meter struct {
	s             *Stream
	internalCycle float64 // per-cycle internal energy
	leakCycle     float64 // per-cycle leakage energy
}

// NewMeter builds a meter for the given cache geometry on a stream of
// its own (Meter.Stream).
func NewMeter(geom cache.Config, cal Calibration) (*Meter, error) {
	// One allocation holds the stream and its meter: the sampled run
	// builds one per run, and its allocation count is pinned
	// (TestSampledAllocsPinned in internal/sim).
	sm := new(struct {
		s Stream
		m Meter
	})
	if err := sm.s.init(cal, geom.LineBytes); err != nil {
		return nil, err
	}
	if err := sm.m.init(&sm.s, geom); err != nil {
		return nil, err
	}
	return &sm.m, nil
}

// MustNewMeter is NewMeter but panics on error.
func MustNewMeter(geom cache.Config, cal Calibration) *Meter {
	m, err := NewMeter(geom, cal)
	if err != nil {
		panic(err)
	}
	return m
}

// NewMeter builds a meter pricing s for a cache of the given geometry,
// which must have the stream's line size.
func (s *Stream) NewMeter(geom cache.Config) (*Meter, error) {
	m := new(Meter)
	if err := m.init(s, geom); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Meter) init(s *Stream, geom cache.Config) error {
	if err := geom.Validate(); err != nil {
		return err
	}
	if geom.LineBytes != s.lineBytes {
		return fmt.Errorf("power: %d-byte lines on a stream of %d-byte lines", geom.LineBytes, s.lineBytes)
	}
	kb := float64(geom.SizeBytes) / 1024
	*m = Meter{
		s:             s,
		internalCycle: s.cal.InternalBasePJ + s.cal.InternalPJPerKB*kb,
		leakCycle:     s.cal.LeakPJPerKBCycle * kb,
	}
	return nil
}

// Stream returns the access stream the meter prices.
func (m *Meter) Stream() *Stream { return m.s }

// EnergyPJ returns the cumulative switching, internal and leakage
// energy without finalising a Report (tracing.EnergySource, read by the
// phase sampler at each window close).
func (m *Meter) EnergyPJ() (switchPJ, internalPJ, leakPJ float64) {
	s := m.s
	cycles := float64(s.cycles)
	return s.cal.SwitchPJPerBit * float64(s.toggles),
		m.internalCycle*cycles + s.fillPJ*float64(s.misses),
		m.leakCycle * cycles
}

// LastAccessPJ returns the energy charged by the most recent Access
// (switching plus any line fill), used for PC-level attribution.
func (m *Meter) LastAccessPJ() float64 {
	pj := m.s.cal.SwitchPJPerBit * float64(m.s.lastToggles)
	if m.s.lastMiss {
		pj += m.s.fillPJ
	}
	return pj
}

// AccessPJ returns the access energy of the whole stream, switching
// plus line fills. An attribution sink that sums LastAccessPJ over
// every access lands on this value bit-for-bit whenever no partial sum
// rounds, as with the default calibration's dyadic unit costs; that is
// the tracing profiler's conservation invariant.
func (m *Meter) AccessPJ() float64 { return m.s.price(m.s.toggles, m.s.misses) }

// Report returns the accumulated energy report. It first moves a closed
// access cycle into the peak window; an access in a cycle not yet
// closed counts in every total but not in the peak.
func (m *Meter) Report() Report {
	s := m.s
	if s.open && s.at != s.cycles {
		s.fold()
	}
	r := Report{Cycles: s.cycles, Accesses: s.accesses, Misses: s.misses, FreqHz: s.cal.FreqHz}
	r.SwitchingPJ, r.InternalPJ, r.LeakagePJ = m.EnergyPJ()
	w, accessPJ := s.window, s.peakAcPJ
	if s.cycles < w {
		// Short run: the partial window holds every closed cycle, up to
		// the newest mark.
		w, accessPJ = s.cycles, 0
		if s.tail != s.head {
			last := s.marks[(s.tail-1)&s.mask]
			accessPJ = s.price(last.toggles, last.misses)
		}
	}
	if w > 0 {
		peak := float64(w)*(m.internalCycle+m.leakCycle) + accessPJ
		r.PeakPowerW = peak / float64(w) * 1e-12 * s.cal.FreqHz
	}
	return r
}

// ChipModel converts I-cache energy into whole-chip energy, mirroring
// the StrongARM breakdown where the I-cache draws 27 % of chip power.
// The rest of the chip (core, D-cache, register files, clock) is held
// architecturally identical across configurations, so it is modelled as
// a fixed per-cycle energy plus leakage calibrated against the ARM16
// baseline share.
type ChipModel struct {
	// RestPJPerCycle is the non-I-cache energy per cycle.
	RestPJPerCycle float64
}

// DefaultChipModel returns the model calibrated so a typical ARM16 run
// puts the I-cache at the StrongARM 27 % share.
func DefaultChipModel() ChipModel {
	// A typical ARM16 run dissipates ≈ 465 pJ per cycle in the I-cache
	// under the calibration above; the StrongARM 27 % share puts the
	// rest of the chip at 465 × 0.73/0.27.
	return ChipModel{RestPJPerCycle: 465 * 0.73 / 0.27}
}

// ChipPJ returns total chip energy for a cache report.
func (cm ChipModel) ChipPJ(r Report) float64 {
	return r.TotalPJ() + cm.RestPJPerCycle*float64(r.Cycles)
}

// Saving returns the fractional energy saving of "cfg" versus
// "baseline" (positive = cfg uses less energy). The paper reports power
// savings; at the fixed 200 MHz clock with near-identical runtimes,
// energy and power savings coincide, which is exactly the argument made
// in the paper's Section 6.3.
func Saving(baselinePJ, cfgPJ float64) float64 {
	if baselinePJ == 0 {
		return 0
	}
	return 1 - cfgPJ/baselinePJ
}
