// Package power implements the sim-panalyzer-style analytical power
// model for the instruction cache, plus the chip-level model used for
// the paper's Figure 12.
//
// Following Section 4 of the paper, total power P = A·C·V²·f + V·I_leak
// is decomposed into:
//
//   - switching power — the output driver and its load: activity-based,
//     modelled as energy per toggled bit on the fetch output bus and the
//     address bus, accrued per cache access;
//   - internal power — the dynamic power of the cache block itself
//     (decoders, wordlines, precharge, clock): accrued every cycle the
//     cache is powered and scaling with total cache size, which
//     reproduces the paper's observation that internal power is "highly
//     dependent upon the total size of the cache" and that half-sized
//     caches save it while same-sized FITS does not;
//   - leakage power — gate-count based, scaling with size and elapsed
//     time, so a smaller cache that runs longer loses part of its
//     saving (the paper's ARM8 exception);
//   - peak power — the maximum power over a short sliding window of
//     cycles, sensitive to both per-access activity and cache size.
//
// Constants are calibrated so the ARM16 baseline reproduces the paper's
// Figure 6 breakdown shape (internal > 50 %, dynamic ≫ leakage at
// 0.35 µm) and the StrongARM chip share (I-cache ≈ 27 % of chip power).
// Absolute joules are not the reproduction target; ratios are.
package power

import (
	"fmt"
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

// Validate checks the calibration for usable values.
func (c Calibration) Validate() error {
	if c.FreqHz <= 0 {
		return fmt.Errorf("power: non-positive frequency")
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

// Meter accrues cache energy during a timing run. It is driven by the
// simulation layer: Access on every cache access, Tick once per cycle.
// A Meter belongs to exactly one run and is not safe for concurrent
// use; concurrent simulations each construct their own.
type Meter struct {
	cal  Calibration
	geom cache.Config

	sizeKB        float64
	internalCycle float64 // per-cycle internal energy
	leakCycle     float64 // per-cycle leakage energy
	fillPJ        float64 // per-miss fill energy

	prevData [2]uint64 // previous output-bus contents (up to 16 bytes)
	prevAddr uint32

	pendingPJ float64 // access energy awaiting this cycle's Tick

	rep Report

	// Sliding window for peak power.
	window []float64
	wIdx   int
	wSum   float64
	wFill  int
	peakPJ float64 // max window energy sum

	lastAccessPJ float64 // energy charged by the most recent access
	accessPJ     float64 // exact running sum of lastAccessPJ, access order
}

// NewMeter builds a meter for the given cache geometry.
func NewMeter(geom cache.Config, cal Calibration) (*Meter, error) {
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	kb := float64(geom.SizeBytes) / 1024
	return &Meter{
		cal:           cal,
		geom:          geom,
		sizeKB:        kb,
		internalCycle: cal.InternalBasePJ + cal.InternalPJPerKB*kb,
		leakCycle:     cal.LeakPJPerKBCycle * kb,
		fillPJ:        cal.FillPJPerBit * float64(geom.LineBytes*8),
		window:        make([]float64, cal.PeakWindow),
		rep:           Report{FreqHz: cal.FreqHz},
	}, nil
}

// MustNewMeter is NewMeter but panics on error.
func MustNewMeter(geom cache.Config, cal Calibration) *Meter {
	m, err := NewMeter(geom, cal)
	if err != nil {
		panic(err)
	}
	return m
}

// Access records one cache access delivering block (the fetched bytes,
// up to 16) at addr; miss adds the line-fill energy.
func (m *Meter) Access(addr uint32, block []byte, miss bool) {
	m.rep.Accesses++

	n := len(block)
	if n > 16 {
		n = 16
	}
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
		// Default fast path: the fixed 50 % activity factor depends only
		// on the delivered width, so the block bytes are never packed.
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

// EnergyPJ returns the cumulative switching, internal and leakage
// energy without finalising a Report (tracing.EnergySource, read by the
// phase sampler at each window close).
func (m *Meter) EnergyPJ() (switchPJ, internalPJ, leakPJ float64) {
	return m.rep.SwitchingPJ, m.rep.InternalPJ, m.rep.LeakagePJ
}

// LastAccessPJ returns the energy charged by the most recent Access
// (switching plus any line fill), used for PC-level attribution.
func (m *Meter) LastAccessPJ() float64 { return m.lastAccessPJ }

// AccessPJ returns the exact running sum of per-access energies, added
// in access order. An attribution sink that accumulates LastAccessPJ
// per access, in the same order, lands on this value bit-for-bit — the
// tracing profiler's conservation invariant. (It equals SwitchingPJ
// plus the miss fills up to float64 reassociation; the exact identity
// holds only for this counter.)
func (m *Meter) AccessPJ() float64 { return m.accessPJ }

// Tick closes one pipeline cycle: per-cycle internal and leakage energy
// plus any access energy recorded this cycle, and updates the peak
// window.
func (m *Meter) Tick() {
	m.rep.Cycles++
	m.rep.InternalPJ += m.internalCycle
	m.rep.LeakagePJ += m.leakCycle

	cyclePJ := m.pendingPJ + m.internalCycle + m.leakCycle
	m.pendingPJ = 0

	m.wSum += cyclePJ - m.window[m.wIdx]
	m.window[m.wIdx] = cyclePJ
	if m.wIdx++; m.wIdx == len(m.window) {
		m.wIdx = 0
	}
	if m.wFill < len(m.window) {
		m.wFill++
	}
	if m.wFill == len(m.window) && m.wSum > m.peakPJ {
		m.peakPJ = m.wSum
	}
}

// Report finalises and returns the accumulated energy report.
func (m *Meter) Report() Report {
	r := m.rep
	w := float64(len(m.window))
	peak := m.peakPJ
	if m.wFill < len(m.window) && m.wFill > 0 {
		// Short run: use the partial window.
		peak = m.wSum
		w = float64(m.wFill)
	}
	if w > 0 {
		r.PeakPowerW = peak / w * 1e-12 * m.cal.FreqHz
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
