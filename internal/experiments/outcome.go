package experiments

import (
	"powerfits/internal/power"
	"powerfits/internal/sim"
)

// ConfigOutcome reduces one configuration's timing/power result to the
// deterministic document consumers outside the suite need — the
// serving plane's per-request report and `powerfits run -o`. It
// carries the same architectural counters the archived KernelMetrics
// pin plus the derived figures (IPC, miss rate, savings) the paper
// tables report, so a service response answers the paper's questions
// for one program without shipping the whole Suite.
type ConfigOutcome struct {
	Config string  `json:"config"`
	Cycles uint64  `json:"cycles"`
	Instrs uint64  `json:"instrs"`
	IPC    float64 `json:"ipc"`

	Fetches        uint64  `json:"fetches"`
	Misses         uint64  `json:"misses"`
	MissPerMillion float64 `json:"miss_per_million"`

	Branches    uint64 `json:"branches"`
	Taken       uint64 `json:"taken"`
	Mispredicts uint64 `json:"mispredicts"`

	SwitchingPJ float64 `json:"switching_pj"`
	InternalPJ  float64 `json:"internal_pj"`
	LeakagePJ   float64 `json:"leakage_pj"`
	TotalPJ     float64 `json:"total_pj"`
	ChipPJ      float64 `json:"chip_pj"`
	AvgPowerW   float64 `json:"avg_power_w"`
	PeakPowerW  float64 `json:"peak_power_w"`

	// Savings versus the ARM16 baseline (Figures 7–12 reduced to one
	// program); nil when the result set did not include ARM16 or for
	// the baseline row itself.
	Savings *PowerSavings `json:"savings,omitempty"`

	// Sample describes the sampling estimator behind the result when
	// it came from a sampled run (sim.RunOptions.Sample); nil for exact
	// runs.
	Sample *SampleInfo `json:"sample,omitempty"`
}

// PowerSavings is the per-component energy saving versus the ARM16
// baseline, in percent (positive = this configuration uses less).
type PowerSavings struct {
	SwitchingPct float64 `json:"switching_pct"`
	InternalPct  float64 `json:"internal_pct"`
	LeakagePct   float64 `json:"leakage_pct"`
	TotalPct     float64 `json:"total_pct"`
	ChipPct      float64 `json:"chip_pct"`
}

// SampleInfo is the JSON face of sim.SampleStats.
type SampleInfo struct {
	Windows        int     `json:"windows"`
	TotalInstrs    uint64  `json:"total_instrs"`
	DetailedInstrs uint64  `json:"detailed_instrs"`
	CycleRelCI     float64 `json:"cycle_rel_ci"`
	EnergyRelCI    float64 `json:"energy_rel_ci"`
	Exact          bool    `json:"exact,omitempty"`
}

// Outcomes flattens a config-name → result map into ConfigOutcome rows
// in canonical sim.Configs order (absent configurations are skipped).
// When the set includes the ARM16 baseline, every other row carries
// its savings against it.
func Outcomes(results map[string]*sim.Result, chip power.ChipModel) []ConfigOutcome {
	base := results[sim.ARM16.Name]
	var out []ConfigOutcome
	for _, cfg := range sim.Configs {
		r := results[cfg.Name]
		if r == nil {
			continue
		}
		o := ConfigOutcome{
			Config:      cfg.Name,
			Cycles:      r.Pipe.Cycles,
			Instrs:      r.Pipe.Instrs,
			Fetches:     r.Cache.Accesses,
			Misses:      r.Cache.Misses,
			Branches:    r.Pipe.Branches,
			Taken:       r.Pipe.Taken,
			Mispredicts: r.Pipe.Mispredicts,
			SwitchingPJ: r.Power.SwitchingPJ,
			InternalPJ:  r.Power.InternalPJ,
			LeakagePJ:   r.Power.LeakagePJ,
			TotalPJ:     r.Power.TotalPJ(),
			ChipPJ:      chip.ChipPJ(r.Power),
			AvgPowerW:   r.Power.AvgPowerW(),
			PeakPowerW:  r.Power.PeakPowerW,
		}
		if r.Pipe.Cycles > 0 {
			o.IPC = float64(r.Pipe.Instrs) / float64(r.Pipe.Cycles)
		}
		if r.Pipe.Instrs > 0 {
			o.MissPerMillion = float64(r.Cache.Misses) / float64(r.Pipe.Instrs) * 1e6
		}
		if base != nil && r != base {
			o.Savings = &PowerSavings{
				SwitchingPct: 100 * power.Saving(base.Power.SwitchingPJ, r.Power.SwitchingPJ),
				InternalPct:  100 * power.Saving(base.Power.InternalPJ, r.Power.InternalPJ),
				LeakagePct:   100 * power.Saving(base.Power.LeakagePJ, r.Power.LeakagePJ),
				TotalPct:     100 * power.Saving(base.Power.TotalPJ(), r.Power.TotalPJ()),
				ChipPct:      100 * power.Saving(chip.ChipPJ(base.Power), chip.ChipPJ(r.Power)),
			}
		}
		if r.Sampled != nil {
			o.Sample = &SampleInfo{
				Windows:        r.Sampled.Windows,
				TotalInstrs:    r.Sampled.TotalInstrs,
				DetailedInstrs: r.Sampled.DetailedInstrs,
				CycleRelCI:     r.Sampled.CycleRelCI,
				EnergyRelCI:    r.Sampled.EnergyRelCI,
				Exact:          r.Sampled.Exact,
			}
		}
		out = append(out, o)
	}
	return out
}
