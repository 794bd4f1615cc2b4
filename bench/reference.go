package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"powerfits/internal/experiments"
	"powerfits/internal/sim"
)

// referenceJSON is the committed reference the output checks compare
// against; -update-ref regenerates it.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// refRun is the exact outcome of one kernel × configuration.
type refRun struct {
	Kernel    string  `json:"kernel"`
	Config    string  `json:"config"`
	Cycles    uint64  `json:"cycles"`
	Instrs    uint64  `json:"instrs"`
	Fetches   uint64  `json:"fetches"`
	Misses    uint64  `json:"misses"`
	EnergyPJ  float64 `json:"energy_pj"`
	FitsBytes int     `json:"fits_bytes"`
}

// suiteRef is one exact suite: every kernel × configuration, kernels in
// name order and configurations in sim.Configs order.
type suiteRef struct {
	// Scale is the suite's input scale; 0 runs each kernel at its
	// default scale.
	Scale int      `json:"scale"`
	Runs  []refRun `json:"runs"`
	// TotalSavingPct is the headline FITS8-vs-ARM16 total I-cache power
	// saving.
	TotalSavingPct float64 `json:"fits8_total_saving_pct"`
}

// reference is testdata/reference.json.
type reference struct {
	// Suites holds an exact suite at each scale a suite workload runs:
	// suite-exact's and suite-sampled's.
	Suites []suiteRef `json:"suites"`
	// SweepDigests maps each kernel to the SHA-256 of its sweep-cold
	// frontier document.
	SweepDigests map[string]string `json:"sweep_digests"`
}

func loadReference() (*reference, error) {
	var ref reference
	dec := json.NewDecoder(bytes.NewReader(referenceJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &ref, nil
}

// suite returns the exact suite at scale.
func (r *reference) suite(scale int) (*suiteRef, error) {
	i := slices.IndexFunc(r.Suites, func(s suiteRef) bool { return s.Scale == scale })
	if i < 0 {
		return nil, fmt.Errorf("reference: no suite at scale %d; regenerate it with -update-ref", scale)
	}
	return &r.Suites[i], nil
}

// runs indexes the suite by kernel and configuration.
func (s *suiteRef) runs() map[[2]string]refRun {
	m := make(map[[2]string]refRun, len(s.Runs))
	for _, run := range s.Runs {
		m[[2]string{run.Kernel, run.Config}] = run
	}
	return m
}

// refRunOf extracts the reference fields of one suite result.
func refRunOf(s *sim.Setup, r *sim.Result) refRun {
	return refRun{
		Kernel: s.Kernel.Name, Config: r.Config.Name,
		Cycles: r.Pipe.Cycles, Instrs: r.Pipe.Instrs,
		Fetches: r.Cache.Accesses, Misses: r.Cache.Misses,
		EnergyPJ: r.Power.TotalPJ(), FitsBytes: s.Fits.Image.Size(),
	}
}

// totalSaving is the suite's headline total saving.
func totalSaving(s *experiments.Suite) float64 {
	h := s.Headline()
	return h.Rows[0].Vals[3]
}

// updateReference recomputes the reference: an exact suite at each
// suite workload's scale and one cold sweep, written to path.
func updateReference(e *env, path string) error {
	var ref reference
	for _, scale := range []int{suiteScale(false), suiteScale(true)} {
		s, err := suiteOp(e, false, scale)
		if err != nil {
			return err
		}
		sr := suiteRef{Scale: scale, TotalSavingPct: totalSaving(s)}
		for _, st := range s.Setups {
			for _, cfg := range sim.Configs {
				sr.Runs = append(sr.Runs, refRunOf(st, s.Results[st.Kernel.Name][cfg.Name]))
			}
		}
		ref.Suites = append(ref.Suites, sr)
	}
	sw, err := sweepOp(e, filepath.Join(e.dir, "sweep"), sweepGrid)
	if err != nil {
		return err
	}
	ref.SweepDigests = sw.digests
	blob, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
