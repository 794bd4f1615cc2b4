package synth

import (
	"fmt"

	"powerfits/internal/isa/arm"
	"powerfits/internal/profile"
	"powerfits/internal/translate"
)

// Goal expresses the designer's requirements for the synthesized ISA —
// the acceptance criteria of the paper's Figure 1 flow, whose final
// stage loops back to synthesis "if all of the requirements are not
// met".
type Goal struct {
	// MaxCodeRatio caps FITS text size as a fraction of the ARM image
	// (0 = don't care).
	MaxCodeRatio float64
	// MinStaticMapping requires at least this 1:1 static mapping rate
	// (0 = don't care).
	MinStaticMapping float64
	// MaxConfigBytes caps the decoder-configuration image (the
	// non-volatile state the processor must hold; 0 = don't care).
	MaxConfigBytes int
}

// GoalResult reports one accepted synthesis.
type GoalResult struct {
	Synthesis *Synthesis
	Result    *translate.Result
	// Iterations counts synthesize→evaluate passes, including the
	// accepted one.
	Iterations int
	// CodeRatio, StaticMapping and ConfigBytes are the accepted
	// solution's measurements.
	CodeRatio     float64
	StaticMapping float64
	ConfigBytes   int
}

// SynthesizeToGoal runs the paper's iterative flow: synthesize,
// evaluate against the goal, and re-synthesize with adjusted knobs
// until the goal is met or the knob space is exhausted.
//
// The adjustment schedule trades decoder state for encoding quality:
// passes that miss the mapping/size goal raise the immediate-storage
// cap; passes that exceed the configuration budget lower it.
func SynthesizeToGoal(prof *profile.Profile, base Options, goal Goal) (*GoalResult, error) {
	armIm, err := arm.Assemble(prof.Prog)
	if err != nil {
		return nil, err
	}
	opts := base
	var lastErr error
	for iter := 1; iter <= 8; iter++ {
		syn, err := Synthesize(prof, opts)
		if err != nil {
			return nil, err
		}
		res := syn.Translation()
		gr := &GoalResult{
			Synthesis:     syn,
			Result:        res,
			Iterations:    iter,
			CodeRatio:     float64(res.Image.Size()) / float64(armIm.Size()),
			StaticMapping: res.StaticMappingRate(),
			ConfigBytes:   syn.Spec.ConfigBytes(),
		}
		tooBig := goal.MaxConfigBytes > 0 && gr.ConfigBytes > goal.MaxConfigBytes
		tooSparse := (goal.MaxCodeRatio > 0 && gr.CodeRatio > goal.MaxCodeRatio) ||
			(goal.MinStaticMapping > 0 && gr.StaticMapping < goal.MinStaticMapping)
		switch {
		case tooBig && tooSparse:
			lastErr = fmt.Errorf("synth: goal %+v unsatisfiable: config %dB over budget while mapping %.1f%% / size %.1f%% still short",
				goal, gr.ConfigBytes, 100*gr.StaticMapping, 100*gr.CodeRatio)
			return nil, lastErr
		case tooBig:
			// Shrink the immediate storage.
			next := opts.DictCap / 2
			if next == opts.DictCap {
				return nil, fmt.Errorf("synth: cannot meet config budget %dB (at %dB with no storage left)",
					goal.MaxConfigBytes, gr.ConfigBytes)
			}
			opts.DictCap = next
			lastErr = fmt.Errorf("synth: config %dB exceeds budget %dB", gr.ConfigBytes, goal.MaxConfigBytes)
		case tooSparse:
			// Grow the immediate storage.
			if opts.NoDict {
				opts.NoDict = false
				opts.DictCap = 32
			} else if opts.DictCap >= 4096 {
				return nil, fmt.Errorf("synth: goal unreachable: mapping %.1f%%, size %.1f%% of ARM at maximum storage",
					100*gr.StaticMapping, 100*gr.CodeRatio)
			} else {
				opts.DictCap *= 2
			}
			lastErr = fmt.Errorf("synth: mapping %.1f%% / size %.1f%% misses goal", 100*gr.StaticMapping, 100*gr.CodeRatio)
		default:
			return gr, nil
		}
	}
	return nil, fmt.Errorf("synth: goal not met after 8 iterations: %w", lastErr)
}
