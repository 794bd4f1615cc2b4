package sim

import (
	"testing"

	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/kernels"
	"powerfits/internal/synth"
)

// TestLockstepEquivalence runs the ARM program and its FITS translation
// in lockstep and compares the full architectural state (r0–r11, sp,
// NZCV) at every original-instruction boundary — a much stronger
// statement than comparing final outputs. r12 (the translator's
// scratch) and lr (holds encoding-specific return addresses) are
// excluded by convention. The test checks the translation, not the
// executor, so both machines step on the shipping one: the superblock
// executor bounded to one instruction.
func TestLockstepEquivalence(t *testing.T) {
	for _, name := range []string{"crc32", "gsm", "susan_edges", "adpcm_enc", "patricia"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := PrepareWith(kernels.MustGet(name), 1, PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}

			armM := cpu.New(s.Prog, cpu.ImageLayout(s.ArmImage))
			fitsM := cpu.New(s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image))
			defer armM.Release()
			defer fitsM.Release()

			compare := func(step uint64, origIdx int) {
				for r := isa.R0; r <= isa.R11; r++ {
					if armM.Regs[r] != fitsM.Regs[r] {
						t.Fatalf("step %d (orig instr %d, %s): r%d = %#x vs %#x",
							step, origIdx, &s.Prog.Instrs[origIdx], r, armM.Regs[r], fitsM.Regs[r])
					}
				}
				if armM.Regs[isa.SP] != fitsM.Regs[isa.SP] {
					t.Fatalf("step %d: sp diverged %#x vs %#x", step, armM.Regs[isa.SP], fitsM.Regs[isa.SP])
				}
				if armM.N != fitsM.N || armM.Z != fitsM.Z || armM.C != fitsM.C || armM.V != fitsM.V {
					t.Fatalf("step %d (orig instr %d): flags diverged %v%v%v%v vs %v%v%v%v",
						step, origIdx, armM.N, armM.Z, armM.C, armM.V, fitsM.N, fitsM.Z, fitsM.C, fitsM.V)
				}
			}

			var steps uint64
			for !armM.Halted {
				origIdx := armM.PCIdx
				if err := armM.RunSuperblocks(s.ArmDecoded.Compiled(), 1, nil, nil, nil); err != nil {
					t.Fatalf("arm step: %v", err)
				}
				steps++
				// Advance FITS until it reaches the lowered index of the
				// ARM machine's new position.
				wantIdx := s.Fits.OrigStart[armM.PCIdx]
				for guard := 0; fitsM.PCIdx != wantIdx || (armM.Halted != fitsM.Halted); guard++ {
					if guard > 8 {
						t.Fatalf("step %d: FITS did not converge to lowered idx %d (at %d)",
							steps, wantIdx, fitsM.PCIdx)
					}
					if fitsM.Halted {
						break
					}
					if err := fitsM.RunSuperblocks(s.FitsDecoded.Compiled(), 1, nil, nil, nil); err != nil {
						t.Fatalf("fits step: %v", err)
					}
				}
				compare(steps, origIdx)
				if steps > 300000 {
					break // bounded lockstep window is plenty
				}
			}
			if armM.Halted != fitsM.Halted {
				t.Fatal("halt state diverged")
			}
			for i := range armM.Output {
				if armM.Output[i] != fitsM.Output[i] {
					t.Fatalf("output[%d] diverged", i)
				}
			}
		})
	}
}
