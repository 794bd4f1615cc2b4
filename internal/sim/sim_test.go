package sim

import (
	"testing"

	"powerfits/internal/isa/fits"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
	"powerfits/internal/translate"
)

// TestAllKernelsEquivalentUnderFITS is the central correctness claim:
// for every kernel, the synthesized FITS ISA, its translation and its
// 16-bit image must execute to the same architectural output as the ARM
// baseline, through the real timing pipeline and caches.
func TestAllKernelsEquivalentUnderFITS(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			want := k.Ref(1)

			// The decoded FITS image must equal the lowered program.
			if dec, err := translate.DecodeImage(s.Fits); err != nil {
				t.Fatalf("fits decode: %v", err)
			} else {
				for i := range dec {
					w := s.Fits.Lowered.Instrs[i]
					w.Target = ""
					if dec[i] != w {
						t.Fatalf("fits image decode mismatch at %d: %v != %v", i, dec[i], w)
					}
				}
			}

			cal := power.DefaultCalibration()
			for _, cfg := range Configs {
				r, err := s.Run(cfg, cal)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				if len(r.Pipe.Output) != len(want) {
					t.Fatalf("%s: output %v, want %v", cfg.Name, r.Pipe.Output, want)
				}
				for i := range want {
					if r.Pipe.Output[i] != want[i] {
						t.Fatalf("%s: output[%d] %#x, want %#x", cfg.Name, i, r.Pipe.Output[i], want[i])
					}
				}
			}

			stat := s.Fits.StaticMappingRate()
			dyn := s.Fits.DynamicMappingRate(s.Profile.Dyn)
			armBytes := s.ArmImage.Size()
			fitsBytes := s.Fits.Image.Size()
			thumbBytes := s.Thumb.TotalBytes()
			t.Logf("%-16s k=%d map(st)=%.1f%% map(dy)=%.1f%% arm=%dB thumb=%.0f%% fits=%.0f%%",
				k.Name, s.Synth.K, 100*stat, 100*dyn, armBytes,
				100*float64(thumbBytes)/float64(armBytes),
				100*float64(fitsBytes)/float64(armBytes))
			if stat < 0.80 {
				t.Errorf("static mapping rate %.2f below 0.80", stat)
			}
			if fitsBytes >= armBytes*2/3 {
				t.Errorf("FITS code %dB not well below ARM %dB", fitsBytes, armBytes)
			}
		})
	}
}

// TestDecoderConfigRoundTripAllKernels marshals every kernel's
// synthesized decoder configuration and restores it — the paper's
// post-fabrication "configure" download — checking the restored spec
// still translates the program identically.
func TestDecoderConfigRoundTripAllKernels(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			blob := s.Synth.Spec.MarshalConfig()
			back, err := fits.UnmarshalConfig(blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			res, err := translate.Translate(s.Prog, back)
			if err != nil {
				t.Fatalf("translate under restored spec: %v", err)
			}
			if res.Image.Size() != s.Fits.Image.Size() {
				t.Fatalf("restored spec yields %dB image, original %dB",
					res.Image.Size(), s.Fits.Image.Size())
			}
			for i := range res.Image.Text {
				if res.Image.Text[i] != s.Fits.Image.Text[i] {
					t.Fatalf("image byte %d differs under restored spec", i)
				}
			}
			t.Logf("%-16s decoder config %4d bytes", k.Name, len(blob))
		})
	}
}

// TestPrepareRejectsNegativeBudget asserts Prepare surfaces the
// ProfileBudget validation error before any profiling work starts.
func TestPrepareRejectsNegativeBudget(t *testing.T) {
	opts := synth.DefaultOptions()
	opts.ProfileBudget = -5
	if _, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: opts}); err == nil {
		t.Fatal("Prepare accepted a negative ProfileBudget")
	}
}
