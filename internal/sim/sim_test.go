package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/isa/fits"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/program"
	"powerfits/internal/synth"
	"powerfits/internal/translate"
)

// first returns the only result of a one-configuration RunAll.
func first(rs []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// TestRegisterShiftedALUPrepares prepares a program whose
// register-shifted ALU instructions write a register other than their
// first source, that source itself, and their shifted source, and
// requires its FITS run to output what its ARM run does. A
// register-shifted point has no Rn field, so the translator must
// rewrite the first and the last.
func TestRegisterShiftedALUPrepares(t *testing.T) {
	p, err := asm.Parse("regshift", `
.func main
	mov r1, #5
	mov r2, #3
	mov r3, #2
	mov r6, #9
loop:
	add r0, r1, r2 lsl r3
	swi #1
	add r5, r5, r2 lsl r3
	eor r2, r1, r2 lsr r3
	mov r0, r5
	swi #1
	mov r0, r2
	swi #1
	subs r6, r6, #1
	bne loop
	swi #0
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := PrepareWith(kernels.FromProgram(p), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cal := power.DefaultCalibration()
	want, err := s.Run(ARM16, cal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(FITS16, cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pipe.Output) != 27 || !slices.Equal(got.Pipe.Output, want.Pipe.Output) {
		t.Errorf("FITS output %v, ARM output %v", got.Pipe.Output, want.Pipe.Output)
	}
}

// TestAllKernelsEquivalentUnderFITS is the central correctness claim:
// for every kernel, the synthesized FITS ISA, its translation and its
// 16-bit image must execute to the same architectural output as the ARM
// baseline, through the real timing pipeline and caches. (PrepareWith
// has already checked that both images decode to the timed programs.)
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

// TestImageChecksRejectFlippedField flips one encoded register field of
// a prepared FITS image and of its ARM image: each ISA's image check,
// which preparation runs, must reject the copy and name the slot.
func TestImageChecksRejectFlippedField(t *testing.T) {
	s, err := PrepareWith(kernels.MustGet("crc32"), 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	// slot returns the first ALU instruction: its first field after the
	// opcode is a register (Rd, or Rn of a compare) in both encodings.
	slot := func(p *program.Program) int {
		for i, in := range p.Instrs {
			if in.Op.Class() == isa.ClassALU {
				return i
			}
		}
		t.Fatalf("%s has no ALU instruction", p.Name)
		return 0
	}
	flip := func(im *program.Image, byteOff uint32, bit uint) *program.Image {
		c := *im
		c.Text = slices.Clone(im.Text)
		c.Text[byteOff-im.TextBase+uint32(bit/8)] ^= 1 << (bit % 8)
		return &c
	}

	i := slot(s.Prog)
	// ARM data processing: Rd is bits 12-15 of the little-endian word.
	armErr := arm.CheckImage(s.Prog, flip(s.ArmImage, s.ArmImage.InstrAddr[i], 12))
	// FITS: the opcode word ends the slot; its register field starts just
	// below the K opcode bits.
	fi := slot(s.Fits.Lowered)
	res := *s.Fits
	im := s.Fits.Image
	res.Image = flip(im, im.InstrAddr[fi]+uint32(im.InstrSize[fi])-2, uint(15-s.Synth.K))
	fitsErr := translate.CheckImage(&res)

	for _, c := range []struct {
		name string
		err  error
		slot int
	}{{"arm", armErr, i}, {"fits", fitsErr, fi}} {
		if c.err == nil {
			t.Errorf("%s: check accepted an image with a flipped register field", c.name)
		} else if !strings.Contains(c.err.Error(), fmt.Sprintf(" slot %d ", c.slot)) {
			t.Errorf("%s: error does not name slot %d: %v", c.name, c.slot, c.err)
		}
	}
	if err := translate.CheckImage(s.Fits); err != nil {
		t.Errorf("unflipped FITS image rejected: %v", err)
	}
	if err := arm.CheckImage(s.Prog, s.ArmImage); err != nil {
		t.Errorf("unflipped ARM image rejected: %v", err)
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
