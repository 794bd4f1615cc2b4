package fits

import (
	"math/rand"
	"testing"

	"powerfits/internal/isa"
)

// TestDecodeNeverPanics feeds the programmable decoder random halfword
// streams: it must return instructions or errors, never panic or read
// out of bounds.
func TestDecodeNeverPanics(t *testing.T) {
	for _, k := range []int{5, 6} {
		sp := testSpec(t, k)
		r := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 20000; trial++ {
			words := make([]uint16, 1+MaxExts+1)
			for i := range words {
				words[i] = uint16(r.Uint32())
			}
			read := func(a uint32) uint16 {
				i := int(a-0x8000) / 2
				if i < 0 || i >= len(words) {
					return words[len(words)-1]
				}
				return words[i]
			}
			d, err := sp.DecodeAt(read, 0x8000)
			if err != nil {
				continue
			}
			if d.Words < 1 || d.Words > MaxExts+1 {
				t.Fatalf("decoded %d words from garbage", d.Words)
			}
			// Whatever decoded must re-encode (the decoder only
			// produces instructions the spec can express), except
			// branches, whose re-encoding needs layout context.
			if d.IsBranch {
				continue
			}
			if !sp.Expressible(&d.In) {
				t.Fatalf("decoder produced inexpressible %s (trial %d, k=%d)", d.In, trial, k)
			}
		}
	}
}

// TestDecodeTooManyExts rejects runs of more than MaxExts prefixes.
func TestDecodeTooManyExts(t *testing.T) {
	sp := testSpec(t, 6)
	ext := sp.ext(0)
	words := []uint16{ext, ext, ext, ext, ext}
	read := func(a uint32) uint16 { return words[int(a-0x8000)/2%len(words)] }
	if _, err := sp.DecodeAt(read, 0x8000); err == nil {
		t.Error("oversized EXT chain accepted")
	}
}

// TestEncodeGarbageInstr: invalid semantic instructions must error, not
// panic.
func TestEncodeGarbageInstr(t *testing.T) {
	sp := testSpec(t, 6)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		var in [64]byte
		r.Read(in[:])
		instr := randomInstrFromBytes(in)
		// Must not panic; errors are fine.
		_, _, _ = sp.Encode(&instr, 0x8000, 0x8000, 0)
	}
}

// randomInstrFromBytes builds a structurally random (often invalid)
// instruction from raw bytes.
func randomInstrFromBytes(b [64]byte) isa.Instr {
	return isa.Instr{
		Op:        isa.Op(b[0] % uint8(isa.NumOps)),
		Cond:      isa.Cond(b[1] % 16),
		SetFlags:  b[2]&1 != 0,
		Rd:        isa.Reg(b[3] % 16),
		Rn:        isa.Reg(b[4] % 16),
		Rm:        isa.Reg(b[5] % 16),
		Rs:        isa.Reg(b[6] % 16),
		Imm:       int32(uint32(b[7]) | uint32(b[8])<<8 | uint32(b[9])<<16 | uint32(b[10])<<24),
		HasImm:    b[11]&1 != 0,
		Shift:     isa.Shift(b[12] % 4),
		ShiftAmt:  b[13] % 64,
		RegShift:  b[14]&1 != 0,
		Mode:      isa.AddrMode(b[15] % 3),
		RegList:   uint16(b[16]) | uint16(b[17])<<8,
		TargetIdx: -1,
	}
}
