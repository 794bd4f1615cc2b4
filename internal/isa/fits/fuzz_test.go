package fits

import (
	"testing"

	"powerfits/internal/isa"
)

// FuzzFITSCodec draws a point of testSpec(k) for k = 4..6, operand
// registers, a value, a branch target and a reserved size, builds the
// point's instruction, and encodes it with Encode, unpadded and padded
// to the reserved size. Whatever encodes must decode back to the
// instruction (branch target included), consuming exactly the encoded
// words.
func FuzzFITSCodec(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint16(0x4321), uint32(300), uint32(0x8040), uint8(0))
	f.Add(uint8(2), uint8(27), uint16(0), uint32(0), uint32(0x7f00), uint8(3))
	specs := []*Spec{testSpec(f, 4), testSpec(f, 5), testSpec(f, 6)}
	f.Fuzz(func(t *testing.T, ki, pi uint8, regs uint16, val, target uint32, minWords uint8) {
		sp := specs[int(ki)%len(specs)]
		pt := &sp.Points[int(pi)%len(sp.Points)]
		if pt.Kind != PointSig {
			return
		}
		in := instrFor(pt.Sig, regs, val)
		const addr = 0x8000
		target &^= 1
		check := func(words []uint16, err error) {
			if err != nil {
				return
			}
			d := decodeWords(t, sp, words, addr)
			if d.In != in {
				t.Fatalf("k=%d %q: decoded %+v from %04x, encoded %+v", sp.K, pt.Sig, d.In, words, in)
			}
			if d.IsBranch != (FormatOf(pt.Sig) == FmtBranch) || d.IsBranch && d.BranchTarget != target {
				t.Fatalf("k=%d %q: decoded branch %t to %#x, want %#x", sp.K, pt.Sig, d.IsBranch, d.BranchTarget, target)
			}
		}
		check(encodeWords(sp, &in, addr, target, 0))
		words, err := encodeWords(sp, &in, addr, target, int(minWords%6))
		if err == nil && len(words) < int(minWords%6) {
			t.Fatalf("k=%d %q: padded to %d words, reserved %d", sp.K, pt.Sig, len(words), minWords%6)
		}
		check(words, err)
	})
}

// instrFor builds an instruction of signature sig in the form the
// encoder accepts for it, with registers from the nibbles of regs
// (Rd, Rn, Rm, Rs) and value val. The tests state each format's
// operands here independently of the codec's layouts.
func instrFor(sig Signature, regs uint16, val uint32) isa.Instr {
	r := func(i int) isa.Reg { return isa.Reg(regs >> (4 * i) & 0xf) }
	in := isa.Instr{Op: sig.Op, Cond: sig.Cond, SetFlags: sig.SetFlags, TargetIdx: -1}
	switch FormatOf(sig) {
	case FmtALU3Reg:
		in.Rd, in.Rn, in.Rm, in.Shift, in.ShiftAmt = r(0), r(1), r(2), sig.Shift, sig.ShiftAmt
	case FmtALU3Imm:
		in.Rd, in.Rn, in.Imm, in.HasImm = r(0), r(1), int32(val), true
	case FmtALU2Reg, FmtALU2Imm:
		switch {
		case sig.Op.IsCompare():
			in.Rn, in.Rm = r(0), r(2)
		case sig.Op == isa.MUL:
			in.Rd, in.Rm, in.Rs = r(0), r(0), r(3)
		case sig.TwoOp:
			in.Rd, in.Rn, in.Rm = r(0), r(0), r(2)
		default:
			in.Rd, in.Rm = r(0), r(2)
		}
		in.Shift, in.ShiftAmt = sig.Shift, sig.ShiftAmt
		if sig.OperandImm {
			in.Rm, in.Imm, in.HasImm = 0, int32(val), true
		}
	case FmtShift:
		in.Rd, in.Rm, in.Shift, in.ShiftAmt = r(0), r(2), sig.Shift, uint8(1+val%31)
	case FmtRegShift:
		in.Rd, in.Rm, in.Rs, in.Shift, in.RegShift = r(0), r(2), r(3), sig.Shift, true
		if sig.IsALU3() {
			in.Rn = in.Rd
		}
	case FmtMul:
		in.Rd, in.Rm, in.Rs = r(0), r(2), r(3)
		if sig.Op == isa.MLA {
			in.Rn = in.Rd
		}
	case FmtMemImm, FmtMemWide:
		in.Rd, in.Rn, in.Mode = r(0), r(1), sig.Mode
		if sig.HasBase {
			in.Rn = sig.Base
		}
		in.Imm = int32(val%4096) * int32(sig.Op.MemSize())
		if sig.NegOff {
			in.Imm = -in.Imm
		}
	case FmtMemReg:
		in.Rd, in.Rn, in.Rm, in.Mode, in.ShiftAmt = r(0), r(1), r(2), isa.AMOffReg, sig.ShiftAmt
	case FmtLdc, FmtTrap:
		in.Rd, in.Imm, in.HasImm = r(0), int32(val), true
		if sig.Op == isa.SWI {
			in.Rd = 0
		}
	case FmtStack:
		in.RegList = uint16(val) & (1<<isa.LR | 0x07ff)
	case FmtBX:
		in.Rm = r(2)
	}
	return in
}
