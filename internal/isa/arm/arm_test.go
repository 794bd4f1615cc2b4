package arm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
)

func TestEncodableImmReconstruction(t *testing.T) {
	// Every (rot, imm8) pair must be recognised and reconstruct the
	// original value.
	for rot := uint32(0); rot < 16; rot++ {
		for imm8 := uint32(0); imm8 <= 0xff; imm8++ {
			v := imm8>>(2*rot) | imm8<<(32-2*rot)
			if rot == 0 {
				v = imm8
			}
			r, i, ok := EncodableImm(v)
			if !ok {
				t.Fatalf("value %#x (rot %d imm %d) not recognised", v, rot, imm8)
			}
			got := i>>(2*r) | i<<(32-2*r)
			if r == 0 {
				got = i
			}
			if got != v {
				t.Fatalf("reconstruction %#x != %#x", got, v)
			}
		}
	}
}

func TestEncodableImmRejects(t *testing.T) {
	for _, v := range []uint32{0x101, 0xFF1, 0x12345678, 0xFFFFFFFF} {
		if _, _, ok := EncodableImm(v); ok {
			t.Errorf("%#x should not be encodable", v)
		}
	}
}

func TestEncodableImmProperty(t *testing.T) {
	f := func(v uint32) bool {
		rot, imm8, ok := EncodableImm(v)
		if !ok {
			return true
		}
		got := imm8>>(2*rot) | imm8<<(32-2*rot)
		if rot == 0 {
			got = imm8
		}
		return got == v && imm8 <= 0xff && rot < 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// randEncodable produces a random instruction the ARM subset can encode
// (excluding branches and literal loads, which need layout context).
func randEncodable(r *rand.Rand) isa.Instr {
	reg := func() isa.Reg { return isa.Reg(r.Intn(13)) } // r0..r12
	cond := isa.Cond(r.Intn(int(isa.AL) + 1))
	armImm := func() int32 {
		imm8 := uint32(r.Intn(256))
		rot := uint32(r.Intn(16))
		v := imm8>>(2*rot) | imm8<<(32-2*rot)
		if rot == 0 {
			v = imm8
		}
		return int32(v)
	}
	aluOps := []isa.Op{isa.ADD, isa.ADC, isa.SUB, isa.SBC, isa.RSB, isa.AND,
		isa.ORR, isa.EOR, isa.BIC, isa.MOV, isa.MVN, isa.CMP, isa.CMN, isa.TST, isa.TEQ}
	// normALU zeroes the fields the encoding does not carry so the
	// round trip is exact.
	normALU := func(in isa.Instr) isa.Instr {
		if in.Op.IsCompare() {
			in.Rd = 0
		}
		if !in.Op.ReadsRn() {
			in.Rn = 0
		}
		return in
	}
	memOps := []isa.Op{isa.LDR, isa.LDRB, isa.STR, isa.STRB}
	halfOps := []isa.Op{isa.LDRH, isa.LDRSB, isa.LDRSH, isa.STRH}

	switch r.Intn(8) {
	case 0: // ALU immediate
		op := aluOps[r.Intn(len(aluOps))]
		in := isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(), Imm: armImm(), HasImm: true, TargetIdx: -1}
		in.SetFlags = r.Intn(2) == 0 && !op.IsCompare()
		return normALU(in)
	case 1: // ALU register, constant shift
		op := aluOps[r.Intn(len(aluOps))]
		in := isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(), Rm: reg(), TargetIdx: -1}
		if r.Intn(2) == 0 {
			in.Shift = isa.Shift(r.Intn(4))
			in.ShiftAmt = uint8(1 + r.Intn(31))
		}
		in.SetFlags = r.Intn(2) == 0 && !op.IsCompare()
		return normALU(in)
	case 2: // ALU register-shifted register
		op := aluOps[r.Intn(len(aluOps))]
		return normALU(isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(), Rm: reg(),
			Rs: reg(), Shift: isa.Shift(r.Intn(4)), RegShift: true, TargetIdx: -1})
	case 3: // multiply
		if r.Intn(2) == 0 {
			return isa.Instr{Op: isa.MUL, Cond: cond, Rd: reg(), Rm: reg(), Rs: reg(), TargetIdx: -1}
		}
		return isa.Instr{Op: isa.MLA, Cond: cond, Rd: reg(), Rn: reg(), Rm: reg(), Rs: reg(), TargetIdx: -1}
	case 4: // word/byte transfer
		op := memOps[r.Intn(len(memOps))]
		switch r.Intn(3) {
		case 0:
			return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(),
				Imm: int32(r.Intn(8191) - 4095), Mode: isa.AMOffImm, TargetIdx: -1}
		case 1:
			return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(), Rm: reg(),
				ShiftAmt: uint8(r.Intn(32)), Mode: isa.AMOffReg, TargetIdx: -1}
		default:
			return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(),
				Imm: int32(r.Intn(8191) - 4095), Mode: isa.AMPostImm, TargetIdx: -1}
		}
	case 5: // halfword transfer
		op := halfOps[r.Intn(len(halfOps))]
		if r.Intn(2) == 0 {
			return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(),
				Imm: int32(r.Intn(511) - 255), Mode: isa.AMOffImm, TargetIdx: -1}
		}
		return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(), Rm: reg(),
			Mode: isa.AMOffReg, TargetIdx: -1}
	case 6: // stack
		list := uint16(r.Intn(1 << 13))
		if list == 0 {
			list = 1 << isa.R4
		}
		op := isa.PUSH
		if r.Intn(2) == 0 {
			op = isa.POP
		}
		return isa.Instr{Op: op, Cond: cond, RegList: list, TargetIdx: -1}
	default: // extended datapath
		ext := []isa.Op{isa.QADD, isa.QSUB, isa.MIN, isa.MAX}
		if r.Intn(3) == 0 {
			op := isa.CLZ
			if r.Intn(2) == 0 {
				op = isa.REV
			}
			return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rm: reg(), TargetIdx: -1}
		}
		op := ext[r.Intn(len(ext))]
		return isa.Instr{Op: op, Cond: cond, Rd: reg(), Rn: reg(), Rm: reg(), TargetIdx: -1}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		in := randEncodable(r)
		w, err := EncodeInstr(&in, 0x8000, 0, 0)
		if err != nil {
			t.Fatalf("encode %s: %v", in, err)
		}
		got, err := Decode(w, 0x8000, nil, nil)
		if err != nil {
			t.Fatalf("decode %s (%#08x): %v", in, w, err)
		}
		want := in
		// Canonical forms the encoding cannot distinguish.
		if want.Op == isa.MOV && want.Cond == isa.AL && !want.SetFlags && !want.HasImm &&
			!want.RegShift && want.ShiftAmt == 0 && want.Rd == isa.R0 && want.Rm == isa.R0 {
			want = isa.Instr{Op: isa.NOP, Cond: isa.AL, TargetIdx: -1}
		}
		if got != want {
			t.Fatalf("round trip %d:\n in  %+v\n out %+v\n word %#08x", i, want, got, w)
		}
	}
}

func TestBranchEncoding(t *testing.T) {
	b := asm.New("branches")
	b.Func("main")
	b.Label("top")
	b.MovI(isa.R0, 1)
	b.Bc(isa.EQ, "top")
	b.Bl("callee")
	b.B("end")
	b.Label("end")
	b.Exit()
	b.Func("callee")
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckImage(p, im); err != nil {
		t.Error(err)
	}
}

func TestLiteralPoolSharing(t *testing.T) {
	b := asm.New("pools")
	b.Func("main")
	b.Ldc(isa.R0, 0x12345678)
	b.Ldc(isa.R1, 0x12345678) // duplicate: shares the pool slot
	b.Ldc(isa.R2, -559038737)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	if im.PoolBytes != 8 {
		t.Errorf("pool bytes = %d, want 8 (two unique literals)", im.PoolBytes)
	}
	if im.Size() != 4*4+8 {
		t.Errorf("image size = %d, want %d", im.Size(), 4*4+8)
	}
	if err := CheckImage(p, im); err != nil {
		t.Errorf("literal values corrupted: %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []isa.Instr{
		{Op: isa.ADD, Cond: isa.AL, Imm: 0x12345, HasImm: true, TargetIdx: -1}, // bad rotated imm
		{Op: isa.LDR, Cond: isa.AL, Imm: 5000, Mode: isa.AMOffImm, TargetIdx: -1},
		{Op: isa.LDRH, Cond: isa.AL, Imm: 300, Mode: isa.AMOffImm, TargetIdx: -1},
		{Op: isa.LDRH, Cond: isa.AL, Rm: isa.R1, ShiftAmt: 2, Mode: isa.AMOffReg, TargetIdx: -1},
	}
	for _, in := range cases {
		if _, err := EncodeInstr(&in, 0, 0, 0); err == nil {
			t.Errorf("expected encode error for %s", in)
		}
	}
}
