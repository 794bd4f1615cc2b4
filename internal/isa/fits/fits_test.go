package fits

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"powerfits/internal/isa"
)

// testSpec builds a spec exercising every format and both value modes
// (at k = 4, one point per format).
func testSpec(t testing.TB, k int) *Spec {
	t.Helper()
	sig := func(op isa.Op, mut ...func(*Signature)) Signature {
		s := Signature{Op: op, Cond: isa.AL}
		for _, m := range mut {
			m(&s)
		}
		return s
	}
	imm := func(s *Signature) { s.OperandImm = true }
	points := []Point{
		{Kind: PointExt},
		{Kind: PointSig, Sig: LdcSig()},
		{Kind: PointSig, Sig: sig(isa.ADD)},
		{Kind: PointSig, Sig: sig(isa.ADD, imm)},
		{Kind: PointSig, Sig: sig(isa.ADD).AsTwoOp()},
		{Kind: PointSig, Sig: sig(isa.ADD, imm).AsTwoOp(),
			ImmDict: true, Values: []int32{256, 1024}},
		{Kind: PointSig, Sig: sig(isa.SUB)},
		{Kind: PointSig, Sig: sig(isa.MOV)},
		{Kind: PointSig, Sig: sig(isa.MOV, imm)},
		{Kind: PointSig, Sig: sig(isa.CMP)},
		{Kind: PointSig, Sig: sig(isa.CMP, imm)},
		{Kind: PointSig, Sig: Signature{Op: isa.MOV, Cond: isa.AL, ShiftInField: true, Shift: isa.LSR}},
		{Kind: PointSig, Sig: Signature{Op: isa.MOV, Cond: isa.AL, RegShift: true, Shift: isa.LSL}},
		{Kind: PointSig, Sig: Signature{Op: isa.ADD, Cond: isa.AL, Shift: isa.LSL, ShiftAmt: 2}},
		{Kind: PointSig, Sig: sig(isa.MUL)},
		{Kind: PointSig, Sig: sig(isa.MUL).AsTwoOp()},
		{Kind: PointSig, Sig: sig(isa.MLA)},
		{Kind: PointSig, Sig: Signature{Op: isa.LDR, Cond: isa.AL, Mode: isa.AMOffImm, OperandImm: true}},
		{Kind: PointSig, Sig: Signature{Op: isa.LDR, Cond: isa.AL, Mode: isa.AMOffImm, OperandImm: true, NegOff: true}},
		{Kind: PointSig, Sig: Signature{Op: isa.LDR, Cond: isa.AL, Mode: isa.AMOffImm, OperandImm: true}.AsBase(isa.R9)},
		{Kind: PointSig, Sig: Signature{Op: isa.STRB, Cond: isa.AL, Mode: isa.AMPostImm, OperandImm: true}},
		{Kind: PointSig, Sig: Signature{Op: isa.LDRB, Cond: isa.AL, Mode: isa.AMOffReg}},
		{Kind: PointSig, Sig: Signature{Op: isa.LDR, Cond: isa.AL, Mode: isa.AMOffReg, ShiftAmt: 2}},
		{Kind: PointSig, Sig: sig(isa.PUSH)},
		{Kind: PointSig, Sig: sig(isa.POP)},
		{Kind: PointSig, Sig: sig(isa.B)},
		{Kind: PointSig, Sig: Signature{Op: isa.BC, Cond: isa.NE}},
		{Kind: PointSig, Sig: sig(isa.BL)},
		{Kind: PointSig, Sig: sig(isa.BX)},
		{Kind: PointSig, Sig: sig(isa.SWI, imm)},
		{Kind: PointSig, Sig: Signature{Op: isa.EOR, Cond: isa.EQ}},
	}
	if k == MinK {
		// 2^4 opcodes: keep the first point of each format.
		var one []Point
		seen := map[Format]bool{}
		for _, p := range points {
			f := FormatOf(p.Sig)
			if p.Kind == PointExt {
				f = FmtExt
			}
			if !seen[f] {
				seen[f] = true
				one = append(one, p)
			}
		}
		points = one
	}
	window := []isa.Reg{isa.R0, isa.R3, isa.R1, isa.R2, isa.R4, isa.R5, isa.R6, isa.R7,
		isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.SP, isa.LR, isa.PC}
	sp, err := NewSpec("test", k, points, window)
	if err != nil {
		t.Fatalf("NewSpec: %v", err)
	}
	return sp
}

func decodeWords(t *testing.T, sp *Spec, words []uint16, addr uint32) Decoded {
	t.Helper()
	read := func(a uint32) uint16 {
		i := int(a-addr) / 2
		if i < 0 || i >= len(words) {
			t.Fatalf("decoder read out of range: %#x", a)
		}
		return words[i]
	}
	d, err := sp.DecodeAt(read, addr)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Words != len(words) {
		t.Fatalf("decoded %d words, encoded %d", d.Words, len(words))
	}
	return d
}

func TestCodecRoundTripCases(t *testing.T) {
	for _, k := range []int{5, 6} {
		sp := testSpec(t, k)
		cases := []isa.Instr{
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3},
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Rm: isa.R11}, // window miss → EXT
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Imm: 3, HasImm: true},
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R1, Imm: 256, HasImm: true}, // dict hit
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R1, Imm: 999, HasImm: true}, // dict miss → EXT
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R5, Rn: isa.R5, Rm: isa.R9},             // two-op
			{Op: isa.MOV, Cond: isa.AL, Rd: isa.R1, Rm: isa.R2},
			{Op: isa.MOV, Cond: isa.AL, Rd: isa.R1, Imm: 77, HasImm: true},
			{Op: isa.CMP, Cond: isa.AL, Rn: isa.R4, Rm: isa.R5},
			{Op: isa.CMP, Cond: isa.AL, Rn: isa.R4, Imm: 100000, HasImm: true}, // big imm → EXTs
			{Op: isa.MOV, Cond: isa.AL, Rd: isa.R1, Rm: isa.R2, Shift: isa.LSR, ShiftAmt: 13},
			{Op: isa.MOV, Cond: isa.AL, Rd: isa.R1, Rm: isa.R2, Shift: isa.LSL, RegShift: true, Rs: isa.R3},
			{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3, Shift: isa.LSL, ShiftAmt: 2},
			{Op: isa.MUL, Cond: isa.AL, Rd: isa.R1, Rm: isa.R2, Rs: isa.R3},
			{Op: isa.MUL, Cond: isa.AL, Rd: isa.R1, Rm: isa.R1, Rs: isa.R11}, // two-op mul
			{Op: isa.MLA, Cond: isa.AL, Rd: isa.R1, Rn: isa.R1, Rm: isa.R2, Rs: isa.R3},
			{Op: isa.LDR, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Imm: 8, Mode: isa.AMOffImm},
			{Op: isa.LDR, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Imm: -8, Mode: isa.AMOffImm},
			{Op: isa.LDR, Cond: isa.AL, Rd: isa.R1, Rn: isa.R9, Imm: 248, Mode: isa.AMOffImm}, // implied base
			{Op: isa.STRB, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Imm: 1, Mode: isa.AMPostImm},
			{Op: isa.LDRB, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3, Mode: isa.AMOffReg},
			{Op: isa.LDR, Cond: isa.AL, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3, ShiftAmt: 2, Mode: isa.AMOffReg},
			{Op: isa.PUSH, Cond: isa.AL, RegList: 1<<isa.R4 | 1<<isa.R7 | 1<<isa.LR},
			{Op: isa.POP, Cond: isa.AL, RegList: 1<<isa.R4 | 1<<isa.R10 | 1<<isa.LR},
			{Op: isa.BX, Cond: isa.AL, Rm: isa.LR},
			{Op: isa.SWI, Cond: isa.AL, Imm: 1, HasImm: true},
			{Op: isa.LDC, Cond: isa.AL, Rd: isa.R1, Imm: 42, HasImm: true},
			{Op: isa.LDC, Cond: isa.AL, Rd: isa.R1, Imm: -559038737, HasImm: true}, // full-width constant
			{Op: isa.EOR, Cond: isa.EQ, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3},
		}
		for _, in := range cases {
			in.TargetIdx = -1
			words, err := sp.Encode(&in, 0x8000, 0)
			if err != nil {
				t.Fatalf("k=%d encode %s: %v", k, in, err)
			}
			d := decodeWords(t, sp, words, 0x8000)
			if d.In != in {
				t.Errorf("k=%d round trip:\n in  %+v\n out %+v", k, in, d.In)
			}
		}
	}
}

func TestCodecBranchRoundTrip(t *testing.T) {
	sp := testSpec(t, 6)
	base := uint32(0x8000)
	for _, delta := range []int64{0, 2, -2, 100, -100, 1 << 11, -(1 << 11), 1 << 18, -(1 << 18)} {
		for _, op := range []isa.Op{isa.B, isa.BL} {
			in := isa.Instr{Op: op, Cond: isa.AL, TargetIdx: 0}
			target := uint32(int64(base) + delta)
			words, err := sp.Encode(&in, base, target)
			if err != nil {
				t.Fatalf("encode %s Δ%d: %v", op, delta, err)
			}
			d := decodeWords(t, sp, words, base)
			if !d.IsBranch || d.BranchTarget != target {
				t.Errorf("%s Δ%d: decoded target %#x, want %#x", op, delta, d.BranchTarget, target)
			}
		}
	}
}

func TestEncodePadded(t *testing.T) {
	sp := testSpec(t, 6)
	base := uint32(0x8000)
	in := isa.Instr{Op: isa.B, Cond: isa.AL, TargetIdx: 0}
	target := base + 20
	for minWords := 1; minWords <= 3; minWords++ {
		words, err := sp.EncodePadded(&in, base, target, minWords)
		if err != nil {
			t.Fatalf("pad %d: %v", minWords, err)
		}
		if len(words) != minWords {
			t.Fatalf("pad %d: got %d words", minWords, len(words))
		}
		d := decodeWords(t, sp, words, base)
		if d.BranchTarget != target {
			t.Errorf("pad %d: target %#x, want %#x", minWords, d.BranchTarget, target)
		}
	}
	// Backward branch padding must sign-fill.
	target = base - 40
	words, err := sp.EncodePadded(&in, base, target, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := decodeWords(t, sp, words, base)
	if d.BranchTarget != target {
		t.Errorf("backward pad: target %#x, want %#x", d.BranchTarget, target)
	}
}

func TestStackListRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		list := raw & (1<<isa.LR | 0x07ff)
		c, err := canonicalStackList(list)
		if err != nil {
			return false
		}
		return expandStackList(c) == list
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := canonicalStackList(1 << isa.R11); err == nil {
		t.Error("r11 must be rejected from stack lists")
	}
	if _, err := canonicalStackList(1 << isa.SP); err == nil {
		t.Error("sp must be rejected from stack lists")
	}
}

func TestSplitSignedProperty(t *testing.T) {
	sp := testSpec(t, 6)
	bits := FieldBits(FmtBranch, sp.K)
	f := func(v int32, pad uint8) bool {
		v %= 1 << 28
		enc := coder{sp: sp, addr: 1 << 31, pad: int(pad % (MaxExts + 1))}
		enc.target = uint32(int64(enc.addr) + 2*int64(v))
		if err := enc.disp(bits); err != nil || enc.n < enc.pad {
			return false
		}
		dec := coder{sp: sp, dec: true, addr: enc.addr, w: enc.w, ext: enc.ext, n: enc.n}
		return dec.disp(bits) == nil && dec.target == enc.target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSplitUnsignedProperty(t *testing.T) {
	sp := testSpec(t, 6)
	pt := &Point{Kind: PointSig, Sig: LdcSig()}
	for _, bits := range []int{2, 4, 6, 10} {
		f := func(v uint32) bool {
			in := isa.Instr{Imm: int32(v)}
			enc := coder{sp: sp, pt: pt, in: &in}
			if err := enc.value(valImm, bits); err != nil {
				return false
			}
			var out isa.Instr
			dec := coder{sp: sp, pt: pt, in: &out, dec: true, w: enc.w, ext: enc.ext, n: enc.n}
			return dec.value(valImm, bits) == nil && out.Imm == in.Imm
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Errorf("bits=%d: %v", bits, err)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	add := Signature{Op: isa.ADD, Cond: isa.AL}
	base := []Point{{Kind: PointExt}, {Kind: PointSig, Sig: LdcSig()}, {Kind: PointSig, Sig: add}}
	if _, err := NewSpec("ok", 5, base, nil); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name   string
		k      int
		points []Point
		window []isa.Reg
	}{
		{"no ext", 5, []Point{{Kind: PointSig, Sig: LdcSig()}}, nil},
		{"no ldc", 5, []Point{{Kind: PointExt}, {Kind: PointSig, Sig: add}}, nil},
		{"dup sig", 5, append(base[:3:3], Point{Kind: PointSig, Sig: add}), nil},
		{"dup ext", 5, append(base[:3:3], Point{Kind: PointExt}), nil},
		{"k too small", 3, base, nil},
		{"k too big", 7, base, nil},
		{"too many points", 4, make([]Point, 17), nil},
		{"dict on reg format", 5, []Point{{Kind: PointExt}, {Kind: PointSig, Sig: LdcSig()},
			{Kind: PointSig, Sig: add, ImmDict: true, Values: []int32{1}}}, nil},
		{"dup window", 5, base, []isa.Reg{isa.R0, isa.R0}},
		{"dup value", 5, []Point{{Kind: PointExt},
			{Kind: PointSig, Sig: LdcSig(), ImmDict: true, Values: []int32{7, 7}}}, nil},
	}
	for _, c := range bad {
		if _, err := NewSpec(c.name, c.k, c.points, c.window); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
}

func TestSigOfClassification(t *testing.T) {
	cases := []struct {
		in  isa.Instr
		fmt Format
	}{
		{isa.Instr{Op: isa.ADD, Rm: isa.R1}, FmtALU3Reg},
		{isa.Instr{Op: isa.ADD, Imm: 4, HasImm: true}, FmtALU3Imm},
		{isa.Instr{Op: isa.MOV, Rm: isa.R1}, FmtALU2Reg},
		{isa.Instr{Op: isa.MOV, Imm: 4, HasImm: true}, FmtALU2Imm},
		{isa.Instr{Op: isa.MOV, Rm: isa.R1, Shift: isa.LSR, ShiftAmt: 3}, FmtShift},
		{isa.Instr{Op: isa.MOV, Rm: isa.R1, Shift: isa.LSL, RegShift: true}, FmtRegShift},
		{isa.Instr{Op: isa.ADD, Rm: isa.R1, Shift: isa.LSL, ShiftAmt: 2}, FmtALU3Reg},
		{isa.Instr{Op: isa.CMP, Rm: isa.R1}, FmtALU2Reg},
		{isa.Instr{Op: isa.MUL}, FmtMul},
		{isa.Instr{Op: isa.LDR, Mode: isa.AMOffImm}, FmtMemImm},
		{isa.Instr{Op: isa.LDR, Mode: isa.AMOffReg}, FmtMemReg},
		{isa.Instr{Op: isa.PUSH}, FmtStack},
		{isa.Instr{Op: isa.B}, FmtBranch},
		{isa.Instr{Op: isa.BX}, FmtBX},
		{isa.Instr{Op: isa.SWI, Imm: 0, HasImm: true}, FmtTrap},
	}
	for _, c := range cases {
		c.in.Cond = isa.AL
		sig := SigOf(&c.in)
		if got := FormatOf(sig); got != c.fmt {
			t.Errorf("%s: format %d, want %d", c.in, got, c.fmt)
		}
	}
}

func TestEncodeLengthDistribution(t *testing.T) {
	// Randomised: every expressible instruction encodes to 1..4 words
	// and decodes back exactly.
	sp := testSpec(t, 6)
	r := rand.New(rand.NewSource(7))
	count := [5]int{}
	for i := 0; i < 5000; i++ {
		in := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.Reg(r.Intn(13)),
			Rn: isa.Reg(r.Intn(13)), Imm: int32(r.Intn(1 << uint(1+r.Intn(20)))), HasImm: true, TargetIdx: -1}
		if in.Rd != in.Rn && !sp.Expressible(&in) {
			continue
		}
		words, err := sp.Encode(&in, 0x8000, 0)
		if err != nil {
			t.Fatalf("encode %s: %v", in, err)
		}
		if len(words) < 1 || len(words) > MaxExts+1 {
			t.Fatalf("length %d out of bounds", len(words))
		}
		count[len(words)]++
		d := decodeWords(t, sp, words, 0x8000)
		if d.In != in {
			t.Fatalf("round trip: %+v != %+v", d.In, in)
		}
	}
	if count[1] == 0 || count[2] == 0 {
		t.Errorf("length distribution degenerate: %v", count)
	}
}

func TestExpressible(t *testing.T) {
	sp := testSpec(t, 6)
	yes := []isa.Instr{
		{Op: isa.ADD, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
		{Op: isa.MLA, Cond: isa.AL, Rd: isa.R0, Rn: isa.R0, Rm: isa.R1, Rs: isa.R2},
	}
	no := []isa.Instr{
		{Op: isa.MLA, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2, Rs: isa.R3},      // rd != rn
		{Op: isa.EOR, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},                  // only EOR-EQ mapped
		{Op: isa.LDRH, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Imm: 3, Mode: isa.AMOffImm}, // unscalable
		{Op: isa.PUSH, Cond: isa.AL, RegList: 1 << isa.R11},                              // illegal list
	}
	for _, in := range yes {
		if !sp.Expressible(&in) {
			t.Errorf("%s should be expressible", in)
		}
	}
	for _, in := range no {
		if sp.Expressible(&in) {
			t.Errorf("%s should not be expressible", in)
		}
	}
}

// TestSignatureKeyInjective pins the String collisions that once made
// opcode numbering depend on map iteration order: pairs of distinct
// signatures that render identically must still get distinct sort keys.
func TestSignatureKeyInjective(t *testing.T) {
	shifted := Signature{Op: isa.ADD, Cond: isa.AL, Shift: isa.LSL, ShiftAmt: 2}
	regShift := Signature{Op: isa.ADD, Cond: isa.AL, Shift: isa.LSL, RegShift: true}
	post := Signature{Op: isa.LDR, Cond: isa.AL, Mode: isa.AMPostImm, OperandImm: true}
	pairs := []struct {
		name string
		a, b Signature
	}{
		{"shifted-operand two-op", shifted, shifted.AsTwoOp()},
		{"register-shift two-op", regShift, regShift.AsTwoOp()},
		{"post-indexed offset sign", post, Signature{Op: isa.LDR, Cond: isa.AL,
			Mode: isa.AMPostImm, OperandImm: true, NegOff: true}},
	}
	for _, p := range pairs {
		if p.a == p.b {
			t.Fatalf("%s: test pair is not distinct", p.name)
		}
		if p.a.String() != p.b.String() {
			t.Errorf("%s: expected a String collision (%q vs %q); update the pair",
				p.name, p.a, p.b)
		}
		if p.a.Key() == p.b.Key() {
			t.Errorf("%s: distinct signatures share sort key %q", p.name, p.a.Key())
		}
	}
}

// TestErrorTexts pins the text of every error the codec returns. The
// translator branches on *NoPointError and *RewriteError, and the texts
// of infeasible points land in sweep documents.
func TestErrorTexts(t *testing.T) {
	sp := testSpec(t, 6)
	enc := func(in isa.Instr, minWords int) error {
		in.TargetIdx = -1
		_, err := sp.EncodePadded(&in, 0x8000, 0x8010, minWords)
		return err
	}
	_, offErr := ValueOf(&isa.Instr{Op: isa.LDR, Cond: isa.AL, Imm: -6, Mode: isa.AMOffImm},
		Signature{Op: isa.LDR, Cond: isa.AL, Mode: isa.AMOffImm, OperandImm: true, NegOff: true})
	at := func(words ...uint16) error {
		_, err := sp.DecodeAt(func(a uint32) uint16 { return words[int(a-0x8000)/2%len(words)] }, 0x8000)
		return err
	}
	word := func(op int, payload uint16) uint16 { return uint16(op)<<10 | payload }
	dictPoint := sp.pointOf[Signature{Op: isa.ADD, Cond: isa.AL, OperandImm: true}.AsTwoOp()]
	// Under an empty window every narrow register code is out of range.
	noWin, err := NewSpec("nowin", 6, []Point{{Kind: PointExt}, {Kind: PointSig, Sig: LdcSig()},
		{Kind: PointSig, Sig: Signature{Op: isa.ADD, Cond: isa.AL}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, winErr := noWin.DecodeAt(func(uint32) uint16 { return word(2, 1) }, 0x8000)
	cases := []struct {
		err  error
		want string
	}{
		{enc(isa.Instr{Op: isa.EOR, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 0),
			`fits: no opcode point for signature "eor r,r"`},
		{enc(isa.Instr{Op: isa.NOP, Cond: isa.AL}, 0), `fits: no opcode point for signature "nop"`},
		{enc(isa.Instr{Op: isa.MLA, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2, Rs: isa.R3}, 0),
			"fits: MLA accumulator must equal destination in 16-bit form"},
		{enc(isa.Instr{Op: isa.PUSH, Cond: isa.AL, RegList: 1 << isa.R11}, 0),
			"fits: fits: stack list 0x0800 uses registers outside r0-r10/lr"},
		{enc(isa.Instr{Op: isa.B, Cond: isa.AL}, 5), "fits: branch padding exceeds EXT limit"},
		{enc(isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: isa.R1, Rm: isa.R2}, 2),
			"fits: non-branch mov r1, r2 shrank below reserved size"},
		{offErr, "fits: offset -6 not a multiple of access size 4"},
		{at(sp.ext(0)), "fits: more than 3 EXT prefixes at 0x8000"},
		{at(word(63, 0)), "fits: unassigned opcode 63 at 0x8000"},
		{at(word(dictPoint, 2)), `fits: value index 2 out of range for "add rd,#lit"`},
		{winErr, "fits: window code 1 out of range"},
	}
	for i, c := range cases {
		got := ""
		if c.err != nil {
			got = c.err.Error()
		}
		if got != c.want {
			t.Errorf("case %d: error %q, want %q", i, got, c.want)
		}
	}
	var np *NoPointError
	var rw *RewriteError
	if !errors.As(cases[0].err, &np) || !errors.As(cases[2].err, &rw) {
		t.Errorf("error types changed: %T, %T", cases[0].err, cases[2].err)
	}
}
