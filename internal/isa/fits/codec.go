package fits

import (
	"fmt"

	"powerfits/internal/isa"
)

// NoPointError reports that an instruction has no applicable opcode
// point in the spec; the translator responds by rewriting it into
// synthesized operations (the 1-to-n mapping path).
type NoPointError struct {
	Sig Signature
}

func (e *NoPointError) Error() string {
	return fmt.Sprintf("fits: no opcode point for signature %q", e.Sig)
}

// RewriteError reports that the instruction cannot be expressed even
// with EXT prefixes (e.g. an MLA whose accumulator differs from its
// destination, or an unscalable offset); the translator must
// restructure it.
type RewriteError struct {
	Reason string
}

func (e *RewriteError) Error() string { return "fits: " + e.Reason }

// ext builds an EXT word with the given payload.
func (sp *Spec) ext(payload uint32) uint16 {
	return uint16(sp.extPoint)<<sp.PayloadBits() | uint16(payload&(1<<sp.PayloadBits()-1))
}

// ValueOf extracts the instruction's value-field content for a
// candidate signature (unsigned field-value space: scaled offset
// magnitudes, immediates, shift amounts, canonical lists, trap
// numbers, literal constants). The synthesizer uses it to build value
// histograms.
func ValueOf(in *isa.Instr, sig Signature) (uint32, error) {
	fl, _, _ := tail(FormatOf(sig), MinK)
	return valueOf(in, fl)
}

// valueOf maps an instruction to the content of its value field fl;
// setValue is its inverse.
func valueOf(in *isa.Instr, fl field) (uint32, error) {
	switch fl {
	case valImm:
		return uint32(in.Imm), nil
	case valShift:
		return uint32(in.ShiftAmt), nil
	case valOffset:
		v, ok := scaledOffset(in)
		if !ok {
			return 0, &RewriteError{Reason: fmt.Sprintf("offset %d not a multiple of access size %d", in.Imm, in.Op.MemSize())}
		}
		return v, nil
	case valList:
		c, err := canonicalStackList(in.RegList)
		if err != nil {
			return 0, &RewriteError{Reason: err.Error()}
		}
		return uint32(c), nil
	}
	return 0, nil
}

// setValue stores value-field content v into an instruction of
// signature sig.
func setValue(in *isa.Instr, sig Signature, fl field, v uint32) {
	switch fl {
	case valImm:
		in.Imm, in.HasImm = int32(v), true
	case valShift:
		in.ShiftAmt = uint8(v)
	case valOffset:
		in.Imm = int32(v * uint32(sig.Op.MemSize()))
		if sig.NegOff {
			in.Imm = -in.Imm
		}
	case valList:
		in.RegList = expandStackList(uint16(v))
	}
}

// scaledOffset returns the magnitude of an immediate memory offset in
// units of the access size; ok is false when it is not a multiple.
func scaledOffset(in *isa.Instr) (v uint32, ok bool) {
	mag, scale := in.Imm, in.Op.MemSize()
	if mag < 0 {
		mag = -mag
	}
	if int(mag)%scale != 0 {
		return 0, false
	}
	return uint32(mag) / uint32(scale), true
}

// cand is one applicable opcode point for an instruction.
type cand struct {
	op  int
	sig Signature
}

// candidates appends every opcode point that can express the
// instruction to dst (cheapest encoding chosen later). An empty result
// means the translator must rewrite the instruction. Append semantics
// let hot callers keep the at-most-three candidates on the stack.
func (sp *Spec) candidates(dst []cand, in *isa.Instr) []cand {
	out := dst
	add := func(s Signature) {
		if op, ok := sp.pointOf[s]; ok {
			out = append(out, cand{op, s})
		}
	}
	var sig Signature
	if in.Op == isa.LDC {
		sig = LdcSig()
	} else {
		sig = SigOf(in)
	}

	// Exact point (MLA is only expressible with rd == rn).
	if in.Op != isa.MLA || in.Rd == in.Rn {
		add(sig)
	}
	// Two-operand variants.
	if sig.CanTwoOp() {
		switch {
		case sig.Op == isa.MUL && in.Rd == in.Rm:
			add(sig.AsTwoOp())
		case sig.Op != isa.MUL && in.Rd == in.Rn:
			add(sig.AsTwoOp())
		}
	}
	// Implied-base variants.
	if sig.CanBase() {
		add(sig.AsBase(in.Rn))
	}
	// Memory offsets must scale for any imm-offset candidate.
	if in.Op.Class() == isa.ClassMem && sig.Mode != isa.AMOffReg {
		if _, ok := scaledOffset(in); !ok {
			return dst
		}
	}
	return out
}

// Expressible reports whether the instruction can be encoded (with EXT
// prefixes as needed) under the spec without rewriting.
func (sp *Spec) Expressible(in *isa.Instr) bool {
	var buf [3]cand
	for _, c := range sp.candidates(buf[:0], in) {
		if _, _, err := sp.encodeCand(in, c, 0, 0, 0); err == nil {
			return true
		}
	}
	return false
}

// Encode lowers one semantic instruction to FITS halfwords under the
// spec, choosing the cheapest applicable opcode point. addr is the
// address the first halfword will occupy; targetAddr the resolved
// branch target.
//
// Errors of type *NoPointError and *RewriteError signal that the
// translator must restructure the instruction.
func (sp *Spec) Encode(in *isa.Instr, addr, targetAddr uint32) ([]uint16, error) {
	words, n, err := sp.encode(in, addr, targetAddr, 0)
	if err != nil {
		return nil, err
	}
	out := make([]uint16, n)
	copy(out, words[:n])
	return out, nil
}

// EncodePadded is Encode, but guarantees the result occupies at least
// minWords halfwords by giving a branch displacement more EXT prefixes
// than it needs; they sign-fill, so the decoded displacement is
// unchanged. Only branch displacements are layout-dependent, so only
// branches may need padding.
func (sp *Spec) EncodePadded(in *isa.Instr, addr, targetAddr uint32, minWords int) ([]uint16, error) {
	words, n, err := sp.encode(in, addr, targetAddr, max(0, min(minWords-1, MaxExts)))
	switch {
	case err != nil:
		return nil, err
	case n >= minWords:
	case !(in.Op == isa.B || in.Op == isa.BC || in.Op == isa.BL):
		return nil, fmt.Errorf("fits: non-branch %s shrank below reserved size", in)
	default:
		return nil, &RewriteError{Reason: "branch padding exceeds EXT limit"}
	}
	out := make([]uint16, n)
	copy(out, words[:n])
	return out, nil
}

// encode is Encode into a fixed buffer; a branch displacement takes at
// least pad EXT prefixes.
func (sp *Spec) encode(in *isa.Instr, addr, targetAddr uint32, pad int) (words [MaxExts + 1]uint16, n int, err error) {
	if in.Op == isa.NOP {
		return words, 0, &NoPointError{Sig: SigOf(in)}
	}
	var cbuf [3]cand
	cands := sp.candidates(cbuf[:0], in)
	if len(cands) == 0 {
		if in.Op == isa.MLA && in.Rd != in.Rn {
			return words, 0, &RewriteError{Reason: "MLA accumulator must equal destination in 16-bit form"}
		}
		return words, 0, &NoPointError{Sig: SigOf(in)}
	}
	var firstErr error
	for _, c := range cands {
		ws, m, err := sp.encodeCand(in, c, addr, targetAddr, pad)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if n == 0 || m < n {
			words, n = ws, m
		}
	}
	if n == 0 {
		return words, 0, firstErr
	}
	return words, n, nil
}

// encodeCand encodes the instruction under one candidate point.
func (sp *Spec) encodeCand(in *isa.Instr, c cand, addr, targetAddr uint32, pad int) (words [MaxExts + 1]uint16, n int, err error) {
	cd := coder{sp: sp, pt: &sp.Points[c.op], in: in, addr: addr, target: targetAddr, pad: pad}
	cd.w = uint16(c.op) << sp.PayloadBits()
	if err := cd.walk(); err != nil {
		return words, 0, err
	}
	for i, e := range cd.ext[:cd.n] {
		words[i] = sp.ext(e)
	}
	words[cd.n] = cd.w
	return words, cd.n + 1, nil
}

// Decoded is the result of decoding one (possibly EXT-prefixed) FITS
// instruction.
type Decoded struct {
	In    isa.Instr
	Words int // halfwords consumed, including EXT prefixes
	// BranchTarget is the absolute target address for B/BC/BL.
	BranchTarget uint32
	IsBranch     bool
}

// DecodeAt interprets the instruction whose first halfword sits at
// addr, reading halfwords through read — this is the programmable
// decoder: it consults only the Spec tables.
func (sp *Spec) DecodeAt(read func(addr uint32) uint16, addr uint32) (Decoded, error) {
	cd := coder{sp: sp, dec: true, addr: addr}
	for a := addr; ; a += 2 {
		cd.w = read(a)
		if int(cd.w>>sp.PayloadBits()) != sp.extPoint {
			break
		}
		if cd.n == MaxExts {
			return Decoded{}, fmt.Errorf("fits: more than %d EXT prefixes at %#x", MaxExts, addr)
		}
		cd.ext[cd.n] = uint32(cd.w) & (1<<sp.PayloadBits() - 1)
		cd.n++
	}
	d := Decoded{Words: cd.n + 1}
	op := int(cd.w >> sp.PayloadBits())
	cd.pt = &sp.Points[op]
	if cd.pt.Kind != PointSig {
		d.In.TargetIdx = -1
		return d, fmt.Errorf("fits: unassigned opcode %d at %#x", op, addr)
	}
	sig := cd.pt.Sig
	d.In = sig.shape()
	cd.in = &d.In
	if err := cd.walk(); err != nil {
		return d, err
	}
	// Operands the signature implies: a two-operand MUL reads Rd as Rm;
	// MLA and the other two-operand forms read Rd as Rn.
	switch {
	case sig.Op == isa.MUL && sig.TwoOp:
		d.In.Rm = d.In.Rd
	case sig.Op == isa.MLA || sig.TwoOp:
		d.In.Rn = d.In.Rd
	}
	if FormatOf(sig) == FmtBranch {
		d.IsBranch, d.BranchTarget = true, cd.target
	}
	return d, nil
}

// coder carries one instruction between its semantic form and its
// words: the opcode word w and up to MaxExts EXT payloads before it.
// walk visits the point's fields in declared order; each field packs
// in into the words (enc) or unpacks the words into in (dec), so the
// encoder and the decoder are one walk over one declaration.
type coder struct {
	sp  *Spec
	pt  *Point
	in  *isa.Instr
	dec bool

	w   uint16
	ext [MaxExts]uint32 // EXT payloads, most significant first
	n   int             // EXT payloads in use

	addr   uint32 // address of the first word
	target uint32 // branch target: the encoder's input, the decoder's output
	pad    int    // least EXT payloads an encoded displacement takes
}

// walk codes the point's fields, msb→lsb after the opcode.
func (c *coder) walk() error {
	pos := c.sp.PayloadBits()
	for _, fl := range layouts[FormatOf(c.pt.Sig)] {
		if fl <= regM {
			pos -= 4
			r := c.reg(fl)
			if c.dec {
				*r = isa.Reg(c.w >> pos & 0xf)
			} else {
				c.w |= uint16(*r&0xf) << pos
			}
			continue
		}
		// The variable field is last and takes the low pos bits.
		switch fl {
		case narrowM, narrowS:
			return c.narrow(c.reg(fl), pos)
		case disp:
			return c.disp(pos)
		default:
			return c.value(fl, pos)
		}
	}
	return nil
}

// reg returns the instruction register a register field holds under
// the point's signature.
func (c *coder) reg(fl field) *isa.Reg {
	sig := c.pt.Sig
	switch fl {
	case regD:
		if sig.Op.IsCompare() {
			return &c.in.Rn
		}
		return &c.in.Rd
	case regN:
		return &c.in.Rn
	case narrowS:
		return &c.in.Rs
	case regM:
		if sig.Op == isa.MUL && sig.TwoOp {
			return &c.in.Rs
		}
	}
	return &c.in.Rm
}

// narrow codes a windowed register field of the given width: the
// register's window rank, or, for a register outside the window, code
// 0 with the register in an EXT payload. A field of 4 or more bits
// holds the register itself.
func (c *coder) narrow(r *isa.Reg, bits int) error {
	f := uint32(c.w) & (1<<bits - 1)
	switch {
	case bits >= 4:
		if c.dec {
			*r = isa.Reg(f)
		} else {
			c.w |= uint16(*r & 0xf)
		}
	case c.dec && c.n > 0:
		*r = isa.Reg(c.ext[c.n-1] & 0xf)
	case c.dec && int(f) >= len(c.sp.Window):
		return fmt.Errorf("fits: window code %d out of range", f)
	case c.dec:
		*r = c.sp.Window[f]
	default:
		if rank := c.sp.WindowRank(*r); rank >= 0 && rank < 1<<bits {
			c.w |= uint16(rank)
		} else {
			c.ext[0], c.n = uint32(*r), 1
		}
	}
	return nil
}

// value codes a value field of the given width through valueOf and
// setValue. Under a dictionary point the field is an index into the
// point's table, and a value the table lacks is carried raw behind at
// least one EXT prefix, which marks the field as raw bits.
func (c *coder) value(fl field, bits int) error {
	pt := c.pt
	if c.dec {
		var v uint32
		if f := uint32(c.w) & (1<<bits - 1); pt.ImmDict && c.n == 0 {
			if int(f) >= len(pt.Values) {
				return fmt.Errorf("fits: value index %d out of range for %q", f, pt.Sig)
			}
			v = uint32(pt.Values[f])
		} else {
			v = uint32(c.join(bits))
		}
		setValue(c.in, pt.Sig, fl, v)
		return nil
	}
	v, err := valueOf(c.in, fl)
	if err != nil {
		return err
	}
	if pt.ImmDict {
		for i, dv := range pt.Values {
			if uint32(dv) == v {
				c.w |= uint16(i)
				return nil
			}
		}
	}
	n := 0
	for rest := v >> bits; rest != 0; rest >>= c.sp.PayloadBits() {
		n++
	}
	if n > MaxExts {
		return &RewriteError{Reason: fmt.Sprintf("value %#x needs more than %d EXT prefixes", v, MaxExts)}
	}
	if pt.ImmDict && n == 0 {
		n = 1
	}
	c.split(uint64(v), bits, n)
	return nil
}

// disp codes a signed halfword branch displacement of the given inline
// width: the encoder gives it the fewest EXT payloads, at least pad,
// whose combined width holds it in two's complement.
func (c *coder) disp(bits int) error {
	pb := c.sp.PayloadBits()
	if c.dec {
		sh := 64 - (bits + c.n*pb)
		c.target = uint32(int64(c.addr) + 2*(int64(c.join(bits)<<sh)>>sh))
		return nil
	}
	d := (int64(c.target) - int64(c.addr)) / 2
	n := c.pad
	for ; n <= MaxExts; n++ {
		if w := bits + n*pb; d >= -1<<(w-1) && d < 1<<(w-1) {
			break
		}
	}
	if n > MaxExts {
		return &RewriteError{Reason: fmt.Sprintf("displacement %d needs more than %d EXT prefixes", d, MaxExts)}
	}
	c.split(uint64(d), bits, n)
	return nil
}

// split places the low bits of u in the variable field and the next
// n*PayloadBits bits in n EXT payloads, most significant first; join
// is its inverse.
func (c *coder) split(u uint64, bits, n int) {
	pb := c.sp.PayloadBits()
	c.w |= uint16(u & (1<<bits - 1))
	u >>= bits
	for i := n - 1; i >= 0; i-- {
		c.ext[i] = uint32(u & (1<<pb - 1))
		u >>= pb
	}
	c.n = n
}

func (c *coder) join(bits int) uint64 {
	var u uint64
	for _, e := range c.ext[:c.n] {
		u = u<<c.sp.PayloadBits() | uint64(e)
	}
	return u<<bits | uint64(c.w)&(1<<bits-1)
}
