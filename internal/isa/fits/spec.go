package fits

import (
	"fmt"

	"powerfits/internal/isa"
)

// PointKind distinguishes the roles an opcode point can play.
type PointKind uint8

const (
	// PointFree marks an unassigned opcode value.
	PointFree PointKind = iota
	// PointExt is the EXT prefix (always present; the SIS anchor that
	// makes every instruction expressible).
	PointExt
	// PointSig implements one instruction signature.
	PointSig
)

// Point is one entry of the programmable instruction decoder.
type Point struct {
	Kind PointKind
	Sig  Signature // valid when Kind == PointSig

	// ImmDict marks the point's value field as an index into Values —
	// the paper's utilization-based immediate encoding ("replacing the
	// instruction immediate with an index into the immediate storage").
	// Values it cannot index are carried raw by EXT prefixes.
	ImmDict bool
	// Values is the point's programmable value table (≤ 2^fieldBits
	// entries), interpreted per format (immediate, scaled offset,
	// shift amount, register list, constant).
	Values []int32
}

// Format names the 16-bit field layout of an opcode point; layouts
// declares each one.
type Format uint8

const (
	FmtExt      Format = iota // EXT prefix
	FmtALU3Reg                // rd = rn op rm (rm windowed)
	FmtALU3Imm                // rd = rn op imm
	FmtALU2Reg                // rd = rd op rm, unary, compare, two-operand mul
	FmtALU2Imm                // rd = rd op lit, mov/compare with a literal
	FmtShift                  // rd = rm shifted by a constant amount
	FmtRegShift               // rd = rm shifted by rs (rs windowed)
	FmtMul                    // rd = rm * rs (+ rd for MLA; rs windowed)
	FmtMemImm                 // [rn, #off] (scaled)
	FmtMemReg                 // [rn, rm] (rm windowed)
	FmtMemWide                // [base, #off] (implied base, scaled)
	FmtLdc                    // rd = constant
	FmtStack                  // push/pop of a canonical list
	FmtBranch                 // signed halfword displacement
	FmtBX                     // bx rm
	FmtTrap                   // swi #num
)

// field is one field of a format's word after the opcode. Register
// fields are 4 bits wide; a format's last field may instead be a
// variable one (windowed register, value or displacement), which takes
// the rest of the word.
type field uint8

const (
	regD field = iota // Rd (Rn of a compare)
	regN              // Rn
	regM              // Rm (Rs of a two-operand MUL)

	narrowM   // Rm by window rank; an EXT payload carries any other register
	narrowS   // Rs, likewise
	valImm    // value: immediate operand, literal or trap number
	valShift  // value: shift amount
	valOffset // value: memory offset magnitude in access-size units
	valList   // value: canonical PUSH/POP register list
	disp      // signed branch displacement in halfwords
	payload   // an EXT prefix's payload
)

// layouts declares each format's fields in word order after the
// opcode. The encoder, the padded branch encoder and the programmable
// decoder all walk it (coder.walk), and FieldBits, HasValueField and
// ValueOf read it.
var layouts = [...][]field{
	FmtExt:      {payload},
	FmtALU3Reg:  {regD, regN, narrowM},
	FmtALU3Imm:  {regD, regN, valImm},
	FmtALU2Reg:  {regD, regM},
	FmtALU2Imm:  {regD, valImm},
	FmtShift:    {regD, regM, valShift},
	FmtRegShift: {regD, regM, narrowS},
	FmtMul:      {regD, regM, narrowS},
	FmtMemImm:   {regD, regN, valOffset},
	FmtMemReg:   {regD, regN, narrowM},
	FmtMemWide:  {regD, valOffset},
	FmtLdc:      {regD, valImm},
	FmtStack:    {valList},
	FmtBranch:   {disp},
	FmtBX:       {regM},
	FmtTrap:     {valImm},
}

// tail returns a format's variable field and its width under opcode
// width k; ok is false when every field is a 4-bit register.
func tail(f Format, k int) (fl field, bits int, ok bool) {
	bits = 16 - k
	for _, fl := range layouts[f] {
		if fl > regM {
			return fl, bits, true
		}
		bits -= 4
	}
	return 0, 0, false
}

// FormatOf returns the field layout a signature's point uses.
func FormatOf(s Signature) Format {
	switch s.Op.Class() {
	case isa.ClassALU:
		switch {
		case s.RegShift:
			return FmtRegShift
		case s.ShiftInField:
			return FmtShift
		}
		switch s.Op {
		case isa.MOV, isa.MVN, isa.CLZ, isa.REV:
			if s.OperandImm {
				return FmtALU2Imm
			}
			return FmtALU2Reg
		case isa.CMP, isa.CMN, isa.TST, isa.TEQ:
			if s.OperandImm {
				return FmtALU2Imm
			}
			return FmtALU2Reg
		}
		switch {
		case s.TwoOp && s.OperandImm:
			return FmtALU2Imm
		case s.TwoOp:
			return FmtALU2Reg
		case s.OperandImm:
			return FmtALU3Imm
		default:
			return FmtALU3Reg
		}
	case isa.ClassMul:
		if s.TwoOp {
			return FmtALU2Reg
		}
		return FmtMul
	case isa.ClassMem:
		if s.Mode == isa.AMOffReg {
			return FmtMemReg
		}
		if s.HasBase {
			return FmtMemWide
		}
		return FmtMemImm
	case isa.ClassLit:
		return FmtLdc
	case isa.ClassStack:
		return FmtStack
	case isa.ClassBranch:
		if s.Op == isa.BX {
			return FmtBX
		}
		return FmtBranch
	case isa.ClassTrap:
		return FmtTrap
	}
	return FmtExt
}

// MaxExts is the maximum EXT prefixes per instruction; with it, any
// 32-bit immediate is expressible, bounding the paper's 1-to-n mapping
// at n = 4.
const MaxExts = 3

// Spec is one application's synthesized instruction set: the contents
// of the programmable instruction decoder (opcode points with their
// per-point value tables) and the register window for narrow operand
// fields.
type Spec struct {
	Name string

	// K is the opcode field width in bits (4..6).
	K int

	// Points maps opcode values (index) to their roles. len == 1<<K.
	Points []Point

	// Window ranks physical registers for the narrow (windowed)
	// operand fields; field value i decodes to Window[i].
	Window []isa.Reg

	pointOf    map[Signature]int
	windowRank [isa.NumRegs]int8
	extPoint   int
	ldcPoint   int
}

// MinK and MaxK bound the opcode-width search.
const (
	MinK = 4
	MaxK = 6
)

// FieldBits returns the width of the variable field of a format under
// opcode width k (0 when every field is a 4-bit register).
func FieldBits(f Format, k int) int {
	_, bits, _ := tail(f, k)
	return bits
}

// HasValueField reports whether the format carries an immediate-like
// value (and thus supports per-point dictionary mode).
func HasValueField(f Format) bool {
	fl, _, ok := tail(f, MinK)
	return ok && fl >= valImm && fl <= valList
}

// NewSpec assembles and validates a Spec. One point must be the EXT
// prefix and one must implement the plain LDC signature (together they
// make every instruction expressible). window lists the ranked
// registers for narrow fields (may be empty when every register field
// is 4 bits wide, i.e. K == 4).
func NewSpec(name string, k int, points []Point, window []isa.Reg) (*Spec, error) {
	if k < MinK || k > MaxK {
		return nil, fmt.Errorf("fits: opcode width %d outside [%d,%d]", k, MinK, MaxK)
	}
	if len(points) > 1<<k {
		return nil, fmt.Errorf("fits: %d points exceed 2^%d", len(points), k)
	}
	sp := &Spec{
		Name:     name,
		K:        k,
		Points:   make([]Point, 1<<k),
		Window:   window,
		pointOf:  make(map[Signature]int),
		extPoint: -1,
		ldcPoint: -1,
	}
	copy(sp.Points, points)
	for i := range sp.Points {
		pt := &sp.Points[i]
		switch pt.Kind {
		case PointExt:
			if sp.extPoint >= 0 {
				return nil, fmt.Errorf("fits: duplicate EXT point")
			}
			sp.extPoint = i
		case PointSig:
			if _, dup := sp.pointOf[pt.Sig]; dup {
				return nil, fmt.Errorf("fits: duplicate point for %q", pt.Sig)
			}
			sp.pointOf[pt.Sig] = i
			f := FormatOf(pt.Sig)
			if pt.Sig == LdcSig() {
				sp.ldcPoint = i
			}
			if pt.ImmDict && !HasValueField(f) {
				return nil, fmt.Errorf("fits: point %q cannot use dictionary mode", pt.Sig)
			}
			if max := 1 << FieldBits(f, k); pt.ImmDict && len(pt.Values) > max {
				return nil, fmt.Errorf("fits: point %q value table of %d exceeds %d-entry index", pt.Sig, len(pt.Values), max)
			}
			if !pt.ImmDict && len(pt.Values) > 0 {
				return nil, fmt.Errorf("fits: point %q has values but inline mode", pt.Sig)
			}
			seen := map[int32]bool{}
			for _, v := range pt.Values {
				if seen[v] {
					return nil, fmt.Errorf("fits: point %q duplicates value %d", pt.Sig, v)
				}
				seen[v] = true
			}
		}
	}
	if sp.extPoint < 0 {
		return nil, fmt.Errorf("fits: spec lacks the EXT point")
	}
	if sp.ldcPoint < 0 {
		return nil, fmt.Errorf("fits: spec lacks the LDC point (SIS incomplete)")
	}
	for i := range sp.windowRank {
		sp.windowRank[i] = -1
	}
	for rank, r := range window {
		if !r.Valid() {
			return nil, fmt.Errorf("fits: invalid window register %d", r)
		}
		if sp.windowRank[r] >= 0 {
			return nil, fmt.Errorf("fits: register %s ranked twice", r)
		}
		sp.windowRank[r] = int8(rank)
	}
	return sp, nil
}

// LdcSig returns the canonical literal-load signature.
func LdcSig() Signature {
	return Signature{Op: isa.LDC, Cond: isa.AL, OperandImm: true}
}

// ---- Field geometry ----

// PayloadBits is the EXT payload width.
func (sp *Spec) PayloadBits() int { return 16 - sp.K }

// HasPoint reports whether the signature has its own opcode point.
func (sp *Spec) HasPoint(s Signature) bool {
	_, ok := sp.pointOf[s]
	return ok
}

// WindowRank returns the narrow-field code of a register, or -1 when
// the register is outside the window.
func (sp *Spec) WindowRank(r isa.Reg) int { return int(sp.windowRank[r]) }

// UsedPoints counts assigned opcode values.
func (sp *Spec) UsedPoints() int {
	n := 0
	for _, p := range sp.Points {
		if p.Kind != PointFree {
			n++
		}
	}
	return n
}

// DictEntries counts value-table entries across all points (the total
// programmable immediate storage).
func (sp *Spec) DictEntries() int {
	n := 0
	for _, p := range sp.Points {
		n += len(p.Values)
	}
	return n
}

// canonicalStackList packs a PUSH/POP register list into the canonical
// FITS layout: bit 0 = LR, bit i+1 = r_i for i in 0..10. Registers
// outside {r0..r10, lr} are not expressible.
func canonicalStackList(list uint16) (uint16, error) {
	if list&^uint16(1<<isa.LR|0x07ff) != 0 {
		return 0, fmt.Errorf("fits: stack list %#04x uses registers outside r0-r10/lr", list)
	}
	out := list & 0x07ff << 1
	if list&(1<<isa.LR) != 0 {
		out |= 1
	}
	return out, nil
}

// expandStackList inverts canonicalStackList.
func expandStackList(c uint16) uint16 {
	out := c >> 1 & 0x07ff
	if c&1 != 0 {
		out |= 1 << isa.LR
	}
	return out
}
