// Package fits defines the synthesized 16-bit FITS instruction set: the
// instruction *signature* abstraction the synthesizer selects over, the
// Spec describing one application's synthesized ISA (opcode points,
// field widths, register window, immediate dictionary), and the
// bit-level encoder plus the programmable decoder.
//
// A FITS processor replaces fixed instruction and register decoding with
// programmable tables (the paper's Section 3). Here Spec *is* the
// content of those tables: Encode writes 16-bit words against a Spec and
// DecodeAt interprets them back into the semantic IR using only the
// table state. Both walk one declaration of each format's fields
// (layouts). The simulator times the translator's lowered program;
// preparation decodes every FITS image through DecodeAt and rejects one
// whose words do not encode that program.
package fits

import (
	"fmt"

	"powerfits/internal/isa"
)

// Signature identifies an instruction shape: everything about an
// instruction except its register numbers, immediate value and branch
// target. Each synthesized opcode point implements one signature; the
// synthesizer chooses which signatures earn a point (BIS ∪ SIS ∪ AIS).
type Signature struct {
	Op       isa.Op
	Cond     isa.Cond
	SetFlags bool

	// OperandImm selects the immediate form of an ALU/memory operand.
	OperandImm bool

	// Fused constant shift on the register operand of a non-MOV ALU op
	// (e.g. "add rd, rn, rm lsl #2" as one synthesized opcode).
	Shift    isa.Shift
	ShiftAmt uint8

	// ShiftInField marks a constant-shift MOV whose amount lives in the
	// operand field (the shift *instruction* family: lsl/lsr/asr/ror).
	ShiftInField bool

	// RegShift marks register-amount shifts (mov rd, rm lsl rs).
	RegShift bool

	// Mode is the memory addressing mode.
	Mode isa.AddrMode

	// NegOff marks memory signatures whose immediate offset is negative
	// (the field is magnitude-encoded).
	NegOff bool

	// TwoOp marks an ALU (or multiply) point encoded in two-operand
	// form (rd = rd <op> operand), trading the second source register
	// field for a wider literal or a full 4-bit operand register, per
	// the paper's Section 3.3.
	TwoOp bool

	// HasBase marks a memory point whose base register is synthesized
	// into the opcode itself (Base), freeing the base field for a wide
	// offset — the application-specific analogue of Thumb's SP-relative
	// forms.
	HasBase bool
	Base    isa.Reg
}

// SigOf computes the canonical signature of a semantic instruction.
// The TwoOp field is always false here: two-operand encoding is a
// synthesis decision applied via Signature.AsTwoOp.
func SigOf(in *isa.Instr) Signature {
	s := Signature{Op: in.Op, Cond: in.Cond, SetFlags: in.SetFlags}
	switch in.Op.Class() {
	case isa.ClassALU:
		if in.HasImm {
			s.OperandImm = true
			break
		}
		if in.RegShift {
			s.RegShift = true
			s.Shift = in.Shift
			break
		}
		if in.ShiftAmt != 0 {
			if in.Op == isa.MOV {
				// Shift instruction: amount goes in the field.
				s.ShiftInField = true
				s.Shift = in.Shift
			} else {
				// Fused shifted operand.
				s.Shift = in.Shift
				s.ShiftAmt = in.ShiftAmt
			}
		}
	case isa.ClassMem:
		s.Mode = in.Mode
		if in.Mode == isa.AMOffReg {
			// Register offset; a fused LSL amount distinguishes points.
			s.ShiftAmt = in.ShiftAmt
		} else {
			s.OperandImm = true
			if in.Imm < 0 {
				s.NegOff = true
			}
		}
	case isa.ClassLit:
		s.OperandImm = true
	case isa.ClassTrap:
		s.OperandImm = true
	}
	return s
}

// shape inverts SigOf: the instruction of signature s with zero
// registers and values, save the base register an implied-base point
// names.
func (s Signature) shape() isa.Instr {
	in := isa.Instr{Op: s.Op, Cond: s.Cond, SetFlags: s.SetFlags, Shift: s.Shift,
		ShiftAmt: s.ShiftAmt, RegShift: s.RegShift, Mode: s.Mode, TargetIdx: -1}
	if s.HasBase {
		in.Rn = s.Base
	}
	return in
}

// AsTwoOp returns the two-operand variant of an ALU signature.
func (s Signature) AsTwoOp() Signature {
	s.TwoOp = true
	return s
}

// AsBase returns the implied-base variant of a memory signature.
func (s Signature) AsBase(r isa.Reg) Signature {
	s.HasBase = true
	s.Base = r
	return s
}

// IsALU3 reports whether the signature is a three-operand ALU shape
// (eligible for the TwoOp decision).
func (s Signature) IsALU3() bool {
	if s.Op.Class() != isa.ClassALU {
		return false
	}
	switch s.Op {
	case isa.MOV, isa.MVN, isa.CLZ, isa.REV, isa.CMP, isa.CMN, isa.TST, isa.TEQ:
		return false
	}
	return true
}

// CanTwoOp reports whether the signature admits a two-operand variant
// (three-operand ALU shapes and plain multiplies).
func (s Signature) CanTwoOp() bool {
	return s.IsALU3() || (s.Op == isa.MUL && !s.TwoOp)
}

// CanBase reports whether the signature admits an implied-base variant.
func (s Signature) CanBase() bool {
	return s.Op.Class() == isa.ClassMem && s.Mode != isa.AMOffReg && !s.HasBase
}

// Key returns a total-order sort key covering every Signature field.
// String elides synthesis-only distinctions (TwoOp on shifted-operand
// points, the offset sign of post-indexed memory points), so two
// distinct signatures can render identically; sorting map-collected
// signatures by String alone then depends on map iteration order and
// makes opcode numbering — and therefore the encoded image bytes —
// vary run to run. Key is injective, so it pins those ties.
func (s Signature) Key() string {
	return fmt.Sprintf("%d.%d.%t.%t.%d.%d.%t.%t.%d.%t.%t.%t.%d",
		s.Op, s.Cond, s.SetFlags, s.OperandImm, s.Shift, s.ShiftAmt,
		s.ShiftInField, s.RegShift, s.Mode, s.NegOff, s.TwoOp, s.HasBase, s.Base)
}

// String renders the signature compactly, e.g. "addeq.s r,r lsl#2" or
// "ldrb [r,#]".
func (s Signature) String() string {
	out := s.Op.String() + s.Cond.String()
	if s.SetFlags {
		out += ".s"
	}
	switch s.Op.Class() {
	case isa.ClassALU:
		switch {
		case s.OperandImm && s.TwoOp:
			out += " rd,#lit"
		case s.OperandImm:
			out += " r,#"
		case s.RegShift:
			out += fmt.Sprintf(" r,r %s r", s.Shift)
		case s.ShiftInField:
			out += fmt.Sprintf(" r,r %s #", s.Shift)
		case s.ShiftAmt != 0:
			out += fmt.Sprintf(" r,r %s#%d", s.Shift, s.ShiftAmt)
		case s.TwoOp:
			out += " rd,r"
		default:
			out += " r,r"
		}
	case isa.ClassMem:
		base := "r"
		if s.HasBase {
			base = s.Base.String()
		}
		switch s.Mode {
		case isa.AMOffReg:
			if s.ShiftAmt != 0 {
				out += fmt.Sprintf(" [r,r lsl#%d]", s.ShiftAmt)
			} else {
				out += " [r,r]"
			}
		case isa.AMPostImm:
			out += " [" + base + "],#"
		default:
			if s.NegOff {
				out += " [" + base + ",-#]"
			} else {
				out += " [" + base + ",#]"
			}
		}
	case isa.ClassMul:
		if s.TwoOp {
			out += " rd,r"
		}
	}
	return out
}
