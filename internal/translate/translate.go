// Package translate implements the ARM→FITS binary translation: each
// semantic instruction is lowered to one FITS instruction when its
// signature has a synthesized opcode point and its operands fit (the
// 1:1 mapping the paper measures in Figures 3–4), or rewritten into a
// short sequence of synthesized instructions otherwise (the 1:n mapping,
// n ≤ 4). A fix-point layout pass then resolves branch displacements and
// emits the 16-bit image.
//
// Rewrites follow the paper's completeness argument (BIS ∪ SIS can
// emulate anything): wide immediates/displacements take EXT prefixes;
// two-operand points absorb three-operand instances via a move (or a
// commutative swap); predication is recreated with an inverse
// conditional skip; addressing-mode gaps are bridged through the IP
// scratch register (r12), which kernels treat as clobberable, matching
// the ARM procedure-call standard.
package translate

import (
	"fmt"

	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
)

// Scratch is the register rewrites may clobber (ARM's IP role).
const Scratch = isa.R12

// maxLowerDepth bounds rewrite recursion.
const maxLowerDepth = 5

// lowered is one output instruction of lowering, with branch-target
// bookkeeping: TargetIdx (when ≥ 0) refers to an *original* instruction
// index; skipToEnd branches jump past the end of this original
// instruction's whole sequence.
type lowered struct {
	in        isa.Instr
	skipToEnd bool
}

// Counter counts lowering lengths while recycling a single scratch
// buffer. The SIS closure calls it once per instruction per interim
// spec, where a fresh slice per call dominates synthesis allocation.
// A Counter is not safe for concurrent use.
type Counter struct{ buf []lowered }

// Count returns the number of FITS instructions in's lowering produces.
func (c *Counter) Count(in *isa.Instr, spec *fits.Spec) (int, error) {
	seq, err := lowerOne(c.buf[:0], in, spec, 0)
	if seq != nil {
		c.buf = seq[:0] // keep the grown capacity for the next call
	}
	if err != nil {
		return 0, err
	}
	return len(seq), nil
}

func commutative(op isa.Op) bool {
	switch op {
	case isa.ADD, isa.ADC, isa.AND, isa.ORR, isa.EOR, isa.QADD, isa.MIN, isa.MAX:
		return true
	}
	return false
}

// lowerOne appends in's lowering to dst and returns the extended slice
// (append semantics: callers must use the return value). On error the
// returned slice is nil; any elements a failed attempt wrote beyond
// dst's original length are dead capacity the caller never observes.
// A *fits.NoPointError it returns names a signature the synthesizer
// must add for completeness (SIS closure).
func lowerOne(dst []lowered, in *isa.Instr, spec *fits.Spec, depth int) ([]lowered, error) {
	if depth > maxLowerDepth {
		// in.String() rather than in: passing the pointer to Errorf would
		// force every rewrite template anywhere in the call tree to heap.
		return nil, fmt.Errorf("translate: rewrite recursion overflow at %s", in.String())
	}
	if in.Op == isa.NOP {
		return nil, fmt.Errorf("translate: NOP has no FITS lowering (kernels must not emit it)")
	}
	if in.Op == isa.LDC {
		if spec.Expressible(in) {
			return append(dst, lowered{in: *in}), nil
		}
		return nil, &fits.NoPointError{Sig: fits.LdcSig()}
	}

	sig := fits.SigOf(in)

	// 1. Any opcode point (exact, two-operand or implied-base) that
	// expresses the instruction directly, EXT prefixes included.
	if spec.Expressible(in) {
		return append(dst, lowered{in: *in}), nil
	}

	// 2. Two-operand point variants for three-operand ALU shapes.
	if sig.IsALU3() {
		if seq, ok := lowerViaTwoOp(dst, in, sig, spec, depth); ok {
			return seq, nil
		}
	}

	// 3. Predication: inverse-condition skip + unpredicated body.
	if in.Cond != isa.AL && in.Op != isa.BC {
		skip := isa.Instr{Op: isa.BC, Cond: in.Cond.Inverse(), TargetIdx: -1}
		if !spec.HasPoint(fits.SigOf(&skip)) {
			return nil, &fits.NoPointError{Sig: fits.SigOf(&skip)}
		}
		body := *in
		body.Cond = isa.AL
		return lowerOne(append(dst, lowered{in: skip, skipToEnd: true}), &body, spec, depth+1)
	}

	// 4. Class-specific rewrites.
	switch in.Op.Class() {
	case isa.ClassALU:
		return lowerALU(dst, in, sig, spec, depth)
	case isa.ClassMul:
		return lowerMul(dst, in, sig, spec, depth)
	case isa.ClassMem:
		return lowerMem(dst, in, sig, spec, depth)
	case isa.ClassBranch:
		if in.Op == isa.BC {
			// Inverse-skip plus an unconditional branch.
			skip := isa.Instr{Op: isa.BC, Cond: in.Cond.Inverse(), TargetIdx: -1}
			b := isa.Instr{Op: isa.B, Cond: isa.AL, TargetIdx: in.TargetIdx}
			if !spec.HasPoint(fits.SigOf(&skip)) {
				return nil, &fits.NoPointError{Sig: fits.SigOf(&skip)}
			}
			if !spec.HasPoint(fits.SigOf(&b)) {
				return nil, &fits.NoPointError{Sig: fits.SigOf(&b)}
			}
			return append(dst, lowered{in: skip, skipToEnd: true}, lowered{in: b}), nil
		}
	}
	return nil, &fits.NoPointError{Sig: sig}
}

// lowerViaTwoOp tries the two-operand point for a three-operand
// instance. Reports ok=false when no two-operand point exists.
func lowerViaTwoOp(dst []lowered, in *isa.Instr, sig fits.Signature, spec *fits.Spec, depth int) ([]lowered, bool) {
	two := sig.AsTwoOp()
	if !spec.HasPoint(two) {
		return nil, false
	}
	if in.Rd == in.Rn {
		return append(dst, lowered{in: *in}), true // Encode picks the two-op form
	}
	clobbers := !sig.OperandImm && (in.Rd == in.Rm || (sig.RegShift && in.Rd == in.Rs))
	if clobbers {
		if commutative(in.Op) && in.Rd == in.Rm && sig.ShiftAmt == 0 && !sig.RegShift {
			// rd = rm op rn: swap sources, still one instruction.
			sw := *in
			sw.Rn, sw.Rm = in.Rm, in.Rn
			return append(dst, lowered{in: sw}), true
		}
		// Copying rn into rd would destroy a source: go through scratch.
		mov1 := isa.Instr{Op: isa.MOV, Cond: in.Cond, Rd: Scratch, Rm: in.Rn, TargetIdx: -1}
		body := *in
		body.Rd, body.Rn = Scratch, Scratch
		mov2 := isa.Instr{Op: isa.MOV, Cond: in.Cond, Rd: in.Rd, Rm: Scratch, TargetIdx: -1}
		if seq, err := lowerThree(dst, spec, depth, mov1, body, mov2); err == nil {
			return seq, true
		}
		return nil, false
	}
	// General case: copy rn into rd, then operate in place.
	mov := isa.Instr{Op: isa.MOV, Cond: in.Cond, Rd: in.Rd, Rm: in.Rn, TargetIdx: -1}
	body := *in
	body.Rn = in.Rd
	if seq, err := lowerTwo(dst, spec, depth, mov, body); err == nil {
		return seq, true
	}
	return nil, false
}

// lowerTwo and lowerThree lower short fixed sequences. Fixed arity (by
// value, no variadic slice) keeps the rewrite templates off the heap.
func lowerTwo(dst []lowered, spec *fits.Spec, depth int, a, b isa.Instr) ([]lowered, error) {
	dst, err := lowerOne(dst, &a, spec, depth+1)
	if err != nil {
		return nil, err
	}
	return lowerOne(dst, &b, spec, depth+1)
}

func lowerThree(dst []lowered, spec *fits.Spec, depth int, a, b, c isa.Instr) ([]lowered, error) {
	dst, err := lowerTwo(dst, spec, depth, a, b)
	if err != nil {
		return nil, err
	}
	return lowerOne(dst, &c, spec, depth+1)
}

func lowerALU(dst []lowered, in *isa.Instr, sig fits.Signature, spec *fits.Spec, depth int) ([]lowered, error) {
	// Immediate form without a point: materialise the constant and use
	// the register form.
	if sig.OperandImm && sig.IsALU3() {
		ldc := isa.Instr{Op: isa.LDC, Cond: isa.AL, Rd: Scratch, Imm: in.Imm, HasImm: true, TargetIdx: -1}
		body := *in
		body.HasImm = false
		body.Imm = 0
		body.Rm = Scratch
		return lowerTwo(dst, spec, depth, ldc, body)
	}
	// Fused constant shift without a point: explicit shift, then the
	// plain register form.
	if !sig.OperandImm && sig.ShiftAmt != 0 && !sig.ShiftInField {
		sh := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: Scratch, Rm: in.Rm,
			Shift: in.Shift, ShiftAmt: in.ShiftAmt, TargetIdx: -1}
		body := *in
		body.Rm = Scratch
		body.Shift = isa.LSL
		body.ShiftAmt = 0
		return lowerTwo(dst, spec, depth, sh, body)
	}
	// Compares with immediates: materialise and compare registers.
	if sig.OperandImm && in.Op.IsCompare() {
		ldc := isa.Instr{Op: isa.LDC, Cond: isa.AL, Rd: Scratch, Imm: in.Imm, HasImm: true, TargetIdx: -1}
		body := *in
		body.HasImm = false
		body.Imm = 0
		body.Rm = Scratch
		return lowerTwo(dst, spec, depth, ldc, body)
	}
	// MOV/MVN immediate without a point: LDC (possibly inverted).
	if sig.OperandImm && (in.Op == isa.MOV || in.Op == isa.MVN) && !in.SetFlags {
		v := in.Imm
		if in.Op == isa.MVN {
			v = ^v
		}
		ldc := isa.Instr{Op: isa.LDC, Cond: isa.AL, Rd: in.Rd, Imm: v, HasImm: true, TargetIdx: -1}
		return lowerOne(dst, &ldc, spec, depth+1)
	}
	return nil, &fits.NoPointError{Sig: sig}
}

func lowerMul(dst []lowered, in *isa.Instr, sig fits.Signature, spec *fits.Spec, depth int) ([]lowered, error) {
	if in.Op == isa.MUL {
		two := sig.AsTwoOp()
		if spec.HasPoint(two) {
			if in.Rd == in.Rs && in.Rd != in.Rm {
				// Commute so the destination matches the first source.
				sw := *in
				sw.Rm, sw.Rs = in.Rs, in.Rm
				return append(dst, lowered{in: sw}), nil
			}
			if in.Rd != in.Rm && in.Rd != in.Rs {
				mov := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: in.Rd, Rm: in.Rm, TargetIdx: -1}
				body := *in
				body.Rm = in.Rd
				return lowerTwo(dst, spec, depth, mov, body)
			}
		}
		return nil, &fits.NoPointError{Sig: sig}
	}
	if in.Op == isa.MLA {
		mlaSig := sig
		if spec.HasPoint(mlaSig) && in.Rd != in.Rn {
			// The 16-bit MLA accumulates in place; restructure.
			if in.Rd != in.Rm && in.Rd != in.Rs {
				mov := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: in.Rd, Rm: in.Rn, TargetIdx: -1}
				body := *in
				body.Rn = in.Rd
				return lowerTwo(dst, spec, depth, mov, body)
			}
			mov1 := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: Scratch, Rm: in.Rn, TargetIdx: -1}
			body := *in
			body.Rd, body.Rn = Scratch, Scratch
			mov2 := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: in.Rd, Rm: Scratch, TargetIdx: -1}
			return lowerThree(dst, spec, depth, mov1, body, mov2)
		}
		// No MLA point: multiply into scratch and add.
		mul := isa.Instr{Op: isa.MUL, Cond: isa.AL, Rd: Scratch, Rm: in.Rm, Rs: in.Rs, TargetIdx: -1}
		add := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: in.Rd, Rn: in.Rn, Rm: Scratch, TargetIdx: -1}
		return lowerTwo(dst, spec, depth, mul, add)
	}
	return nil, &fits.NoPointError{Sig: sig}
}

// memOffsetExpressible reports whether an immediate-offset access fits
// the scaled-magnitude field scheme (offset a multiple of the access
// size; EXT covers any magnitude).
func memOffsetExpressible(in *isa.Instr) bool {
	if in.Mode == isa.AMOffReg {
		return true
	}
	mag := in.Imm
	if mag < 0 {
		mag = -mag
	}
	return int(mag)%in.Op.MemSize() == 0
}

func lowerMem(dst []lowered, in *isa.Instr, sig fits.Signature, spec *fits.Spec, depth int) ([]lowered, error) {
	switch in.Mode {
	case isa.AMOffReg:
		// Compute the address explicitly, then use the plain form.
		add := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: Scratch, Rn: in.Rn, Rm: in.Rm,
			Shift: isa.LSL, ShiftAmt: in.ShiftAmt, TargetIdx: -1}
		body := *in
		body.Mode = isa.AMOffImm
		body.Rn = Scratch
		body.Rm = 0
		body.ShiftAmt = 0
		body.Imm = 0
		return lowerTwo(dst, spec, depth, add, body)
	case isa.AMPostImm:
		if in.Op.IsLoad() && in.Rd == in.Rn {
			return nil, fmt.Errorf("translate: post-indexed load with rd == rn is unpredictable: %s", in.String())
		}
		body := *in
		body.Mode = isa.AMOffImm
		body.Imm = 0
		adj := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: in.Rn, Rn: in.Rn, Imm: in.Imm, HasImm: true, TargetIdx: -1}
		if in.Imm < 0 {
			adj.Op = isa.SUB
			adj.Imm = -in.Imm
		}
		return lowerTwo(dst, spec, depth, body, adj)
	default: // AMOffImm
		if sig.NegOff {
			sub := isa.Instr{Op: isa.SUB, Cond: isa.AL, Rd: Scratch, Rn: in.Rn, Imm: -in.Imm, HasImm: true, TargetIdx: -1}
			body := *in
			body.Rn = Scratch
			body.Imm = 0
			return lowerTwo(dst, spec, depth, sub, body)
		}
		if !memOffsetExpressible(in) {
			add := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: Scratch, Rn: in.Rn, Imm: in.Imm, HasImm: true, TargetIdx: -1}
			body := *in
			body.Rn = Scratch
			body.Imm = 0
			return lowerTwo(dst, spec, depth, add, body)
		}
	}
	return nil, &fits.NoPointError{Sig: sig}
}
