// Package asmfuzz turns fuzzer input into builder programs for the fuzz
// targets that assemble, execute or time them.
package asmfuzz

import (
	"powerfits/internal/asm"
	"powerfits/internal/isa"
)

// MaxOps is the most instructions Body emits.
const MaxOps = 16

// Body emits one instruction per 4-byte group of raw, at most MaxOps:
// register-register and immediate ALU ops, shifts, multiplies, compares,
// predicated moves, and byte loads and stores through r1. Operands name
// r0–r10 only, so r11 and r12 are free for the caller's own control
// flow. r1 should point at a 256-byte buffer; a body that moves r1 may
// fault, which is a clean simulator error.
func Body(b *asm.Builder, raw []byte) {
	for i := 0; i+4 <= len(raw) && i < 4*MaxOps; i += 4 {
		op, a, c, d := raw[i], raw[i+1], raw[i+2], raw[i+3]
		rd := isa.Reg(a % 11)
		rn := isa.Reg(c % 11)
		imm := int32(d)
		switch op % 8 {
		case 0:
			b.AddI(rd, rn, imm)
		case 1:
			b.Eor(rd, rn, isa.Reg(d%11))
		case 2:
			b.Lsr(rd, rn, d%32)
		case 3:
			b.Ldrb(rd, isa.R1, imm%250)
		case 4:
			b.Strb(rd, isa.R1, imm%250)
		case 5:
			b.Mul(rd, rn, isa.Reg(d%11))
		case 6:
			b.CmpI(rn, imm)
		default:
			b.MovIIf(isa.Cond(d%14), rd, imm)
		}
	}
}
