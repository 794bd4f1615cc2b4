// Package arm encodes and decodes the 32-bit ARM-subset baseline ISA.
//
// The encoding is bit-compatible with classic ARM for the subset the
// kernels use (data processing, multiply, single and halfword transfers,
// block transfers restricted to push/pop, branches, SWI). The datapath
// extensions the FITS microarchitecture over-provisions (QADD, QSUB, CLZ,
// REV, MIN, MAX) are placed in the otherwise-unused 0xE coprocessor
// space and documented as "extended ARM".
//
// LDC literal loads are realised exactly as compilers do on ARM: a
// PC-relative LDR into a per-function literal pool appended after the
// function body. Pools occupy text bytes (and therefore I-cache space),
// which matters to the experiments.
package arm

import (
	"encoding/binary"
	"fmt"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// InstrBytes is the fixed encoding width of one ARM instruction.
const InstrBytes = 4

// dpOpcode maps IR ALU ops onto the ARM data-processing opcode nibble.
var dpOpcode = map[isa.Op]uint32{
	isa.AND: 0x0, isa.EOR: 0x1, isa.SUB: 0x2, isa.RSB: 0x3,
	isa.ADD: 0x4, isa.ADC: 0x5, isa.SBC: 0x6,
	isa.TST: 0x8, isa.TEQ: 0x9, isa.CMP: 0xa, isa.CMN: 0xb,
	isa.ORR: 0xc, isa.MOV: 0xd, isa.BIC: 0xe, isa.MVN: 0xf,
}

var dpOpcodeRev = func() map[uint32]isa.Op {
	m := make(map[uint32]isa.Op, len(dpOpcode))
	for op, n := range dpOpcode {
		m[n] = op
	}
	return m
}()

// extSub maps datapath-extension ops to their sub-opcode in the 0xE
// extended space.
var extSub = map[isa.Op]uint32{
	isa.QADD: 0, isa.QSUB: 1, isa.CLZ: 2, isa.REV: 3, isa.MIN: 4, isa.MAX: 5,
}

var extSubRev = func() map[uint32]isa.Op {
	m := make(map[uint32]isa.Op, len(extSub))
	for op, n := range extSub {
		m[n] = op
	}
	return m
}()

// EncodableImm reports whether v is expressible as an ARM rotated
// immediate (an 8-bit value rotated right by an even amount) and returns
// the rotation/value pair that encodes it.
func EncodableImm(v uint32) (rot, imm8 uint32, ok bool) {
	for r := uint32(0); r < 16; r++ {
		// value = imm8 ROR (2*r)  =>  imm8 = value ROL (2*r)
		x := v<<(2*r) | v>>(32-2*r)
		if 2*r == 0 {
			x = v
		}
		if x <= 0xff {
			return r, x, true
		}
	}
	return 0, 0, false
}

// pcOffset is the ARM fetch-ahead: reading PC yields the instruction
// address plus 8.
const pcOffset = 8

// Assemble lowers a validated program to its 32-bit ARM image: four
// bytes per instruction plus per-function literal pools.
func Assemble(p *program.Program) (*program.Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Instrs)
	im := &program.Image{
		TextBase:  p.TextBase,
		InstrAddr: make([]uint32, n),
		InstrSize: make([]uint8, n),
	}

	// Pass 1: layout. Each instruction is 4 bytes; after each function,
	// a pool holding that function's unique literal constants.
	type poolKey struct {
		fn  int
		val int32
	}
	poolAddr := make(map[poolKey]uint32)
	addr := p.TextBase
	var poolBytes int
	for fi, f := range p.Funcs {
		for i := f.Start; i < f.End; i++ {
			im.InstrAddr[i] = addr
			im.InstrSize[i] = InstrBytes
			addr += InstrBytes
		}
		// Collect unique literals in authoring order.
		for i := f.Start; i < f.End; i++ {
			in := &p.Instrs[i]
			if in.Op != isa.LDC {
				continue
			}
			k := poolKey{fi, in.Imm}
			if _, dup := poolAddr[k]; !dup {
				poolAddr[k] = addr
				addr += 4
				poolBytes += 4
			}
		}
	}
	size := int(addr - p.TextBase)
	im.Text = make([]byte, size)
	im.PoolBytes = poolBytes

	// Pass 2: encode.
	fnOf := make([]int, n)
	for fi, f := range p.Funcs {
		for i := f.Start; i < f.End; i++ {
			fnOf[i] = fi
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		a := im.InstrAddr[i]
		var lit, target uint32
		if in.Op == isa.LDC {
			lit = poolAddr[poolKey{fnOf[i], in.Imm}]
		}
		if in.Op.IsBranch() && in.Op != isa.BX {
			target = im.InstrAddr[in.TargetIdx]
		}
		w, err := EncodeInstr(in, a, lit, target)
		if err != nil {
			return nil, fmt.Errorf("arm: %s: instr %d (%s): %w", p.Name, i, in, err)
		}
		binary.LittleEndian.PutUint32(im.Text[a-p.TextBase:], w)
	}
	// Write pool words.
	for k, a := range poolAddr {
		binary.LittleEndian.PutUint32(im.Text[a-p.TextBase:], uint32(k.val))
	}
	return im, nil
}

// EncodeInstr encodes one instruction located at addr. litAddr is the
// literal-pool slot for LDC; targetAddr the resolved branch target.
func EncodeInstr(in *isa.Instr, addr, litAddr, targetAddr uint32) (uint32, error) {
	cond := uint32(in.Cond) << 28
	s := uint32(0)
	if in.SetFlags {
		s = 1 << 20
	}

	switch in.Op {
	case isa.NOP:
		// Canonical NOP: MOV r0, r0.
		return cond | 0xd<<21 | 0<<12 | 0, nil

	case isa.ADD, isa.ADC, isa.SUB, isa.SBC, isa.RSB, isa.AND, isa.ORR,
		isa.EOR, isa.BIC, isa.MOV, isa.MVN, isa.CMP, isa.CMN, isa.TST, isa.TEQ:
		w := cond | dpOpcode[in.Op]<<21 | s
		if in.Op.IsCompare() {
			w |= 1 << 20 // compares always set flags
			w |= uint32(in.Rn) << 16
		} else if in.Op != isa.MOV && in.Op != isa.MVN {
			w |= uint32(in.Rn) << 16
		}
		if in.Op.WritesRd() {
			w |= uint32(in.Rd) << 12
		}
		op2, err := encodeOperand2(in)
		if err != nil {
			return 0, err
		}
		return w | op2, nil

	case isa.MUL:
		return cond | s | uint32(in.Rd)<<16 | uint32(in.Rs)<<8 | 0x9<<4 | uint32(in.Rm), nil
	case isa.MLA:
		return cond | 1<<21 | s | uint32(in.Rd)<<16 | uint32(in.Rn)<<12 | uint32(in.Rs)<<8 | 0x9<<4 | uint32(in.Rm), nil

	case isa.QADD, isa.QSUB, isa.CLZ, isa.REV, isa.MIN, isa.MAX:
		return cond | 0xE<<24 | extSub[in.Op]<<20 | uint32(in.Rn)<<16 |
			uint32(in.Rd)<<12 | uint32(in.Rs)<<8 | uint32(in.Rm), nil

	case isa.LDR, isa.LDRB, isa.STR, isa.STRB:
		return encodeWordByte(in, cond)

	case isa.LDRH, isa.LDRSB, isa.LDRSH, isa.STRH:
		return encodeHalf(in, cond)

	case isa.LDC:
		// LDR Rd, [PC, #off]
		off := int64(litAddr) - int64(addr) - pcOffset
		u := uint32(1 << 23)
		if off < 0 {
			u = 0
			off = -off
		}
		if off > 4095 {
			return 0, fmt.Errorf("literal pool offset %d out of range (function too large)", off)
		}
		return cond | 1<<26 | 1<<24 | u | 1<<20 | uint32(isa.PC)<<16 |
			uint32(in.Rd)<<12 | uint32(off), nil

	case isa.PUSH:
		// STMDB sp!, {list}
		return cond | 0x4<<25 | 1<<24 | 0<<23 | 1<<21 | uint32(isa.SP)<<16 | uint32(in.RegList), nil
	case isa.POP:
		// LDMIA sp!, {list}
		return cond | 0x4<<25 | 0<<24 | 1<<23 | 1<<21 | 1<<20 | uint32(isa.SP)<<16 | uint32(in.RegList), nil

	case isa.B, isa.BC, isa.BL:
		off := (int64(targetAddr) - int64(addr) - pcOffset) / 4
		if off < -(1<<23) || off >= 1<<23 {
			return 0, fmt.Errorf("branch offset %d out of range", off)
		}
		w := cond | 0x5<<25 | uint32(off)&0xffffff
		if in.Op == isa.BL {
			w |= 1 << 24
		}
		return w, nil

	case isa.BX:
		return cond | 0x12fff10 | uint32(in.Rm), nil

	case isa.SWI:
		return cond | 0xf<<24 | uint32(in.Imm)&0xffffff, nil
	}
	return 0, fmt.Errorf("unencodable op %s", in.Op)
}

func encodeOperand2(in *isa.Instr) (uint32, error) {
	if in.HasImm {
		rot, imm8, ok := EncodableImm(uint32(in.Imm))
		if !ok {
			return 0, fmt.Errorf("immediate %#x not encodable as rotated imm8", uint32(in.Imm))
		}
		return 1<<25 | rot<<8 | imm8, nil
	}
	if in.RegShift {
		return uint32(in.Rs)<<8 | uint32(in.Shift)<<5 | 1<<4 | uint32(in.Rm), nil
	}
	if in.ShiftAmt == 0 && in.Shift != isa.LSL {
		return 0, fmt.Errorf("shift %s #0 not canonical (use LSL)", in.Shift)
	}
	return uint32(in.ShiftAmt)<<7 | uint32(in.Shift)<<5 | uint32(in.Rm), nil
}

func encodeWordByte(in *isa.Instr, cond uint32) (uint32, error) {
	w := cond | 1<<26 | uint32(in.Rn)<<16 | uint32(in.Rd)<<12
	if in.Op == isa.LDR || in.Op == isa.LDRB {
		w |= 1 << 20
	}
	if in.Op == isa.LDRB || in.Op == isa.STRB {
		w |= 1 << 22
	}
	switch in.Mode {
	case isa.AMOffImm:
		off := in.Imm
		u := uint32(1 << 23)
		if off < 0 {
			u = 0
			off = -off
		}
		if off > 4095 {
			return 0, fmt.Errorf("load/store offset %d out of range", in.Imm)
		}
		return w | 1<<24 | u | uint32(off), nil
	case isa.AMOffReg:
		if in.ShiftAmt > 31 {
			return 0, fmt.Errorf("register-offset shift %d out of range", in.ShiftAmt)
		}
		return w | 1<<25 | 1<<24 | 1<<23 | uint32(in.ShiftAmt)<<7 | uint32(in.Rm), nil
	case isa.AMPostImm:
		off := in.Imm
		u := uint32(1 << 23)
		if off < 0 {
			u = 0
			off = -off
		}
		if off > 4095 {
			return 0, fmt.Errorf("post-index offset %d out of range", in.Imm)
		}
		return w | u | uint32(off), nil
	}
	return 0, fmt.Errorf("bad address mode %d", in.Mode)
}

func encodeHalf(in *isa.Instr, cond uint32) (uint32, error) {
	var sh uint32
	switch in.Op {
	case isa.STRH:
		sh = 0x1 // S=0 H=1, L=0
	case isa.LDRH:
		sh = 0x1 | 1<<15 // marker for L bit, handled below
	case isa.LDRSB:
		sh = 0x2 | 1<<15
	case isa.LDRSH:
		sh = 0x3 | 1<<15
	}
	l := uint32(0)
	if sh&(1<<15) != 0 {
		l = 1 << 20
		sh &^= 1 << 15
	}
	w := cond | l | uint32(in.Rn)<<16 | uint32(in.Rd)<<12 | 1<<7 | sh<<5 | 1<<4
	switch in.Mode {
	case isa.AMOffImm:
		off := in.Imm
		u := uint32(1 << 23)
		if off < 0 {
			u = 0
			off = -off
		}
		if off > 255 {
			return 0, fmt.Errorf("halfword offset %d out of range", in.Imm)
		}
		return w | 1<<24 | 1<<22 | u | (uint32(off)&0xf0)<<4 | uint32(off)&0xf, nil
	case isa.AMOffReg:
		if in.ShiftAmt != 0 {
			return 0, fmt.Errorf("halfword register offset cannot be shifted")
		}
		return w | 1<<24 | 1<<23 | uint32(in.Rm), nil
	case isa.AMPostImm:
		off := in.Imm
		u := uint32(1 << 23)
		if off < 0 {
			u = 0
			off = -off
		}
		if off > 255 {
			return 0, fmt.Errorf("halfword post-index offset %d out of range", in.Imm)
		}
		return w | 1<<22 | u | (uint32(off)&0xf0)<<4 | uint32(off)&0xf, nil
	}
	return 0, fmt.Errorf("bad address mode %d", in.Mode)
}

// Decode reconstructs the semantic instruction from a 32-bit word at
// addr. pool reads a text word (for literal loads); addrToIdx resolves a
// branch target address to an instruction index (may be nil, leaving
// TargetIdx as -1).
func Decode(word, addr uint32, pool func(uint32) uint32, addrToIdx func(uint32) (int, bool)) (isa.Instr, error) {
	in := isa.Instr{Cond: isa.Cond(word >> 28), TargetIdx: -1}
	if in.Cond > isa.AL {
		return in, fmt.Errorf("arm: bad condition %d", in.Cond)
	}
	resolve := func(target uint32) error {
		if addrToIdx == nil {
			return nil
		}
		idx, ok := addrToIdx(target)
		if !ok {
			return fmt.Errorf("arm: branch target %#x is not an instruction", target)
		}
		in.TargetIdx = idx
		return nil
	}

	switch {
	case word>>24&0xf == 0xE: // extended datapath op
		sub := word >> 20 & 0xf
		op, ok := extSubRev[sub]
		if !ok {
			return in, fmt.Errorf("arm: unknown extended sub-op %d", sub)
		}
		in.Op = op
		in.Rn = isa.Reg(word >> 16 & 0xf)
		in.Rd = isa.Reg(word >> 12 & 0xf)
		in.Rs = isa.Reg(word >> 8 & 0xf)
		in.Rm = isa.Reg(word & 0xf)
		return in, nil

	case word>>24&0xf == 0xF: // SWI
		in.Op = isa.SWI
		in.Imm = int32(word & 0xffffff)
		in.HasImm = true
		return in, nil

	case word>>25&0x7 == 0x5: // B/BL
		off := int32(word<<8) >> 8 // sign-extend 24 bits
		target := uint32(int64(addr) + pcOffset + int64(off)*4)
		if word>>24&1 == 1 {
			in.Op = isa.BL
		} else if in.Cond == isa.AL {
			in.Op = isa.B
		} else {
			in.Op = isa.BC
		}
		return in, resolve(target)

	case word&0x0ffffff0 == 0x012fff10: // BX
		in.Op = isa.BX
		in.Rm = isa.Reg(word & 0xf)
		return in, nil

	case word>>25&0x7 == 0x4: // block transfer (push/pop only)
		in.RegList = uint16(word & 0xffff)
		if isa.Reg(word>>16&0xf) != isa.SP || word>>21&1 != 1 {
			return in, fmt.Errorf("arm: unsupported block transfer %#08x", word)
		}
		if word>>20&1 == 1 {
			in.Op = isa.POP
		} else {
			in.Op = isa.PUSH
		}
		return in, nil

	case word>>26&0x3 == 0x1: // single transfer word/byte
		return decodeWordByte(in, word, addr, pool, addrToIdx)

	case word>>25&0x7 == 0 && word>>4&1 == 1 && word>>7&1 == 1:
		// multiply or halfword transfer
		if word>>5&0x3 == 0 { // SH == 00: multiply
			if word>>22&0x3f != 0 {
				return in, fmt.Errorf("arm: unsupported word %#08x (swap/extra space)", word)
			}
			in.Rd = isa.Reg(word >> 16 & 0xf)
			in.Rn = isa.Reg(word >> 12 & 0xf)
			in.Rs = isa.Reg(word >> 8 & 0xf)
			in.Rm = isa.Reg(word & 0xf)
			in.SetFlags = word>>20&1 == 1
			if word>>21&1 == 1 {
				in.Op = isa.MLA
			} else {
				if in.Rn != 0 {
					return in, fmt.Errorf("arm: MUL with non-zero SBZ field %#08x", word)
				}
				in.Op = isa.MUL
			}
			return in, nil
		}
		return decodeHalf(in, word)

	case word>>26&0x3 == 0: // data processing
		return decodeDP(in, word)
	}
	return in, fmt.Errorf("arm: undecodable word %#08x", word)
}

func decodeDP(in isa.Instr, word uint32) (isa.Instr, error) {
	op, ok := dpOpcodeRev[word>>21&0xf]
	if !ok {
		return in, fmt.Errorf("arm: data-processing opcode %d unsupported", word>>21&0xf)
	}
	in.Op = op
	in.SetFlags = word>>20&1 == 1
	if op.IsCompare() {
		if !in.SetFlags {
			return in, fmt.Errorf("arm: compare with S=0 (misc space) unsupported: %#08x", word)
		}
		in.SetFlags = false // implicit in IR
	}
	if op != isa.MOV && op != isa.MVN {
		in.Rn = isa.Reg(word >> 16 & 0xf)
	}
	if op.WritesRd() {
		in.Rd = isa.Reg(word >> 12 & 0xf)
	}
	if word>>25&1 == 1 { // immediate
		rot := word >> 8 & 0xf
		imm8 := word & 0xff
		in.Imm = int32(imm8>>(2*rot) | imm8<<(32-2*rot))
		if rot == 0 {
			in.Imm = int32(imm8)
		}
		in.HasImm = true
	} else {
		in.Rm = isa.Reg(word & 0xf)
		in.Shift = isa.Shift(word >> 5 & 0x3)
		if word>>4&1 == 1 {
			in.RegShift = true
			in.Rs = isa.Reg(word >> 8 & 0xf)
		} else {
			in.ShiftAmt = uint8(word >> 7 & 0x1f)
			if in.ShiftAmt == 0 && in.Shift != isa.LSL {
				// ARM reads LSR/ASR/ROR #0 as shift-by-32/RRX; the
				// subset only emits canonical forms.
				return in, fmt.Errorf("arm: non-canonical shift encoding %#08x", word)
			}
		}
	}
	// Canonicalize NOP.
	if in.Op == isa.MOV && in.Cond == isa.AL && !in.SetFlags && !in.HasImm &&
		!in.RegShift && in.ShiftAmt == 0 && in.Rd == isa.R0 && in.Rm == isa.R0 {
		return isa.Instr{Op: isa.NOP, Cond: isa.AL, TargetIdx: -1}, nil
	}
	return in, nil
}

func decodeWordByte(in isa.Instr, word, addr uint32, pool func(uint32) uint32, addrToIdx func(uint32) (int, bool)) (isa.Instr, error) {
	load := word>>20&1 == 1
	byteOp := word>>22&1 == 1
	rn := isa.Reg(word >> 16 & 0xf)
	in.Rd = isa.Reg(word >> 12 & 0xf)
	p := word>>24&1 == 1
	u := word>>23&1 == 1
	if rn == isa.PC {
		if !load || byteOp || !p {
			return in, fmt.Errorf("arm: PC-relative store/byte unsupported")
		}
		off := int32(word & 0xfff)
		if !u {
			off = -off
		}
		if pool == nil {
			return in, fmt.Errorf("arm: cannot decode literal load without pool access")
		}
		in.Op = isa.LDC
		in.Imm = int32(pool(uint32(int64(addr) + pcOffset + int64(off))))
		in.HasImm = true
		return in, nil
	}
	in.Rn = rn
	switch {
	case load && !byteOp:
		in.Op = isa.LDR
	case load && byteOp:
		in.Op = isa.LDRB
	case !load && !byteOp:
		in.Op = isa.STR
	default:
		in.Op = isa.STRB
	}
	if word>>25&1 == 1 { // register offset
		in.Mode = isa.AMOffReg
		in.Rm = isa.Reg(word & 0xf)
		in.ShiftAmt = uint8(word >> 7 & 0x1f)
		if word>>5&0x3 != 0 {
			return in, fmt.Errorf("arm: only LSL register offsets supported")
		}
		if !p || !u {
			return in, fmt.Errorf("arm: only positive pre-indexed register offsets supported")
		}
		return in, nil
	}
	off := int32(word & 0xfff)
	if !u {
		off = -off
	}
	in.Imm = off
	if p {
		in.Mode = isa.AMOffImm
	} else {
		in.Mode = isa.AMPostImm
	}
	return in, nil
}

func decodeHalf(in isa.Instr, word uint32) (isa.Instr, error) {
	load := word>>20&1 == 1
	sh := word >> 5 & 0x3
	switch {
	case !load && sh == 1:
		in.Op = isa.STRH
	case load && sh == 1:
		in.Op = isa.LDRH
	case load && sh == 2:
		in.Op = isa.LDRSB
	case load && sh == 3:
		in.Op = isa.LDRSH
	default:
		return in, fmt.Errorf("arm: unsupported halfword form %#08x", word)
	}
	in.Rn = isa.Reg(word >> 16 & 0xf)
	in.Rd = isa.Reg(word >> 12 & 0xf)
	p := word>>24&1 == 1
	u := word>>23&1 == 1
	immForm := word>>22&1 == 1
	if !immForm {
		if !p || !u {
			return in, fmt.Errorf("arm: only positive pre-indexed halfword register offsets supported")
		}
		in.Mode = isa.AMOffReg
		in.Rm = isa.Reg(word & 0xf)
		return in, nil
	}
	off := int32(word>>4&0xf0 | word&0xf)
	if !u {
		off = -off
	}
	in.Imm = off
	if p {
		in.Mode = isa.AMOffImm
	} else {
		in.Mode = isa.AMPostImm
	}
	return in, nil
}

// CheckImage decodes every instruction slot of an assembled image and
// fails on the first that differs from the program's instruction
// (branch labels aside, which no encoding keeps). Preparation runs it
// on every ARM image before timing the program.
func CheckImage(p *program.Program, im *program.Image) error {
	word := func(a uint32) uint32 {
		if off := uint64(a) - uint64(im.TextBase); off+InstrBytes <= uint64(len(im.Text)) {
			return binary.LittleEndian.Uint32(im.Text[off:])
		}
		return 0
	}
	for i, a := range im.InstrAddr {
		got, err := Decode(word(a), a, word, im.Slot)
		if err != nil {
			return fmt.Errorf("arm: %s slot %d: %w", p.Name, i, err)
		}
		want := p.Instrs[i]
		want.Target = ""
		if got != want {
			return fmt.Errorf("arm: %s slot %d decodes to %+v, program has %+v", p.Name, i, got, want)
		}
	}
	return nil
}
