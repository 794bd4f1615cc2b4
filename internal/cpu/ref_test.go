package cpu

import (
	"encoding/binary"
	"fmt"

	"powerfits/internal/isa"
)

// This file is the reference interpreter: Step executes one isa.Instr
// straight from the semantic IR, re-deriving the operand-2 form, flag
// behaviour and addressing mode on every call. It is the oracle the
// shipping executor (the compiled micro-op table, compile.go and
// superblock.go) is tested against: FuzzCompiledVsStep, the lockstep
// and superblock comparisons in this package, and the whole-kernel
// tests in kernels_test.go. No shipping code calls it. Its stores mark
// their 64 KiB chunk dirty like the shipping ones, so the lease tests
// (mem_test.go) run over it too.

// Step executes the instruction at PCIdx and advances: the reference
// semantics of one instruction.
func (m *Machine) Step() (StepResult, error) {
	if m.Halted {
		return StepResult{}, fmt.Errorf("cpu: step after halt")
	}
	if m.MaxInstrs > 0 && m.InstrCount >= m.MaxInstrs {
		return StepResult{}, fmt.Errorf("cpu: instruction budget %d exhausted (runaway program?)", m.MaxInstrs)
	}
	idx := m.PCIdx
	if idx < 0 || idx >= len(m.prog.Instrs) {
		return StepResult{}, fmt.Errorf("cpu: PC index %d out of range", idx)
	}
	in := &m.prog.Instrs[idx]
	m.InstrCount++
	if m.DynCount != nil {
		m.DynCount[idx]++
	}

	res := StepResult{NextIdx: idx + 1, Executed: true}
	if !m.CondHolds(in.Cond) {
		res.Executed = false
		m.PCIdx = res.NextIdx
		return res, nil
	}

	switch in.Op {
	case isa.ADD, isa.ADC, isa.SUB, isa.SBC, isa.RSB, isa.CMP, isa.CMN:
		op2, _ := m.operand2(in)
		a := m.Regs[in.Rn]
		var r uint32
		saveN, saveZ, saveC, saveV := m.N, m.Z, m.C, m.V
		switch in.Op {
		case isa.ADD, isa.CMN:
			r = m.addFlags(a, op2, 0)
		case isa.ADC:
			c := uint32(0)
			if saveC {
				c = 1
			}
			r = m.addFlags(a, op2, c)
		case isa.SUB, isa.CMP:
			r = m.subFlags(a, op2, 1)
		case isa.SBC:
			c := uint32(0)
			if saveC {
				c = 1
			}
			r = m.subFlags(a, op2, c)
		case isa.RSB:
			r = m.subFlags(op2, a, 1)
		}
		if in.Op == isa.CMP || in.Op == isa.CMN {
			// flags already set
		} else {
			if !in.SetFlags {
				m.N, m.Z, m.C, m.V = saveN, saveZ, saveC, saveV
			}
			m.Regs[in.Rd] = r
		}

	case isa.AND, isa.ORR, isa.EOR, isa.BIC, isa.MOV, isa.MVN, isa.TST, isa.TEQ:
		op2, shC := m.operand2(in)
		a := m.Regs[in.Rn]
		var r uint32
		switch in.Op {
		case isa.AND, isa.TST:
			r = a & op2
		case isa.ORR:
			r = a | op2
		case isa.EOR, isa.TEQ:
			r = a ^ op2
		case isa.BIC:
			r = a &^ op2
		case isa.MOV:
			r = op2
		case isa.MVN:
			r = ^op2
		}
		if in.Op == isa.TST || in.Op == isa.TEQ {
			m.setNZ(r)
			m.C = shC
		} else {
			if in.SetFlags {
				m.setNZ(r)
				m.C = shC
			}
			m.Regs[in.Rd] = r
		}

	case isa.MUL:
		r := m.Regs[in.Rm] * m.Regs[in.Rs]
		if in.SetFlags {
			m.setNZ(r)
		}
		m.Regs[in.Rd] = r
	case isa.MLA:
		r := m.Regs[in.Rm]*m.Regs[in.Rs] + m.Regs[in.Rn]
		if in.SetFlags {
			m.setNZ(r)
		}
		m.Regs[in.Rd] = r

	case isa.QADD:
		m.Regs[in.Rd] = satAdd(m.Regs[in.Rn], m.Regs[in.Rm])
	case isa.QSUB:
		m.Regs[in.Rd] = satAdd(m.Regs[in.Rn], uint32(-int32(m.Regs[in.Rm])))
	case isa.CLZ:
		m.Regs[in.Rd] = clz32(m.Regs[in.Rm])
	case isa.REV:
		v := m.Regs[in.Rm]
		m.Regs[in.Rd] = v<<24 | v>>24 | v<<8&0xff0000 | v>>8&0xff00
	case isa.MIN:
		a, c := int32(m.Regs[in.Rn]), int32(m.Regs[in.Rm])
		if c < a {
			a = c
		}
		m.Regs[in.Rd] = uint32(a)
	case isa.MAX:
		a, c := int32(m.Regs[in.Rn]), int32(m.Regs[in.Rm])
		if c > a {
			a = c
		}
		m.Regs[in.Rd] = uint32(a)

	case isa.LDR, isa.LDRB, isa.LDRH, isa.LDRSB, isa.LDRSH, isa.STR, isa.STRB, isa.STRH:
		ea, wb := m.effAddr(in)
		if err := m.checkAddr(ea, in.Op.MemSize()); err != "" {
			return res, m.stepFault(idx, err)
		}
		switch in.Op {
		case isa.LDR:
			m.Regs[in.Rd] = binary.LittleEndian.Uint32(m.mem[ea:])
		case isa.LDRB:
			m.Regs[in.Rd] = uint32(m.mem[ea])
		case isa.LDRH:
			m.Regs[in.Rd] = uint32(binary.LittleEndian.Uint16(m.mem[ea:]))
		case isa.LDRSB:
			m.Regs[in.Rd] = uint32(int32(int8(m.mem[ea])))
		case isa.LDRSH:
			m.Regs[in.Rd] = uint32(int32(int16(binary.LittleEndian.Uint16(m.mem[ea:]))))
		case isa.STR:
			binary.LittleEndian.PutUint32(m.mem[ea:], m.Regs[in.Rd])
			m.touch(ea)
		case isa.STRB:
			m.mem[ea] = byte(m.Regs[in.Rd])
			m.touch(ea)
		case isa.STRH:
			binary.LittleEndian.PutUint16(m.mem[ea:], uint16(m.Regs[in.Rd]))
			m.touch(ea)
		}
		if wb {
			m.Regs[in.Rn] += uint32(in.Imm)
		}

	case isa.LDC:
		m.Regs[in.Rd] = uint32(in.Imm)

	case isa.PUSH:
		n := popCount(in.RegList)
		sp := m.Regs[isa.SP] - 4*uint32(n)
		if err := m.checkAddr(sp, 4*n); err != "" {
			return res, m.stepFault(idx, err)
		}
		a := sp
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				binary.LittleEndian.PutUint32(m.mem[a:], m.Regs[r])
				a += 4
			}
		}
		m.touchPush(sp, uint32(4*n))
		m.Regs[isa.SP] = sp
	case isa.POP:
		n := popCount(in.RegList)
		sp := m.Regs[isa.SP]
		if err := m.checkAddr(sp, 4*n); err != "" {
			return res, m.stepFault(idx, err)
		}
		a := sp
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				m.Regs[r] = binary.LittleEndian.Uint32(m.mem[a:])
				a += 4
			}
		}
		m.Regs[isa.SP] = sp + 4*uint32(n)

	case isa.B, isa.BC:
		res.Taken = true
		res.NextIdx = in.TargetIdx
	case isa.BL:
		m.Regs[isa.LR] = m.layout.AddrOf(idx) + uint32(m.layout.SizeOf(idx))
		res.Taken = true
		res.NextIdx = in.TargetIdx
	case isa.BX:
		t, ok := m.layout.IndexOf(m.Regs[in.Rm])
		if !ok {
			return res, m.stepFault(idx, fmt.Sprintf("BX to non-instruction address %#x", m.Regs[in.Rm]))
		}
		res.Taken = true
		res.NextIdx = t

	case isa.SWI:
		switch in.Imm {
		case 0:
			m.Halted = true
			res.NextIdx = idx
		case 1:
			m.Output = append(m.Output, m.Regs[isa.R0])
		default:
			return res, m.stepFault(idx, fmt.Sprintf("unknown SWI %d", in.Imm))
		}

	case isa.NOP:
		// nothing
	default:
		return res, m.stepFault(idx, "unimplemented op")
	}

	m.PCIdx = res.NextIdx
	return res, nil
}

// stepFault builds the ExecError for a runtime fault at idx.
func (m *Machine) stepFault(idx int, detail string) error {
	return &ExecError{Idx: idx, Instr: m.prog.Instrs[idx], Detail: detail}
}

// effAddr computes a load/store effective address and whether base
// writeback applies.
func (m *Machine) effAddr(in *isa.Instr) (uint32, bool) {
	base := m.Regs[in.Rn]
	switch in.Mode {
	case isa.AMOffImm:
		return base + uint32(in.Imm), false
	case isa.AMOffReg:
		return base + m.Regs[in.Rm]<<in.ShiftAmt, false
	case isa.AMPostImm:
		return base, true
	}
	return base, false
}

// operand2 evaluates the second operand of a data-processing
// instruction, returning the value and the shifter carry-out.
func (m *Machine) operand2(in *isa.Instr) (uint32, bool) {
	if in.HasImm {
		return uint32(in.Imm), m.C
	}
	v := m.Regs[in.Rm]
	amt := uint32(in.ShiftAmt)
	if in.RegShift {
		amt = m.Regs[in.Rs] & 0xff
	}
	if amt == 0 {
		return v, m.C
	}
	switch in.Shift {
	case isa.LSL:
		if amt > 32 {
			return 0, false
		}
		if amt == 32 {
			return 0, v&1 != 0
		}
		return v << amt, v>>(32-amt)&1 != 0
	case isa.LSR:
		if amt > 32 {
			return 0, false
		}
		if amt == 32 {
			return 0, v>>31 != 0
		}
		return v >> amt, v>>(amt-1)&1 != 0
	case isa.ASR:
		if amt >= 32 {
			amt = 32
		}
		if amt == 32 {
			s := uint32(int32(v) >> 31)
			return s, s&1 != 0
		}
		return uint32(int32(v) >> amt), v>>(amt-1)&1 != 0
	case isa.ROR:
		amt &= 31
		if amt == 0 {
			return v, v>>31 != 0
		}
		r := v>>amt | v<<(32-amt)
		return r, r>>31 != 0
	}
	return v, m.C
}

// Run executes until the program halts or the budget is exhausted.
func (m *Machine) Run() error {
	for !m.Halted {
		if _, err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
