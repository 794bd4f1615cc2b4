// Package cpu implements the SA-1100-class processor model: a functional
// executor for the semantic IR (machine.go) and a dual-issue in-order
// timing pipeline with an instruction-cache fetch port (pipeline.go).
package cpu

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// Layout maps between semantic instruction indices and the addresses of
// their encoded forms. Timing simulation uses a target image's layout;
// pure functional runs can use the identity word layout.
type Layout interface {
	// AddrOf returns the address of instruction i.
	AddrOf(i int) uint32
	// SizeOf returns the encoded size of instruction i in bytes.
	SizeOf(i int) int
	// IndexOf resolves an instruction address back to its index.
	IndexOf(addr uint32) (int, bool)
}

// imageLayout adapts a program.Image to the Layout interface.
type imageLayout struct {
	im  *program.Image
	idx map[uint32]int
}

// ImageLayout returns the Layout of an assembled image.
func ImageLayout(im *program.Image) Layout {
	l := &imageLayout{im: im, idx: make(map[uint32]int, len(im.InstrAddr))}
	for i, a := range im.InstrAddr {
		l.idx[a] = i
	}
	return l
}

func (l *imageLayout) AddrOf(i int) uint32 { return l.im.InstrAddr[i] }
func (l *imageLayout) SizeOf(i int) int    { return int(l.im.InstrSize[i]) }
func (l *imageLayout) IndexOf(a uint32) (int, bool) {
	i, ok := l.idx[a]
	return i, ok
}

// wordLayout is the identity layout: 4 bytes per instruction starting at
// base. Used for functional-only runs before any target encoding exists.
type wordLayout struct {
	base uint32
	n    int
}

// WordLayout returns a fixed 4-bytes-per-instruction layout for a
// program with n instructions.
func WordLayout(base uint32, n int) Layout { return &wordLayout{base, n} }

func (l *wordLayout) AddrOf(i int) uint32 { return l.base + uint32(i)*4 }
func (l *wordLayout) SizeOf(int) int      { return 4 }
func (l *wordLayout) IndexOf(a uint32) (int, bool) {
	if a < l.base || (a-l.base)%4 != 0 {
		return 0, false
	}
	i := int(a-l.base) / 4
	if i >= l.n {
		return 0, false
	}
	return i, true
}

// ExecError reports a runtime fault during simulation.
type ExecError struct {
	Idx    int
	Instr  isa.Instr
	Detail string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("cpu: fault at instr %d (%s): %s", e.Idx, e.Instr, e.Detail)
}

// Machine is the architectural state plus the functional interpreter.
//
// A Machine owns all of its mutable state (registers, flags, its
// memory with a private copy of the data segment, output buffer); the
// Program and Layout it is constructed with are only ever read.
// Distinct Machines may therefore run concurrently over the same
// Program/Image, which the parallel experiment engine does. The memory
// is leased (mem.go): the owner of a machine calls Release when the run
// is done, and a machine dropped without it is unmapped by the
// collector.
type Machine struct {
	Regs   [isa.NumRegs]uint32
	N      bool
	Z      bool
	C      bool
	V      bool
	Halted bool

	// mem is the leased flat memory; dirty has bit c set once the run
	// may have written its 64 KiB chunk c. Release re-zeroes exactly
	// the dirty chunks, so every store path marks its chunk.
	mem     *[program.MemSize]byte
	dirty   uint32
	cleanup runtime.Cleanup

	// Output collects words emitted via SWI 1 (kernel checksums).
	Output []uint32

	prog   *program.Program
	layout Layout

	// PCIdx is the index of the next instruction to execute.
	PCIdx int

	// InstrCount is the number of instructions executed (predicated
	// instructions whose condition fails still count: they occupy a slot).
	InstrCount uint64

	// DynCount, when non-nil, accumulates per-instruction execution
	// counts for the profiler.
	DynCount []uint64

	// MaxInstrs aborts runaway programs; 0 means no limit.
	MaxInstrs uint64
}

// New creates a machine loaded with the program: memory leased, data
// segment copied in, stack pointer initialised, PC at the entry
// instruction.
func New(p *program.Program, layout Layout) *Machine {
	m := &Machine{
		prog:   p,
		layout: layout,
		PCIdx:  p.Entry,
	}
	m.leaseFor()
	if n := copy(m.mem[p.DataBase:], p.Data); n > 0 {
		m.touchSpan(p.DataBase, uint32(n))
	}
	m.Regs[isa.SP] = program.StackTop
	return m
}

// Program returns the loaded program.
func (m *Machine) Program() *program.Program { return m.prog }

// Layout returns the active layout.
func (m *Machine) Layout() Layout { return m.layout }

// CondHolds evaluates a condition against the current flags.
func (m *Machine) CondHolds(c isa.Cond) bool {
	switch c {
	case isa.EQ:
		return m.Z
	case isa.NE:
		return !m.Z
	case isa.CS:
		return m.C
	case isa.CC:
		return !m.C
	case isa.MI:
		return m.N
	case isa.PL:
		return !m.N
	case isa.VS:
		return m.V
	case isa.VC:
		return !m.V
	case isa.HI:
		return m.C && !m.Z
	case isa.LS:
		return !m.C || m.Z
	case isa.GE:
		return m.N == m.V
	case isa.LT:
		return m.N != m.V
	case isa.GT:
		return !m.Z && m.N == m.V
	case isa.LE:
		return m.Z || m.N != m.V
	case isa.AL:
		return true
	}
	return false
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

func (m *Machine) setNZ(v uint32) {
	m.N = int32(v) < 0
	m.Z = v == 0
}

func (m *Machine) addFlags(a, b uint32, carryIn uint32) uint32 {
	r64 := uint64(a) + uint64(b) + uint64(carryIn)
	r := uint32(r64)
	m.setNZ(r)
	m.C = r64 > 0xffffffff
	m.V = (a^r)&(b^r)>>31 != 0
	return r
}

func (m *Machine) subFlags(a, b uint32, carryIn uint32) uint32 {
	// a - b - (1-carryIn), ARM style.
	return m.addFlags(a, ^b, carryIn)
}

// StepResult describes one executed instruction for the timing layer.
type StepResult struct {
	// Taken is true when control transferred away from fall-through.
	Taken bool
	// NextIdx is the index of the next instruction.
	NextIdx int
	// Executed is false when a predicated instruction's condition
	// failed (it still occupies an issue slot).
	Executed bool
}

// Step executes the instruction at PCIdx and advances.
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

// stepFault builds the ExecError for a runtime fault at idx. Keeping it
// out of line (instead of the closure Step used to build every call)
// keeps the fault machinery off the steady-state path entirely: Step
// allocates only when it actually faults (pinned by TestStepZeroAlloc).
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

func (m *Machine) checkAddr(a uint32, size int) string {
	if int64(a)+int64(size) > int64(len(m.mem)) {
		return fmt.Sprintf("address %#x out of memory", a)
	}
	align := uint32(4)
	if size < 4 {
		align = uint32(size)
	}
	if align >= 2 && a%align != 0 {
		return fmt.Sprintf("misaligned %d-byte access at %#x", size, a)
	}
	return ""
}

func satAdd(a, b uint32) uint32 {
	r := int64(int32(a)) + int64(int32(b))
	if r > 0x7fffffff {
		return 0x7fffffff
	}
	if r < -0x80000000 {
		return 0x80000000
	}
	return uint32(int32(r))
}

func clz32(v uint32) uint32 {
	if v == 0 {
		return 32
	}
	n := uint32(0)
	for v&0x80000000 == 0 {
		v <<= 1
		n++
	}
	return n
}

func popCount(m uint16) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
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

// RunFunctional builds a machine over the identity layout, runs the
// program to completion and returns it. It is the quick path for golden
// outputs and dynamic profiling; it compiles the program to the
// semantic micro-op table first, so long runs execute at compiled speed
// (bit-identical to the Step path — see compile.go). The caller owns the
// returned machine and should Release it once done reading it.
func RunFunctional(p *program.Program, maxInstrs uint64) (*Machine, error) {
	l := WordLayout(p.TextBase, len(p.Instrs))
	m := New(p, l)
	m.MaxInstrs = maxInstrs
	if err := m.RunCompiled(Compile(p, l)); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}
