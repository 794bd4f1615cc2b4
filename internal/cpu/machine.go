// Package cpu implements the SA-1100-class processor model: the
// architectural state (machine.go), a functional executor over a
// compiled micro-op table (compile.go, superblock.go) and a dual-issue
// in-order timing pipeline with an instruction-cache fetch port
// (pipeline.go).
package cpu

import (
	"fmt"
	"math"
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

// Machine is the architectural state the executors advance.
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

// RunFunctional builds a machine over the identity layout, runs the
// program to completion on the superblock executor (superblock.go) and
// returns it. It is the quick path for golden outputs. The caller owns
// the returned machine and should Release it once done reading it.
func RunFunctional(p *program.Program, maxInstrs uint64) (*Machine, error) {
	l := WordLayout(p.TextBase, len(p.Instrs))
	m := New(p, l)
	m.MaxInstrs = maxInstrs
	if err := m.RunSuperblocks(Compile(p, l), math.MaxUint64, nil, nil, nil); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}
