// Package program defines the container for a workload authored in the
// semantic IR: its instructions, function spans, data segment and symbol
// table. A Program is ISA-neutral; each target encoder lowers it to a
// concrete memory image.
package program

import (
	"fmt"
	"slices"

	"powerfits/internal/isa"
)

// Default load addresses. The text segment sits low, the data segment at
// 1 MiB, and the stack grows down from StackTop. These mirror a simple
// embedded flat memory map.
const (
	DefaultTextBase = 0x00008000
	DefaultDataBase = 0x00100000
	StackTop        = 0x00200000
	// MemSize is the size of the simulated flat memory.
	MemSize = 0x00200000
)

// Func is a span of instructions forming one function. Target encoders
// may place per-function literal pools after the span, so a function must
// end in an unconditional control transfer (B, BX or SWI) — execution
// must never fall through its end.
type Func struct {
	Name  string
	Start int // first instruction index
	End   int // one past the last instruction index
}

// Program is a complete workload: code, data and symbols.
type Program struct {
	Name   string
	Instrs []isa.Instr
	Funcs  []Func

	Data     []byte
	TextBase uint32
	DataBase uint32

	// Symbols maps data-segment labels to absolute addresses.
	Symbols map[string]uint32

	// Entry is the instruction index execution starts at.
	Entry int
}

// MustSymbol returns the absolute address of a data symbol and panics
// when the symbol is unknown; intended for kernel authoring and tests.
func (p *Program) MustSymbol(name string) uint32 {
	a, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("program %s: unknown symbol %q", p.Name, name))
	}
	return a
}

// MaxDataBytes bounds the data segment: it must fit between the data
// base and the stack region (64 KiB reserved for the stack).
const MaxDataBytes = StackTop - DefaultDataBase - 64*1024

// Validate checks structural invariants of the whole program: instruction
// validity, resolved branch targets, function-span coverage and the
// no-fall-through rule at function ends.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("program %s: empty", p.Name)
	}
	if len(p.Data) > MaxDataBytes {
		return fmt.Errorf("program %s: data segment %d bytes exceeds %d (would collide with the stack)",
			p.Name, len(p.Data), MaxDataBytes)
	}
	if p.Entry < 0 || p.Entry >= len(p.Instrs) {
		return fmt.Errorf("program %s: entry %d out of range", p.Name, p.Entry)
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("program %s: instr %d (%s): %w", p.Name, i, in, err)
		}
		if in.Op.IsBranch() && in.Op != isa.BX {
			if in.TargetIdx < 0 || in.TargetIdx >= len(p.Instrs) {
				return fmt.Errorf("program %s: instr %d (%s): unresolved target", p.Name, i, in)
			}
		}
	}
	prev := 0
	for fi, f := range p.Funcs {
		if f.Start != prev {
			return fmt.Errorf("program %s: func %q starts at %d, want %d (spans must tile the code)", p.Name, f.Name, f.Start, prev)
		}
		if f.End <= f.Start || f.End > len(p.Instrs) {
			return fmt.Errorf("program %s: func %q has bad span [%d,%d)", p.Name, f.Name, f.Start, f.End)
		}
		last := &p.Instrs[f.End-1]
		switch {
		case last.Op == isa.B, last.Op == isa.BX, last.Op == isa.SWI && last.Cond == isa.AL:
			// ok: unconditional transfer
		case last.Op == isa.POP && last.RegList&(1<<isa.PC) != 0:
			// ok: pop into pc (not emitted today, reserved)
		default:
			return fmt.Errorf("program %s: func %q (index %d) must end in an unconditional transfer, got %s", p.Name, f.Name, fi, last)
		}
		prev = f.End
	}
	if prev != len(p.Instrs) {
		return fmt.Errorf("program %s: functions cover %d of %d instructions", p.Name, prev, len(p.Instrs))
	}
	return nil
}

// Image is a target-encoded memory image of a program's text segment.
// One semantic instruction may occupy one or more encoding slots
// (e.g. a FITS EXT prefix plus its base instruction). Once built by an
// encoder an Image is treated as read-only everywhere (the timing
// pipeline's fetch port aliases Text directly), so one Image may back
// any number of concurrent simulations.
type Image struct {
	// Text is the raw encoded text segment, starting at TextBase.
	Text []byte
	// TextBase is the load address of Text[0].
	TextBase uint32
	// InstrAddr[i] is the address of the first byte of semantic
	// instruction i.
	InstrAddr []uint32
	// InstrSize[i] is the number of text bytes instruction i occupies
	// (including any expansion prefixes).
	InstrSize []uint8
	// PoolBytes counts literal-pool bytes included in Text.
	PoolBytes int
}

// Size returns the total text size in bytes (code plus literal pools).
func (im *Image) Size() int { return len(im.Text) }

// AddrOf returns the address of semantic instruction i.
func (im *Image) AddrOf(i int) uint32 { return im.InstrAddr[i] }

// Slot returns the instruction whose first byte sits at addr.
func (im *Image) Slot(addr uint32) (int, bool) {
	return slices.BinarySearch(im.InstrAddr, addr)
}
