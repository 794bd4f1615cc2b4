package cpu

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"powerfits/internal/asm"
	"powerfits/internal/isa"
	"powerfits/internal/program"
)

// freshImage is the memory a new machine over p must start from: zero,
// with p's data segment copied in.
func freshImage(p *program.Program) *[program.MemSize]byte {
	f := new([program.MemSize]byte)
	copy(f[p.DataBase:], p.Data)
	return f
}

// zeroMem is the memory every lease starts from before New copies the
// data segment in.
var zeroMem [program.MemSize]byte

// diffChunks returns the mask of the 64 KiB chunks in which a and b
// differ.
func diffChunks(a, b *[program.MemSize]byte) uint32 {
	var d uint32
	for c := range program.MemSize >> memChunkShift {
		lo, hi := c<<memChunkShift, (c+1)<<memChunkShift
		if !bytes.Equal(a[lo:hi], b[lo:hi]) {
			d |= 1 << c
		}
	}
	return d
}

// checkCoverage asserts that m's dirty mask covers every byte its run
// wrote: each chunk outside the mask is still zero, as Release leaves
// it to the next lease.
func checkCoverage(t *testing.T, m *Machine) {
	t.Helper()
	if d := diffChunks(m.mem, &zeroMem) &^ m.dirty; d != 0 {
		t.Fatalf("chunks %#08x were written but are not marked dirty (mask %#08x)", d, m.dirty)
	}
}

// chunkWriter stores into chunks 0..29 with each store kind the only
// writer of its chunks: STR into 0..8, a PUSH whose 12-byte span
// straddles the boundary between chunks 9 and 10, STRB into the last
// byte of 11..19 and STRH into the middle of 20..29. Each loop body
// before its branch is one fused run, so the stores execute fused
// (superblocks, the pipeline's segments) and per instruction (the
// reference Step, stepCompiled).
func chunkWriter() *program.Program {
	b := asm.New("chunks")
	b.Func("main")
	b.MovImm32(isa.R0, 0xdeadbeef)
	b.MovImm32(isa.R2, 0xa5a5a5a5)
	b.MovImm32(isa.R3, 0x5a5a5a5a)
	b.MovI(isa.R1, 0)
	b.Label("str")
	b.Str(isa.R2, isa.R1, 0xffc)
	b.AddI(isa.R1, isa.R1, 1<<16)
	b.CmpI(isa.R1, 9<<16)
	b.Blt("str")
	b.MovImm32(isa.SP, 10<<16+8) // pushes 0x9fffc..0xa0007
	b.Push(isa.R0, isa.R2, isa.R3)
	b.MovI(isa.R1, 12<<16)
	b.Label("strb")
	b.Strb(isa.R2, isa.R1, -1)
	b.AddI(isa.R1, isa.R1, 1<<16)
	b.CmpI(isa.R1, 20<<16)
	b.Ble("strb")
	b.MovI(isa.R1, 20<<16)
	b.Label("strh")
	b.Strh(isa.R3, isa.R1, 0x802)
	b.AddI(isa.R1, isa.R1, 1<<16)
	b.CmpI(isa.R1, 30<<16)
	b.Blt("strh")
	b.Exit()
	return b.MustBuild()
}

// executors run a machine to completion over each store path: the
// reference interpreter, and the shipping switch reached per
// instruction, as fused blocks, and through the timing pipeline's
// segments (execSegment).
var executors = []struct {
	name string
	run  func(m *Machine, c *Compiled) error
}{
	{"step", func(m *Machine, _ *Compiled) error { return m.Run() }},
	{"compiled", func(m *Machine, c *Compiled) error {
		for !m.Halted {
			if _, err := m.stepCompiled(c); err != nil {
				return err
			}
		}
		return nil
	}},
	{"superblock", func(m *Machine, c *Compiled) error { return m.RunSuperblocks(c, math.MaxUint64, nil, nil, nil) }},
	{"pipeline", func(m *Machine, _ *Compiled) error {
		_, err := runPipeline(m, DefaultPipeConfig(), nullPort{})
		return err
	}},
}

// holdFreeList empties the free list so the next lease is the next
// release, and returns a function that puts the held memories back.
func holdFreeList() func() {
	var held []*[program.MemSize]byte
	for mem, ok := memFree.Get(); ok; mem, ok = memFree.Get() {
		held = append(held, mem)
	}
	return func() {
		for _, mem := range held {
			returnMem(mem)
		}
	}
}

// TestReleasedMemoryIsZero pins the lease invariant on every store
// path: a machine that wrote 30 of the 32 chunks through STR, STRB,
// STRH and a chunk-straddling PUSH is released, and the next New — of
// the same program and of another — reuses that memory and sees it
// byte-identical to a fresh image.
func TestReleasedMemoryIsZero(t *testing.T) {
	w := chunkWriter()
	lw := WordLayout(w.TextBase, len(w.Instrs))
	cw := Compile(w, lw)
	defer holdFreeList()()
	for _, ex := range executors {
		t.Run(ex.name, func(t *testing.T) {
			for _, next := range []*program.Program{w, mixedProgram()} {
				m := New(w, lw)
				if err := ex.run(m, cw); err != nil {
					t.Fatal(err)
				}
				const want = 1<<30 - 1
				if d := diffChunks(m.mem, &zeroMem); d != want {
					t.Fatalf("chunks %#08x written, want %#08x", d, want)
				}
				if m.dirty != want {
					t.Fatalf("dirty mask %#08x, want %#08x", m.dirty, want)
				}
				mem := m.mem
				m.Release()
				m.Release() // idempotent
				n := New(next, WordLayout(next.TextBase, len(next.Instrs)))
				if n.mem != mem {
					t.Fatal("New did not lease the memory just released")
				}
				if d := diffChunks(n.mem, freshImage(next)); d != 0 {
					t.Fatalf("%s: leased memory differs from a fresh image in chunks %#08x", next.Name, d)
				}
				n.Release()
			}
		})
	}
}

// TestUnreleasedMachinesAreReclaimed pins the collector's backstop: the
// memories of machines dropped without Release are unmapped once the
// machines are collected, leaving at most the free list mapped.
func TestUnreleasedMachinesAreReclaimed(t *testing.T) {
	p := mixedProgram()
	for range 200 {
		if _, err := RunFunctional(p, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		live := memLive.Load()
		if live <= memFreeCap {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d machine memories still mapped after collection, want at most %d", live, memFreeCap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
