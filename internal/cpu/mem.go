package cpu

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"powerfits/internal/program"
	"powerfits/internal/reuse"
)

// Machine memory is leased, not allocated. New takes a memory from a
// bounded free list (or maps a fresh one), Release gives it back, and
// the invariant between the two is that a leased memory equals a fresh
// image: all zero. A run writes only its data segment and some stack,
// so the machine tracks which 64 KiB chunks it wrote (the dirty mask)
// and Release re-zeroes those chunks alone, instead of every machine
// zeroing a whole program.MemSize buffer. On unix the memory lives
// outside the Go heap (mem_unix.go), so resident free-list memories do
// not count as live heap.

const (
	// memChunkShift sizes the dirty-tracking chunk: 64 KiB, so the 32
	// chunks of program.MemSize fit one uint32 mask.
	memChunkShift = 16
	// memFreeCap bounds the free list; a memory released onto a full
	// list is unmapped.
	memFreeCap = 16
)

// Every store must be able to name its chunk in the uint32 mask.
var _ [32 - program.MemSize>>memChunkShift]struct{}

var (
	// memFree holds released, zeroed memories.
	memFree = reuse.NewFreeList[*[program.MemSize]byte](memFreeCap)
	// memLive counts memories mapped and not yet unmapped: leased ones
	// plus those on the free list.
	memLive atomic.Int64
)

// dropMem unmaps a memory that will not be leased again.
func dropMem(mem *[program.MemSize]byte) {
	unmapMem(mem)
	memLive.Add(-1)
}

// returnMem puts a zeroed memory on the free list, or drops it when the
// list is full.
func returnMem(mem *[program.MemSize]byte) {
	if !memFree.Put(mem) {
		dropMem(mem)
	}
}

// leaseFor gives m a zeroed memory, from the free list when it has one,
// and registers the cleanup that unmaps it should m be dropped without
// Release.
func (m *Machine) leaseFor() {
	mem, ok := memFree.Get()
	if !ok {
		memLive.Add(1)
		mem = mapMem()
	}
	m.mem = mem
	m.cleanup = runtime.AddCleanup(m, dropMem, mem)
}

// touch marks the chunk holding address a as written. Callers have
// bounds-checked a, and an aligned store never straddles a chunk.
func (m *Machine) touch(a uint32) {
	m.dirty |= 1 << (a >> memChunkShift & 31)
}

// touchPush marks the chunks of a push's n-byte span at sp: its first
// and its last, as a span of at most 64 bytes crosses at most one chunk
// boundary.
func (m *Machine) touchPush(sp, n uint32) {
	m.touch(sp)
	m.touch(sp + n - 1)
}

// touchSpan marks every chunk of the n > 0 bytes written at a.
func (m *Machine) touchSpan(a, n uint32) {
	for c := a >> memChunkShift; c <= (a+n-1)>>memChunkShift; c++ {
		m.dirty |= 1 << (c & 31)
	}
}

// Release re-zeroes the chunks the machine wrote and returns its memory
// for the next New. The machine is unusable afterwards; a second
// Release does nothing. Owners that build a machine per run defer it.
func (m *Machine) Release() {
	mem := m.mem
	if mem == nil {
		return
	}
	m.mem = nil
	m.cleanup.Stop()
	for d := m.dirty; d != 0; d &= d - 1 {
		c := uint32(bits.TrailingZeros32(d))
		clear(mem[c<<memChunkShift : (c+1)<<memChunkShift])
	}
	m.dirty = 0
	returnMem(mem)
}
