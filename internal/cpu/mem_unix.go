//go:build unix

package cpu

import (
	"fmt"
	"syscall"

	"powerfits/internal/program"
)

// mapMem maps a fresh zeroed machine memory outside the Go heap: an
// anonymous private region, whose pages the kernel supplies zeroed on
// first touch. Off the heap, a resident memory never raises the
// collector's goal, and a machine that writes a few chunks brings only
// those pages in.
func mapMem() *[program.MemSize]byte {
	b, err := syscall.Mmap(-1, 0, program.MemSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("cpu: mapping machine memory: %v", err))
	}
	return (*[program.MemSize]byte)(b)
}

// unmapMem returns a memory from mapMem to the kernel.
func unmapMem(mem *[program.MemSize]byte) {
	if err := syscall.Munmap(mem[:]); err != nil {
		panic(fmt.Sprintf("cpu: unmapping machine memory: %v", err))
	}
}
