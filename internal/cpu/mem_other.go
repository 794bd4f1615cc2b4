//go:build !unix

package cpu

import "powerfits/internal/program"

// mapMem allocates a fresh zeroed machine memory on the Go heap, where
// there is no portable anonymous mapping.
func mapMem() *[program.MemSize]byte { return new([program.MemSize]byte) }

// unmapMem leaves a memory from mapMem to the collector.
func unmapMem(*[program.MemSize]byte) {}
