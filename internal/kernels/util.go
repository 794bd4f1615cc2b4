package kernels

import (
	"powerfits/internal/isa"
)

// Register aliases to keep kernel sources readable.
const (
	r0  = isa.R0
	r1  = isa.R1
	r2  = isa.R2
	r3  = isa.R3
	r4  = isa.R4
	r5  = isa.R5
	r6  = isa.R6
	r7  = isa.R7
	r8  = isa.R8
	r9  = isa.R9
	r10 = isa.R10
	r11 = isa.R11
	lr  = isa.LR
	sp  = isa.SP
)

// xorshift32 is the deterministic PRNG shared by the assembly input
// generators and the Go reference implementations.
type xorshift32 uint32

func newRand(seed uint32) *xorshift32 {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	x := xorshift32(seed)
	return &x
}

func (x *xorshift32) next() uint32 {
	v := uint32(*x)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift32(v)
	return v
}

// randBytes returns n deterministic bytes.
func randBytes(seed uint32, n int) []byte {
	r := newRand(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.next())
	}
	return out
}

// randWords returns n deterministic 32-bit words.
func randWords(seed uint32, n int) []uint32 {
	r := newRand(seed)
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

// mix folds a word into a running checksum (same recurrence in Go and
// in several kernels' assembly epilogues).
func mix(h, v uint32) uint32 {
	h = h ^ v
	h = h*16777619 + 1
	return h
}
