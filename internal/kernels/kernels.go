// Package kernels provides the 21 MiBench-like workloads the
// experiments run, written in the ARM-subset IR via the assembler
// builder. Each kernel implements the genuine algorithm of its MiBench
// namesake (CRC-32, SHA-1 rounds, Blowfish and Rijndael rounds, ADPCM,
// fixed-point FFT, Dijkstra, Patricia trie, quicksort, Boyer–Moore
// search, SUSAN image filters, GSM and MP3-style filters, hash lookup,
// RGB conversion, bit counting) over deterministic pseudo-random inputs,
// and finishes by emitting one or more checksum words (SWI 1) followed
// by the exit trap.
//
// For every kernel an independent Go implementation of the same
// algorithm produces the reference checksums, so the assembly, the ISA
// encoders and the simulator are validated end to end.
//
// Register convention: kernels may use r0–r11, sp and lr. r12 is the IP
// scratch register reserved for the ARM→FITS translator and must never
// hold a live value.
package kernels

import (
	"fmt"
	"sort"

	"powerfits/internal/program"
)

// Kernel describes one workload.
type Kernel struct {
	// Name is the MiBench-style benchmark name.
	Name string
	// Group is the MiBench category.
	Group string
	// Build constructs the program at the given scale (≥ 1). Larger
	// scales run longer; the structure of the code is unchanged.
	Build func(scale int) *program.Program
	// Ref computes the expected output words at the given scale using
	// an independent Go implementation.
	Ref func(scale int) []uint32
	// DefaultScale is the scale the experiments run at.
	DefaultScale int
}

// FromProgram wraps a user-authored program as a one-off kernel of
// group "user": every scale builds p, and it has no reference output.
func FromProgram(p *program.Program) Kernel {
	return Kernel{
		Name:         p.Name,
		Group:        "user",
		Build:        func(int) *program.Program { return p },
		Ref:          func(int) []uint32 { return nil },
		DefaultScale: 1,
	}
}

var registry = map[string]Kernel{}

func register(k Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("kernels: duplicate " + k.Name)
	}
	if k.DefaultScale == 0 {
		k.DefaultScale = 1
	}
	registry[k.Name] = k
}

// All returns every kernel sorted by name.
func All() []Kernel {
	out := make([]Kernel, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Names returns the sorted kernel names.
func Names() []string {
	ks := All()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return names
}

// Get returns a kernel by name.
func Get(name string) (Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return Kernel{}, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
	}
	return k, nil
}

// MustGet is Get but panics on unknown names.
func MustGet(name string) Kernel {
	k, err := Get(name)
	if err != nil {
		panic(err)
	}
	return k
}
