package asm_test

import (
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/asm/asmfuzz"
	"powerfits/internal/cpu"
	"powerfits/internal/isa"
)

// FuzzParse feeds arbitrary text to the assembler: it must return a
// program or an error, never panic, and anything it accepts must
// validate and survive a Format round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"; just a comment",
		".data tab\n\t.word 1, 2\n.func main\n\tswi #0\n",
		".func main\nloop:\n\tsubs r0, r0, #1\n\tbne loop\n\tswi #0\n",
		".func main\n\tlea r1, tab\n\tswi #0\n.data tab\n\t.byte 1\n",
		".func main\n\tldr r0, [r1, r2 lsl #2]\n\tpush {r4-r7, lr}\n\tpop {r4-r7, lr}\n\tswi #0\n",
		".func main\n\tmov r0, r1 lsl r2\n\tmla r0, r1, r2, r3\n\tswi #0\n",
		".func main\n\tbx lr\n",
		".data d\n\t.zero 99999999999\n.func main\n\tswi #0\n",
		".func main\n\tadd r0, r1, #-5\n\tswi #0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Parse("fuzz", src)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted program does not validate: %v\n%s", verr, src)
		}
		// The formatter must render anything Parse accepted, and the
		// render must re-parse.
		text := asm.Format(p)
		if _, err := asm.Parse("fuzz2", text); err != nil {
			t.Fatalf("Format output unparseable: %v\n%s", err, text)
		}
	})
}

// FuzzBuilderProgramExecution: random instruction streams accepted by
// the builder must either run to completion or fail with a clean
// simulator error, never panic.
func FuzzBuilderProgramExecution(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0x00, 0x7A, 0x33, 9, 9, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		b := asm.New("fuzz")
		b.Zero("buf", 256)
		b.Func("main")
		b.Lea(isa.R1, "buf")
		asmfuzz.Body(b, raw)
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return
		}
		if _, err := cpu.RunFunctional(p, 100000); err != nil {
			// Clean faults are fine.
			return
		}
	})
}
