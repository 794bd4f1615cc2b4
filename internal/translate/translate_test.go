package translate_test

import (
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/synth"
	"powerfits/internal/translate"
)

// buildSumProg builds a small self-checking program: sum an array of
// bytes with a few deliberately awkward instructions (wide immediates,
// negative offsets, predication, register offsets) to exercise 1:n
// translation paths.
func buildSumProg(t *testing.T) *program.Program {
	t.Helper()
	b := asm.New("sum")
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	b.Bytes("data", data)
	b.Zero("result", 8)

	b.Func("main")
	b.Lea(isa.R1, "data")
	b.MovI(isa.R2, 256)            // count
	b.MovI(isa.R0, 0)              // acc
	b.MovImm32(isa.R5, 0x12345678) // wide constant, dictionary candidate
	b.Label("loop")
	b.MemPost(isa.LDRB, isa.R3, isa.R1, 1) // ldrb r3, [r1], #1
	b.Add(isa.R0, isa.R0, isa.R3)
	b.Eor(isa.R0, isa.R0, isa.R5)
	b.SubsI(isa.R2, isa.R2, 1)
	b.Bne("loop")
	// Predication + negative offset + register offset.
	b.CmpI(isa.R0, 0)
	b.MovIIf(isa.GE, isa.R4, 1)
	b.MovIIf(isa.LT, isa.R4, 2)
	b.Add(isa.R0, isa.R0, isa.R4)
	b.Lea(isa.R6, "result")
	b.Str(isa.R0, isa.R6, 4)
	b.Ldr(isa.R7, isa.R6, 4)
	b.MemReg(isa.LDRB, isa.R8, isa.R1, isa.R4, 0)
	b.Add(isa.R0, isa.R7, isa.R8)
	b.Bl("mix")
	b.EmitWord()
	b.Exit()

	b.Func("mix")
	b.Push(isa.R4, isa.LR)
	b.MovImm32(isa.R4, 0x9E3779B9)
	b.Mla(isa.R0, isa.R0, isa.R4, isa.R4)
	b.Lsr(isa.R3, isa.R0, 13)
	b.Eor(isa.R0, isa.R0, isa.R3)
	b.Pop(isa.R4, isa.LR)
	b.Ret()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestEndToEndPipeline(t *testing.T) {
	p := buildSumProg(t)

	// ARM image round-trip.
	armIm, err := arm.Assemble(p)
	if err != nil {
		t.Fatalf("arm assemble: %v", err)
	}
	if err := arm.CheckImage(p, armIm); err != nil {
		t.Fatalf("arm round trip: %v", err)
	}

	// Functional reference run.
	ref, err := cpu.RunFunctional(p, 1e7)
	if err != nil {
		t.Fatalf("functional run: %v", err)
	}
	if len(ref.Output) != 1 {
		t.Fatalf("expected 1 output word, got %v", ref.Output)
	}

	// Profile + synthesis.
	prof, err := profile.Collect(p, 1e7)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	syn, err := synth.Synthesize(prof, synth.DefaultOptions())
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	t.Logf("chosen k=%d points=%d dict=%d BIS=%d SIS=%d AIS=%d",
		syn.K, syn.Spec.UsedPoints(), syn.DictEntries, len(syn.BIS), len(syn.SIS), len(syn.AIS))

	// Translate and decode-verify.
	res, err := translate.Translate(p, syn.Spec)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if err := translate.CheckImage(res); err != nil {
		t.Fatalf("fits round trip: %v", err)
	}
	if res.Image.Size() >= armIm.Size() {
		t.Errorf("FITS image %d bytes not smaller than ARM %d", res.Image.Size(), armIm.Size())
	}
	if r := res.StaticMappingRate(); r < 0.5 {
		t.Errorf("static mapping rate %.2f suspiciously low", r)
	}

	// Timing runs under both encodings must produce identical output.
	var armRes, fitsRes cpu.PipeResult
	armL := cpu.ImageLayout(armIm)
	if err := cpu.RunPipeline(cpu.New(p, armL), cpu.DefaultPipeConfig(), nil, cpu.Predecode(p, armL), &armRes, nil); err != nil {
		t.Fatalf("arm pipeline: %v", err)
	}
	fitsL := cpu.ImageLayout(res.Image)
	if err := cpu.RunPipeline(cpu.New(res.Lowered, fitsL), cpu.DefaultPipeConfig(), nil, cpu.Predecode(res.Lowered, fitsL), &fitsRes, nil); err != nil {
		t.Fatalf("fits pipeline: %v", err)
	}
	if len(armRes.Output) != 1 || armRes.Output[0] != ref.Output[0] {
		t.Fatalf("arm pipeline output %v != reference %v", armRes.Output, ref.Output)
	}
	if len(fitsRes.Output) != 1 || fitsRes.Output[0] != ref.Output[0] {
		t.Fatalf("fits pipeline output %v != reference %v", fitsRes.Output, ref.Output)
	}
	if fitsRes.FetchAccesses >= armRes.FetchAccesses {
		t.Errorf("FITS fetch accesses %d not below ARM %d", fitsRes.FetchAccesses, armRes.FetchAccesses)
	}
	t.Logf("arm: %d instrs %d cycles %d fetches; fits: %d instrs %d cycles %d fetches",
		armRes.Instrs, armRes.Cycles, armRes.FetchAccesses,
		fitsRes.Instrs, fitsRes.Cycles, fitsRes.FetchAccesses)
}
