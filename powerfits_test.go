package powerfits_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerfits"
)

// buildDemo authors a small self-checking program through the public
// API.
func buildDemo() (*powerfits.Program, error) {
	b := powerfits.NewProgram("demo")
	b.Words("tab", []uint32{2, 3, 5, 7, 11, 13, 17, 19})
	b.Func("main")
	b.Lea(powerfits.R1, "tab")
	b.MovI(powerfits.R2, 8)
	b.MovI(powerfits.R0, 1)
	b.Label("loop")
	b.Ldr(powerfits.R3, powerfits.R1, 0)
	b.AddI(powerfits.R1, powerfits.R1, 4)
	b.Mul(powerfits.R0, powerfits.R0, powerfits.R3)
	b.SubsI(powerfits.R2, powerfits.R2, 1)
	b.Bne("loop")
	b.EmitWord()
	b.Exit()
	return b.Build()
}

func TestPublicAPIFlow(t *testing.T) {
	prog, err := buildDemo()
	if err != nil {
		t.Fatal(err)
	}

	// Functional execution: product of the first eight primes.
	m, err := powerfits.RunFunctional(prog, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Output) != 1 || m.Output[0] != 9699690 {
		t.Fatalf("output = %v, want [9699690]", m.Output)
	}

	// Stage-by-stage design flow.
	prof, err := powerfits.Collect(prog, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := powerfits.Synthesize(prof, powerfits.DefaultSynthOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := powerfits.Translate(prog, syn.Spec)
	if err != nil {
		t.Fatal(err)
	}
	armIm, err := powerfits.AssembleARM(prog)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Image.Size() >= armIm.Size() {
		t.Errorf("FITS %dB not smaller than ARM %dB", tr.Image.Size(), armIm.Size())
	}
	ts, err := powerfits.ThumbSize(prog)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TotalBytes() <= 0 {
		t.Error("thumb sizing empty")
	}

	// One-call flow plus a timing run.
	setup, err := powerfits.PrepareProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range powerfits.Configs {
		r, err := setup.Run(cfg, powerfits.DefaultCalibration())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(r.Pipe.Output) != 1 || r.Pipe.Output[0] != 9699690 {
			t.Fatalf("%s output = %v", cfg.Name, r.Pipe.Output)
		}
	}
}

func TestKernelRegistry(t *testing.T) {
	ks := powerfits.Kernels()
	if len(ks) != 21 {
		t.Fatalf("suite has %d kernels, want 21", len(ks))
	}
	if _, err := powerfits.KernelByName("crc32"); err != nil {
		t.Error(err)
	}
	if _, err := powerfits.KernelByName("nonsense"); err == nil {
		t.Error("unknown kernel accepted")
	}
	groups := map[string]int{}
	for _, k := range ks {
		groups[k.Group]++
	}
	for _, g := range []string{"automotive", "consumer", "network", "office", "security", "telecomm"} {
		if groups[g] == 0 {
			t.Errorf("MiBench group %q empty", g)
		}
	}
}

// Example demonstrates the README quick-start.
func Example() {
	b := powerfits.NewProgram("answer")
	b.Func("main")
	b.MovI(powerfits.R0, 42)
	b.EmitWord()
	b.Exit()
	prog := b.MustBuild()

	m, err := powerfits.RunFunctional(prog, 1000)
	if err != nil {
		panic(err)
	}
	defer m.Release()
	fmt.Println(m.Output[0])
	// Output: 42
}

// ExampleSynthesize shows the explicit design-flow stages.
func ExampleSynthesize() {
	prog, err := buildDemo()
	if err != nil {
		panic(err)
	}
	prof, _ := powerfits.Collect(prog, 1e6)
	syn, _ := powerfits.Synthesize(prof, powerfits.DefaultSynthOptions())
	tr, _ := powerfits.Translate(prog, syn.Spec)
	fmt.Printf("1:1 static mapping above 90%%: %v\n", tr.StaticMappingRate() > 0.9)
	fmt.Printf("every FITS instruction is 16-bit aligned: %v\n", tr.Image.Size()%2 == 0)
	// Output:
	// 1:1 static mapping above 90%: true
	// every FITS instruction is 16-bit aligned: true
}

// TestRunSuiteRendersGolden runs the facade's suite at scale 1: it must
// render the figure tables the experiments package pins.
func TestRunSuiteRendersGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "golden_scale1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	suite, err := powerfits.RunSuite(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range suite.AllFigures() {
		tb.Render(&sb)
	}
	if sb.String() != string(want) {
		t.Error("RunSuite(1, nil) renders tables that differ from golden_scale1.txt")
	}
}

// ExampleFormatAsm round-trips a program through its assembly text.
func ExampleFormatAsm() {
	prog, err := buildDemo()
	if err != nil {
		panic(err)
	}
	back, err := powerfits.ParseAsm(prog.Name, powerfits.FormatAsm(prog))
	if err != nil {
		panic(err)
	}
	same := len(back.Instrs) == len(prog.Instrs)
	for i := 0; same && i < len(prog.Instrs); i++ {
		a, b := prog.Instrs[i], back.Instrs[i]
		a.Target, b.Target = "", "" // labels are renamed; TargetIdx is kept
		same = a == b
	}
	fmt.Println(same)
	// Output: true
}
