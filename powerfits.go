// Package powerfits is the public API of the PowerFITS reproduction: a
// complete implementation of Framework-based Instruction-set Tuning
// Synthesis (FITS) applied to instruction-cache power reduction, after
// Cheng, Tyson and Mudge, "PowerFITS: Reduce Dynamic and Static I-Cache
// Power Using Application Specific Instruction Set Synthesis"
// (ISPASS 2005).
//
// The library spans the paper's whole system:
//
//   - an ARM-subset semantic IR with a bit-accurate 32-bit encoder
//     (the baseline ISA) and an assembler/builder for authoring
//     programs (NewProgram);
//   - the FITS design flow — Profile → Synthesize → Translate —
//     which tailors a 16-bit instruction set to one application
//     (opcode points, two-operand and implied-base variants,
//     per-point immediate dictionaries, a ranked register window)
//     and retargets the binary onto it;
//   - a Thumb-style 16-bit sizing baseline (ThumbSize);
//   - an SA-1100-class timing simulator (dual-issue in-order pipeline,
//     set-associative I-cache, sim-panalyzer-style power model) that
//     fetches real encoded bytes through the cache;
//   - the paper's 21-benchmark MiBench-like workload suite
//     (Kernels, KernelByName) and every evaluation experiment
//     (RunSuite and the experiments package's figure tables).
//
// # Quick start
//
//	b := powerfits.NewProgram("answer")
//	b.Func("main")
//	b.MovI(powerfits.R0, 42)
//	b.EmitWord() // SWI 1: output r0
//	b.Exit()
//	prog := b.MustBuild()
//
//	setup, _ := powerfits.PrepareProgram(prog)
//	fmt.Printf("ARM %dB → FITS %dB, static 1:1 = %.1f%%\n",
//	    setup.ArmImage.Size(), setup.Fits.Image.Size(),
//	    100*setup.Fits.StaticMappingRate())
package powerfits

import (
	"powerfits/internal/asm"
	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/experiments"
	"powerfits/internal/isa"
	"powerfits/internal/isa/arm"
	"powerfits/internal/isa/fits"
	"powerfits/internal/isa/thumb"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
	"powerfits/internal/translate"
)

// ---- Program authoring ----

// Builder assembles a program in the semantic IR: functions, labels,
// data symbols and the full ARM-subset instruction repertoire.
type Builder = asm.Builder

// Program is a built workload: instructions, functions, data, symbols.
type Program = program.Program

// Image is a target-encoded text image (ARM 32-bit or FITS 16-bit).
type Image = program.Image

// NewProgram returns an empty program builder.
func NewProgram(name string) *Builder { return asm.New(name) }

// Register and condition names re-exported for authoring convenience.
const (
	R0  = isa.R0
	R1  = isa.R1
	R2  = isa.R2
	R3  = isa.R3
	R4  = isa.R4
	R5  = isa.R5
	R6  = isa.R6
	R7  = isa.R7
	R8  = isa.R8
	R9  = isa.R9
	R10 = isa.R10
	R11 = isa.R11
	SP  = isa.SP
	LR  = isa.LR
)

// ---- The FITS design flow ----

// Profile is the requirement analysis of one program (the flow's first
// stage): signature, literal and register-pressure statistics plus
// per-instruction execution counts.
type Profile = profile.Profile

// Collect profiles a program by running it to completion functionally.
// maxInstrs bounds the run (0 = unlimited).
func Collect(p *Program, maxInstrs uint64) (*Profile, error) {
	return profile.Collect(p, maxInstrs)
}

// SynthOptions controls instruction-set synthesis (opcode width search,
// dictionary capacity, ablation switches).
type SynthOptions = synth.Options

// DefaultSynthOptions returns the configuration used by the paper
// experiments.
func DefaultSynthOptions() SynthOptions { return synth.DefaultOptions() }

// Synthesis is a synthesized instruction set: the Spec (programmable
// decoder contents) plus the BIS/SIS/AIS provenance breakdown.
type Synthesis = synth.Synthesis

// Synthesize tailors a 16-bit FITS instruction set to the profiled
// application.
func Synthesize(prof *Profile, opts SynthOptions) (*Synthesis, error) {
	return synth.Synthesize(prof, opts)
}

// Goal expresses designer requirements for SynthesizeToGoal (code-size
// ratio, mapping rate, decoder-configuration budget).
type Goal = synth.Goal

// GoalResult is an accepted iterative synthesis.
type GoalResult = synth.GoalResult

// SynthesizeToGoal runs the paper's Figure 1 feedback loop:
// synthesize, evaluate against the goal, adjust and repeat.
func SynthesizeToGoal(prof *Profile, base SynthOptions, goal Goal) (*GoalResult, error) {
	return synth.SynthesizeToGoal(prof, base, goal)
}

// Spec is the synthesized ISA definition — the contents of the FITS
// processor's programmable instruction decoder, register window and
// immediate value storage.
type Spec = fits.Spec

// UnmarshalConfig restores a Spec from a decoder-configuration image
// (Spec.MarshalConfig), the paper's post-fabrication download.
func UnmarshalConfig(data []byte) (*Spec, error) { return fits.UnmarshalConfig(data) }

// ParseAsm assembles textual assembly (the syntax Format/disassembly
// emits) into a program.
func ParseAsm(name, src string) (*Program, error) { return asm.Parse(name, src) }

// FormatAsm renders a program as assembly text that ParseAsm accepts.
func FormatAsm(p *Program) string { return asm.Format(p) }

// Signature identifies an instruction shape (the unit of synthesis).
type Signature = fits.Signature

// Translation is a completed ARM→FITS binary translation: the lowered
// program, its 16-bit image and the 1:1/1:n mapping bookkeeping.
type Translation = translate.Result

// Translate retargets a program onto a synthesized instruction set.
func Translate(p *Program, spec *Spec) (*Translation, error) {
	return translate.Translate(p, spec)
}

// AssembleARM encodes a program into its 32-bit ARM baseline image.
func AssembleARM(p *Program) (*Image, error) { return arm.Assemble(p) }

// ThumbSizing is the Thumb-style code-size baseline result.
type ThumbSizing = thumb.Sizing

// ThumbSize computes the Thumb-style 16-bit sizing of a program
// (Figure 5's middle bar).
func ThumbSize(p *Program) (*ThumbSizing, error) { return thumb.Translate(p) }

// ---- Simulation ----

// Config is one simulated processor configuration (ISA × I-cache).
type Config = sim.Config

// The paper's four configurations: the baseline ARM with 16 KB and 8 KB
// I-caches, and the synthesized FITS ISA with the same two caches.
var (
	ARM16  = sim.ARM16
	ARM8   = sim.ARM8
	FITS16 = sim.FITS16
	FITS8  = sim.FITS8
)

// Configs lists the four configurations in the paper's order.
var Configs = sim.Configs

// Setup bundles everything derived from one workload: the ARM image,
// profile, synthesis, FITS translation and Thumb sizing.
type Setup = sim.Setup

// Result is one configuration's timing/power outcome.
type Result = sim.Result

// CacheConfig parameterises an instruction cache.
type CacheConfig = cache.Config

// Calibration holds the power-model coefficients.
type Calibration = power.Calibration

// DefaultCalibration returns the SA-1100-class power calibration.
func DefaultCalibration() Calibration { return power.DefaultCalibration() }

// PowerReport is the energy/power outcome of one run.
type PowerReport = power.Report

// Kernel is one benchmark workload of the MiBench-like suite.
type Kernel = kernels.Kernel

// Kernels returns the 21-benchmark suite, sorted by name.
func Kernels() []Kernel { return kernels.All() }

// KernelByName looks up one benchmark.
func KernelByName(name string) (Kernel, error) { return kernels.Get(name) }

// Prepare builds, profiles, synthesizes and translates one kernel
// (scale ≤ 0 uses the kernel's default workload scale).
func Prepare(k Kernel, scale int, opts SynthOptions) (*Setup, error) {
	return sim.PrepareWith(k, scale, sim.PrepareOptions{Synth: opts})
}

// PrepareProgram runs the whole design flow over a user-authored
// program with default options.
func PrepareProgram(p *Program) (*Setup, error) {
	return Prepare(kernels.FromProgram(p), 1, DefaultSynthOptions())
}

// RunFunctional executes a program on the functional interpreter and
// returns the finished machine (architectural state and SWI-1 output).
// Call its Release once done reading it to return its memory for reuse.
func RunFunctional(p *Program, maxInstrs uint64) (*cpu.Machine, error) {
	return cpu.RunFunctional(p, maxInstrs)
}

// ---- Experiments ----

// Suite holds prepared setups and timing results for the whole
// benchmark suite.
type Suite = experiments.Suite

// Table is one rendered experiment (figure) result.
type Table = experiments.Table

// RunSuite prepares and simulates the 21-kernel suite under the four
// configurations. scale ≤ 0 uses per-kernel defaults; progress
// (optional) receives one line per kernel.
func RunSuite(scale int, progress func(string)) (*Suite, error) {
	return experiments.RunSuite(experiments.Options{Scale: scale, Progress: experiments.LineProgress(progress)})
}
