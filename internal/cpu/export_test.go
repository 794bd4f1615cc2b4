package cpu

// NoMemo keeps a run on the plain cycle loop: the reference the segment
// memo must match bit for bit.
func NoMemo(p *PipelineRun) { p.noMemo = true }

// SegCounters is the number of counters a memoized segment carries.
const SegCounters = nSegCounters

// StepCompiled is stepCompiled, the shipping per-instruction path, for
// the lockstep tests outside the package. The reference it is compared
// with, Machine.Step, is defined in ref_test.go.
func (m *Machine) StepCompiled(c *Compiled) (StepResult, error) { return m.stepCompiled(c) }
