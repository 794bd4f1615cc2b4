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

// MemEqual reports whether two machines' memories hold the same bytes.
func (m *Machine) MemEqual(o *Machine) bool { return *m.mem == *o.mem }

// FuseLen returns the length of the fusible straight-line run starting
// at instruction index i (0 when i is out of range or not fusible).
func (c *Compiled) FuseLen(i int) int {
	if i < 0 || i >= len(c.fuse) {
		return 0
	}
	return int(c.fuse[i])
}
