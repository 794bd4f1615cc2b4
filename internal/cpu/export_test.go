package cpu

// NoMemo keeps a run on the plain cycle loop: the reference the segment
// memo must match bit for bit.
func NoMemo(p *PipelineRun) { p.noMemo = true }

// SegCounters is the number of counters a memoized segment carries.
const SegCounters = nSegCounters
