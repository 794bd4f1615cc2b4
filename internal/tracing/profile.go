package tracing

import (
	"fmt"
	"io"
	"math"
	"sort"

	"powerfits/internal/metrics"
)

// The attribution profiler: an EventSink that folds fetch energy and
// stall cycles onto basic blocks. Each KindFetch/KindMiss event is
// charged the energy its cache access actually cost (read from the
// bound AccessEnergy at emit time, which is exactly the most recent
// access because the pipeline emits synchronously after the fetch),
// and each KindStall cycle lands on the block of the stalled PC. The
// output is a worst-first table and a folded-stack rendering for
// flamegraph tooling.
//
// Conservation is exact, not approximate: the profiler accumulates its
// grand total in event order, the meter prices its AccessPJ from its
// toggle and miss counts, and under dyadic unit costs (the default
// calibration) no partial sum of either rounds, so TotalPJ() ==
// AccessPJ() bit-for-bit at the end of a run (TestProfilerConservation
// in internal/sim checks == per kernel × configuration, and the
// per-block sums against the meter's switching + fill totals).

// Block is one attribution target: a basic block of the running image,
// labeled by its containing function. The sim layer derives blocks
// from cpu.Decoded block boundaries; tracing only needs the ranges.
type Block struct {
	// Label is the display name (the containing function).
	Label string
	// Addr and End bound the block's encoded bytes [Addr, End).
	Addr, End uint32
}

// BlockStat is one row of the attribution profile.
type BlockStat struct {
	Block
	// Fetches and Misses count cache accesses landing in the block.
	Fetches, Misses uint64
	// FetchPJ is the fetch energy (switching + line fills) attributed
	// to the block.
	FetchPJ float64
	// StallCycles counts zero-issue cycles attributed to the block,
	// split by cause in Stall.
	StallCycles uint64
	Stall       [numCauses]uint64
	// Mispredicts counts prediction misses on branches in the block.
	Mispredicts uint64
}

// blockGranule is the address-resolution granularity of the block
// lookup table: 2 bytes, the smallest instruction size of any target
// encoding, so every instruction (and block-aligned fetch) address
// resolves exactly.
const blockGranule = 2

// Profiler folds the event stream onto blocks. Emit is allocation-free:
// the lookup is one bounds check and one dense table index.
type Profiler struct {
	blocks []Block
	base   uint32
	limit  uint32
	idx    []int32 // (addr-base)/blockGranule → block index, -1 = none

	stats []BlockStat
	catch BlockStat // fetches outside every block (pool reads, bounds)

	energy AccessEnergy
	total  float64 // event-order sum of attributed access energy
}

// NewProfiler builds a profiler over the given blocks, which must lie
// within [base, base+textBytes) and not overlap.
func NewProfiler(blocks []Block, base uint32, textBytes int) (*Profiler, error) {
	if textBytes < 0 {
		return nil, fmt.Errorf("tracing: negative text size %d", textBytes)
	}
	p := &Profiler{
		blocks: blocks,
		base:   base,
		limit:  base + uint32(textBytes),
		idx:    make([]int32, (textBytes+blockGranule-1)/blockGranule),
		stats:  make([]BlockStat, len(blocks)),
		catch:  BlockStat{Block: Block{Label: "(outside text)"}},
	}
	for i := range p.idx {
		p.idx[i] = -1
	}
	for bi, b := range blocks {
		if b.End < b.Addr || b.Addr < base || b.End > p.limit {
			return nil, fmt.Errorf("tracing: block %d [%#x,%#x) outside text [%#x,%#x)",
				bi, b.Addr, b.End, base, p.limit)
		}
		p.stats[bi].Block = b
		for a := b.Addr; a < b.End; a += blockGranule {
			slot := (a - base) / blockGranule
			if p.idx[slot] != -1 {
				return nil, fmt.Errorf("tracing: blocks %d and %d overlap at %#x", p.idx[slot], bi, a)
			}
			p.idx[slot] = int32(bi)
		}
	}
	return p, nil
}

// BindEnergy attaches the run's power model and resets all accumulated
// attribution: the profile follows the run whose meter is bound. The
// sim layer calls it before the run starts; a re-bind mid-stream (the
// sampled estimator's short-run fallback reruns with a fresh meter)
// discards the aborted prefix so conservation against the new meter
// stays exact. Without a bound source the profiler still counts
// fetches and stalls but attributes no energy.
func (p *Profiler) BindEnergy(src AccessEnergy) {
	p.energy = src
	p.total = 0
	for i := range p.stats {
		p.stats[i] = BlockStat{Block: p.stats[i].Block}
	}
	p.catch = BlockStat{Block: p.catch.Block}
}

// stat resolves an address to its accumulator (the catch-all when the
// address lies outside every block).
func (p *Profiler) stat(addr uint32) *BlockStat {
	if addr >= p.base && addr < p.limit {
		if bi := p.idx[(addr-p.base)/blockGranule]; bi >= 0 {
			return &p.stats[bi]
		}
	}
	return &p.catch
}

// Emit implements EventSink.
func (p *Profiler) Emit(e Event) {
	switch e.Kind {
	case KindFetch, KindMiss:
		st := p.stat(e.PC)
		st.Fetches++
		if e.Kind == KindMiss {
			st.Misses++
		}
		if p.energy != nil {
			pj := p.energy.LastAccessPJ()
			st.FetchPJ += pj
			p.total += pj
		}
	case KindStall:
		st := p.stat(e.PC)
		st.StallCycles++
		if int(e.Cause) < numCauses {
			st.Stall[e.Cause]++
		}
	case KindMispredict:
		p.stat(e.PC).Mispredicts++
	}
}

// TotalPJ returns the grand total of attributed access energy, summed
// in event order — bit-identical to the bound meter's AccessPJ when
// every access of the run was traced under dyadic unit costs.
func (p *Profiler) TotalPJ() float64 { return p.total }

// BlockPJ returns the per-block energy re-summed over blocks (catch-all
// included). It equals TotalPJ up to float64 reassociation; the exact
// invariant lives on TotalPJ.
func (p *Profiler) BlockPJ() float64 {
	t := p.catch.FetchPJ
	for i := range p.stats {
		t += p.stats[i].FetchPJ
	}
	return t
}

// Table returns the attribution rows worst-first (by fetch energy,
// then stall cycles, then address), at most n rows (n ≤ 0 = all).
// Blocks that saw no fetches and no stalls are omitted; the catch-all
// row appears only when it is non-empty.
func (p *Profiler) Table(n int) []BlockStat {
	rows := make([]BlockStat, 0, len(p.stats)+1)
	for i := range p.stats {
		if st := &p.stats[i]; st.Fetches > 0 || st.StallCycles > 0 {
			rows = append(rows, *st)
		}
	}
	if p.catch.Fetches > 0 || p.catch.StallCycles > 0 {
		rows = append(rows, p.catch)
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := &rows[a], &rows[b]
		if ra.FetchPJ != rb.FetchPJ {
			return ra.FetchPJ > rb.FetchPJ
		}
		if ra.StallCycles != rb.StallCycles {
			return ra.StallCycles > rb.StallCycles
		}
		return ra.Addr < rb.Addr
	})
	if n > 0 && n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// Hotspots returns the rows that saw fetches as the phase series'
// fetch-energy hotspot map, hottest first. The catch-all row keeps its
// "(outside text)" label and a zero address range.
func (p *Profiler) Hotspots() []metrics.Hotspot {
	var out []metrics.Hotspot
	for _, st := range p.Table(0) {
		if st.Fetches == 0 {
			continue
		}
		out = append(out, metrics.Hotspot{Label: st.Label, StartAddr: st.Addr, EndAddr: st.End,
			Fetches: st.Fetches, Misses: st.Misses, FetchPJ: st.FetchPJ})
	}
	return out
}

// WriteFolded writes the profile in folded-stack format — one
// `root;func;block value` line per block, value in whole picojoules —
// the input format of flamegraph renderers, here an "energy flamegraph"
// whose width is fetch energy instead of samples. root names the run
// (kernel;config) so multiple profiles concatenate cleanly.
func (p *Profiler) WriteFolded(w io.Writer, root string) error {
	for _, st := range p.Table(0) {
		pj := uint64(math.Round(st.FetchPJ))
		if pj == 0 {
			continue
		}
		frame := fmt.Sprintf("%s;block_%08x", st.Label, st.Addr)
		if st.Label == "(outside text)" {
			frame = st.Label
		}
		if _, err := fmt.Fprintf(w, "%s;%s %d\n", root, frame, pj); err != nil {
			return err
		}
	}
	return nil
}
