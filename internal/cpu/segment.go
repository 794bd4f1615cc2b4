package cpu

import (
	"math"
	"slices"

	"powerfits/internal/reuse"
)

// The segment memo (FastSim-style memoization of the cycle loop).
//
// A segment is the stretch of the cycle loop from one fetch redirect
// (or the run start, or a Resync) to the next. At its start the fetch
// unit is empty, so the loop's whole state is the PC index, the flush
// bubble and each register's ready time relative to the current cycle
// (the boundary state). Every instruction before the segment's last
// falls through, so the segment is straight-line code, and its timing
// is a pure function of that entry state and its outcome string (each
// instruction's Executed bit and the last one's Taken bit), as long as
// every fetch hits.
//
// RunUntil therefore executes a segment functionally first (execSegment)
// and looks its (entry state, outcome string) up in the run's memo. On a
// hit whose fetched lines are all resident it replays the segment: the
// recorded counter deltas and exit state are applied, the cache side of
// its fetches is made through the port (FetchPort.Replay), and the
// segment joins the pending replay unit. Otherwise the one cycle loop
// times the segment over the recorded outcomes (it never re-executes
// them) and, when every fetch hit, records it.
//
// A replay unit is a run of consecutive replays, a path in the memo's
// trie keyed by (parent path, segment entry) and at most unitMaxCycles
// cycles long (a longer segment is a unit of its own). Each path node
// holds the port's summary of its fetches and ticks, built once
// (FetchPort.Summarize), so the power stream takes a whole unit in one
// step (FetchPort.ReplayUnit) with every count, the peak window and
// every reading exact. The pending unit is applied before the cycle
// loop makes its next fetch or tick and before RunUntil returns, so no
// caller sees the stream between.

const (
	// segMaxInstrs bounds the outcome string: a longer straight-line
	// stretch is timed by the cycle loop and never memoized.
	segMaxInstrs = 4096
	segWords     = segMaxInstrs / 64
	// memoMaxEntries bounds one run's memo; past it new segments are
	// timed but not stored. No run of the suite at scale 4 needs more
	// than ~3 000.
	memoMaxEntries = 1 << 13
	// memoMaxGaps bounds the fetch-gap arena the same way.
	memoMaxGaps = 1 << 20
	// unitMaxCycles caps a replay unit's path: a segment joins the
	// pending unit only while the unit stays within this many cycles.
	unitMaxCycles = 64
	// memoMaxNodes bounds the path trie: once it holds this many nodes a
	// path with no node yet ends its unit instead. Every entry keeps its
	// own one-segment node besides. No run of the suite at scale 4 needs
	// more than ~10 200.
	memoMaxNodes = 1 << 14
	// memoFreeCap bounds the free list of released memos, and a memo
	// grown past memoKeepEntries entries or memoKeepNodes nodes is not
	// kept on it: the few runs that need one that large allocate their
	// own.
	memoFreeCap     = 4
	memoKeepEntries = 1 << 10
	memoKeepNodes   = 1 << 12
)

// A boundary state packs, relative to the boundary's cycle, how many
// cycles each regReady entry lies ahead (stBits bits each, 0 once
// ready) and the flush bubble (from bit stBubble) into one word.
const (
	stBits   = 3
	stMax    = 1<<stBits - 1
	stBubble = stBits * (flagsReg + 1)
)

// state returns the run's boundary state; ok is false when a value does
// not fit its field (configured latencies or penalties far beyond the
// defaults), and such a boundary is never memoized.
func (p *PipelineRun) state() (st uint64, ok bool) {
	if p.bubble > 0xFF {
		return 0, false
	}
	st = uint64(p.bubble) << stBubble
	if p.lazy {
		return st | p.st, true
	}
	for r, t := range p.regReady {
		if t > p.cycle {
			if t-p.cycle > stMax {
				return 0, false
			}
			st |= (t - p.cycle) << (stBits * r)
		}
	}
	return st, true
}

// materialize writes the ready times a replay left packed in p.st back
// into regReady, for the cycle loop.
func (p *PipelineRun) materialize() {
	for r := range p.regReady {
		p.regReady[r] = p.cycle + p.st>>(stBits*r)&stMax
	}
	p.lazy = false
}

// atBoundary reports whether the fetch unit is in the state a redirect
// leaves: nothing fetched, nothing in flight, aimed at the next
// instruction. From there the future is a function of the boundary
// state.
func (p *PipelineRun) atBoundary() bool {
	return p.fetchBusy == 0 && !p.hasInflight && p.fStart == p.fEnd &&
		p.fStart == p.recs[p.m.PCIdx].Addr
}

// segQueue holds the outcomes of instructions executed ahead of their
// timing: the cycle loop issues these n first, then steps the machine
// itself.
type segQueue struct {
	pc    int              // index of the first queued instruction
	ic    uint64           // Machine.InstrCount before it
	n     int              // queued instructions
	taken bool             // the last one's Taken bit (only the last can be taken)
	ended bool             // the last one ends the segment (it redirects fetch)
	err   error            // the step after the n-th failed (it may have counted)
	bits  [segWords]uint64 // bit i: instruction i's Executed

	// Set by replay when the queue is a whole segment entered at a
	// boundary: its key, and whether the cycle loop should record it.
	st     uint64
	hash   uint64
	record bool
}

// words returns the outcome words in use.
func (q *segQueue) words() []uint64 { return q.bits[:(q.n+63)/64] }

// executed reports queued instruction i's Executed bit.
func (q *segQueue) executed(i int) bool { return q.bits[i>>6]&(1<<(i&63)) != 0 }

// keyHash hashes the queue's key: first index, boundary state and
// outcome string.
func (q *segQueue) keyHash() uint64 {
	h := uint64(q.pc) | uint64(q.n)<<32
	if q.taken {
		h |= 1 << 63
	}
	h = mix(mix(h, q.st), q.bits[0])
	for _, w := range q.words()[1:] {
		h = mix(h, w)
	}
	return h
}

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// execSegment executes the segment starting at the machine's PC
// functionally, at most limit instructions, into the queue. It stops
// after the instruction that redirects fetch (ended), at a halt, at a
// step error (kept in q.err for the cycle loop to return where the step
// would have issued) or at a bound; only an ended queue is a whole
// segment. A fused run executes in one runFusedBlock call, cut to the
// room left in the segment and in the machine's budget; everything else
// steps. The cycle loop always issues the whole queue, since it holds
// no more than the run's instruction target allows; only the cycle
// budget, a deadlock guard, can stop it inside one, and the machine is
// then ahead of the timing by the rest of the queue.
func (p *PipelineRun) execSegment(limit uint64) {
	m, sem, recs := p.m, p.sem, p.recs
	q := &p.q
	q.pc, q.ic, q.taken, q.ended, q.record = m.PCIdx, m.InstrCount, false, false, false
	max := segMaxInstrs
	if limit < segMaxInstrs {
		max = int(limit)
	}
	// The outcome word being filled stays in w; bits holds the full ones.
	n, w := 0, uint64(0)
	// executed appends k Executed bits.
	executed := func(k int) {
		for k > 0 {
			t := min(k, 64-n&63)
			w |= (1<<t - 1) << (n & 63)
			n, k = n+t, k-t
			if n&63 == 0 {
				q.bits[n>>6-1], w = w, 0
			}
		}
	}
	defer func() {
		if n&63 != 0 {
			q.bits[n>>6] = w
		}
		q.n = n
	}()
	for n < max {
		idx := m.PCIdx
		if k := p.fusedRoom(idx, max-n); k > 0 {
			before := m.InstrCount
			if err := m.runFusedBlock(sem, idx, k, m.DynCount); err != nil {
				executed(int(m.InstrCount - before - 1))
				q.err = err
				return
			}
			executed(k)
			continue
		}
		r, err := m.stepCompiled(sem)
		if err != nil {
			q.err = err
			return
		}
		if r.Executed {
			w |= 1 << (n & 63)
		}
		if n++; n&63 == 0 {
			q.bits[n>>6-1], w = w, 0
		}
		if m.Halted {
			return
		}
		if fl := recs[idx].Flags; fl&DecBranch != 0 && (r.Taken || fl&DecPredTaken != 0) {
			q.taken, q.ended = r.Taken, true
			return
		}
		if m.PCIdx != idx+1 {
			return // not straight-line: let the cycle loop follow the machine
		}
	}
}

// fusedRoom returns how many instructions from idx execSegment may run
// as one fused block: the fused run there, cut to room and to the
// machine's budget (0 where stepCompiled must step, so that it reports
// the budget, a PC out of range or a non-fusible kind). Fused
// instructions never branch, halt or leave the straight line.
func (p *PipelineRun) fusedRoom(idx, room int) int {
	m := p.m
	if idx < 0 || idx >= len(p.sem.fuse) {
		return 0
	}
	k := min(int(p.sem.fuse[idx]), room)
	if m.MaxInstrs > 0 {
		if m.InstrCount >= m.MaxInstrs {
			return 0
		}
		if b := m.MaxInstrs - m.InstrCount; b < uint64(k) {
			k = int(b)
		}
	}
	return k
}

// replay times the segment at a boundary, executing at most limit
// instructions. It executes the segment functionally and, when the memo
// holds it and every block it fetches is resident, replays it and
// returns true. Otherwise the queue is left for the cycle loop (marked
// for recording when the segment is new).
func (p *PipelineRun) replay(limit uint64) bool {
	q := &p.q
	st, ok := p.state()
	p.execSegment(limit)
	if !q.ended || !ok {
		return false
	}
	q.st = st
	q.hash = q.keyHash()
	ei := p.memo.find(q)
	if ei < 0 {
		q.record = true
		return false
	}
	e := &p.memo.entries[ei]
	block := uint32(p.cfg.BlockBytes)
	if p.cycle+uint64(e.cycles) > p.maxCycles || !p.port.Replay(e.lo, block, int(e.nfetch)) {
		return false
	}
	p.extendUnit(ei)
	p.cycle += uint64(e.cycles)
	p.res.addSegCounters(&e.delta)
	p.st, p.lazy = e.out&(1<<stBubble-1), true
	p.bubble = int(e.out >> stBubble)
	addr := p.recs[p.m.PCIdx].Addr
	p.fStart, p.fEnd = addr, addr
	p.replayed += uint64(q.n)
	p.replayedFetches += uint64(e.nfetch)
	q.n = 0
	return true
}

// extendUnit adds the replayed segment entry ei to the pending replay
// unit: the unit's path takes the trie edge to ei while it stays within
// unitMaxCycles cycles and the trie has that node or room for it.
// Otherwise the pending unit is applied and ei starts the next one.
func (p *PipelineRun) extendUnit(ei int32) {
	s := p.memo
	if u := p.unit - 1; u >= 0 {
		// The child the path last went on to is tried first; it exists,
		// so it is within the cap.
		if c := s.nodes[u].next - 1; c >= 0 && s.nodes[c].entry() == ei {
			p.unit = c + 1
			return
		}
		if uint64(s.nodes[u].cycles())+uint64(s.entries[ei].cycles) <= unitMaxCycles {
			if c := s.child(u, ei); c >= 0 {
				p.unit = c + 1
				return
			}
		}
		p.flushUnit()
	}
	if s.entries[ei].root == 0 {
		s.entries[ei].root = s.addNode(-1, ei) + 1
	}
	p.unit = s.entries[ei].root
}

// flushUnit applies the pending replay unit, if any, through the port.
func (p *PipelineRun) flushUnit() {
	if p.unit == 0 {
		return
	}
	p.bulkFetches += uint64(p.port.ReplayUnit(p.memo.summary(p, p.unit-1)))
	p.unit = 0
}

// nSegCounters is the number of PipeResult counters besides Cycles.
const nSegCounters = 12

// segCounters returns every counter of the result except Cycles.
func (r *PipeResult) segCounters() [nSegCounters]uint64 {
	return [nSegCounters]uint64{r.Instrs, r.FetchAccesses, r.FetchStalls, r.Bubbles,
		r.Branches, r.Taken, r.Mispredicts, r.ZeroIssueMiss, r.ZeroIssueBubble,
		r.ZeroIssueFetch, r.ZeroIssueHazard, r.DualIssueCycles}
}

// addSegCounters adds a segment's counter deltas (segCounters order).
func (r *PipeResult) addSegCounters(d *[nSegCounters]uint16) {
	r.Instrs += uint64(d[0])
	r.FetchAccesses += uint64(d[1])
	r.FetchStalls += uint64(d[2])
	r.Bubbles += uint64(d[3])
	r.Branches += uint64(d[4])
	r.Taken += uint64(d[5])
	r.Mispredicts += uint64(d[6])
	r.ZeroIssueMiss += uint64(d[7])
	r.ZeroIssueBubble += uint64(d[8])
	r.ZeroIssueFetch += uint64(d[9])
	r.ZeroIssueHazard += uint64(d[10])
	r.DualIssueCycles += uint64(d[11])
}

// segEntry is one memoized segment: its key (first index, boundary
// state, outcome string) and its timing (cycle count, counter deltas,
// exit state, and the gaps between its fetches, which are of the
// consecutive blocks from lo).
type segEntry struct {
	hash   uint64
	st     uint64 // boundary state at entry
	bits0  uint64 // first outcome word; the rest are at bits[bitsAt:]
	out    uint64 // boundary state at exit
	pc     int32
	cycles uint32
	lo     uint32
	gapsAt uint32 // fetch gaps in segMemo.gaps
	bitsAt uint32
	n      uint16
	nfetch uint16
	delta  [nSegCounters]uint16
	taken  bool
	root   int32 // the node of the unit of this segment alone, + 1; 0 until built
}

// pathNode is one replay unit in the memo's path trie: a root is one
// segment, and a child extends its parent's path by one segment. Only
// the paths a unit ends at are applied, so a node's summary is built
// when it is first applied.
type pathNode struct {
	parent int32  // parent node, -1 for a root
	last   uint32 // the path's last segment | its cycles, at most 255, <<24
	next   int32  // the child the path last went on to, + 1; 0 for none
	sumAt  uint32 // where the port's summary of the path starts in segMemo.sums; 0 until built
}

// entry returns the path's last segment.
func (n *pathNode) entry() int32 { return int32(n.last & (1<<24 - 1)) }

// cycles returns the path's cycles, or 255 for any more.
func (n *pathNode) cycles() uint32 { return n.last >> 24 }

// segMemo is one run's memo: an open-addressed table over entries, with
// the variable-length parts in two arenas. It is leased per run and
// keeps its storage between runs, so a steady-state run allocates
// nothing.
type segMemo struct {
	slots   []int32 // entry index + 1, 0 when empty; a power of two long
	entries []segEntry
	bits    []uint64 // outcome words past the first, for long segments
	// gaps[k] is the number of ticks before a segment's k-th fetch
	// since its previous fetch (or its start).
	gaps []uint8

	// The path trie: its nodes, an open-addressed table over the
	// children (node index + 1, 0 when empty; a power of two long), and
	// the nodes' summaries.
	nodes    []pathNode
	kids     []int32
	children int // nodes in kids
	sums     []uint64
	// Scratch for building a summary: the path's entries and fetches.
	path  []int32
	at    []uint32
	addrs []uint32
}

// find returns the index of the entry keyed like q, or -1.
func (s *segMemo) find(q *segQueue) int32 {
	if len(s.slots) == 0 {
		return -1
	}
	mask := len(s.slots) - 1
	for i := int(q.hash) & mask; ; i = (i + 1) & mask {
		j := s.slots[i]
		if j == 0 {
			return -1
		}
		e := &s.entries[j-1]
		if e.hash == q.hash && e.st == q.st && e.bits0 == q.bits[0] && int(e.pc) == q.pc &&
			int(e.n) == q.n && e.taken == q.taken && (q.n <= 64 || s.sameTail(e, q)) {
			return j - 1
		}
	}
}

// kidHash hashes a trie edge.
func kidHash(parent, entry int32) uint64 { return mix(uint64(uint32(parent)), uint64(entry)) }

// child returns the node extending node u by entry ei, adding it while
// the trie has room, or -1, and makes it the child u last went on to.
func (s *segMemo) child(u, ei int32) int32 {
	c := s.findKid(u, ei)
	if c < 0 {
		if len(s.nodes) >= memoMaxNodes {
			return -1
		}
		c = s.addNode(u, ei)
		if s.children++; 4*s.children > 3*len(s.kids) {
			s.growKids()
		} else {
			s.placeKid(c)
		}
	}
	s.nodes[u].next = c + 1
	return c
}

// findKid returns the node extending node u by entry ei, or -1.
func (s *segMemo) findKid(u, ei int32) int32 {
	if len(s.kids) == 0 {
		return -1
	}
	mask := len(s.kids) - 1
	for i := int(kidHash(u, ei)) & mask; ; i = (i + 1) & mask {
		j := s.kids[i]
		if j == 0 {
			return -1
		}
		if n := &s.nodes[j-1]; n.parent == u && n.entry() == ei {
			return j - 1
		}
	}
}

// addNode appends the node extending node parent (-1 for none) by entry
// ei and returns its index.
func (s *segMemo) addNode(parent, ei int32) int32 {
	cycles := uint64(s.entries[ei].cycles)
	if parent >= 0 {
		cycles += uint64(s.nodes[parent].cycles())
	}
	s.nodes = append(s.nodes, pathNode{parent: parent, last: uint32(ei) | uint32(min(cycles, 255))<<24})
	return int32(len(s.nodes) - 1)
}

// summary returns the port's summary of node u's path, building it on
// first use from the path's fetches.
func (s *segMemo) summary(p *PipelineRun, u int32) []uint64 {
	if at := s.nodes[u].sumAt; at != 0 {
		return s.sums[at:]
	}
	s.path = s.path[:0]
	for v := u; v >= 0; v = s.nodes[v].parent {
		s.path = append(s.path, s.nodes[v].entry())
	}
	slices.Reverse(s.path)
	s.at, s.addrs = s.at[:0], s.addrs[:0]
	block := uint32(p.cfg.BlockBytes)
	var t uint32
	for _, j := range s.path {
		e := &s.entries[j]
		at, addr := t, e.lo
		for _, g := range s.gaps[e.gapsAt : e.gapsAt+uint32(e.nfetch)] {
			at += uint32(g)
			s.at, s.addrs = append(s.at, at), append(s.addrs, addr)
			addr += block
		}
		t += e.cycles
	}
	if len(s.sums) == 0 {
		s.sums = append(s.sums, 0) // offset 0 marks a node without a summary
	}
	at := len(s.sums)
	s.sums = p.port.Summarize(s.sums, s.at, s.addrs, t)
	s.nodes[u].sumAt = uint32(at)
	return s.sums[at:]
}

// placeKid puts child node c into the first free slot of its probe.
func (s *segMemo) placeKid(c int32) {
	mask := len(s.kids) - 1
	i := int(kidHash(s.nodes[c].parent, s.nodes[c].entry())) & mask
	for s.kids[i] != 0 {
		i = (i + 1) & mask
	}
	s.kids[i] = c + 1
}

// growKids doubles the child table and re-places every child node.
func (s *segMemo) growKids() {
	n := 2 * len(s.kids)
	if n == 0 {
		n = 256
	}
	s.kids = make([]int32, n)
	for c := range s.nodes {
		if s.nodes[c].parent >= 0 {
			s.placeKid(int32(c))
		}
	}
}

// sameTail compares a long segment's outcome words past the first.
func (s *segMemo) sameTail(e *segEntry, q *segQueue) bool {
	tail := q.words()[1:]
	return slices.Equal(s.bits[e.bitsAt:int(e.bitsAt)+len(tail)], tail)
}

// record stores the segment the cycle loop just timed from queue q: it
// started at cycle c0 with counters before, and its fetch gaps are
// gaps[gapsAt:]. A segment that does not fit the memo's bounds is
// dropped, its gaps with it.
func (s *segMemo) record(p *PipelineRun, q *segQueue, c0 uint64, before [nSegCounters]uint64, lo uint32, gapsAt int) {
	out, ok := p.state()
	cycles := p.cycle - c0
	nfetch := len(s.gaps) - gapsAt
	e := segEntry{hash: q.hash, st: q.st, bits0: q.bits[0], out: out, pc: int32(q.pc), cycles: uint32(cycles),
		lo: lo, gapsAt: uint32(gapsAt), bitsAt: uint32(len(s.bits)), n: uint16(q.n), nfetch: uint16(nfetch), taken: q.taken}
	after := p.res.segCounters()
	for i := range e.delta {
		d := after[i] - before[i]
		ok = ok && d <= math.MaxUint16
		e.delta[i] = uint16(d)
	}
	if !ok || cycles > math.MaxUint32 || nfetch > math.MaxUint16 || len(s.entries) >= memoMaxEntries ||
		len(s.gaps) > memoMaxGaps || uint64(lo)+uint64(nfetch*p.cfg.BlockBytes) > math.MaxUint32 {
		s.gaps = s.gaps[:gapsAt]
		return
	}
	s.bits = append(s.bits, q.words()[1:]...)
	if 2*(len(s.entries)+1) > len(s.slots) {
		s.grow()
	}
	s.entries = append(s.entries, e)
	s.place(e.hash, int32(len(s.entries)))
}

// place puts entry index j-1 into the first free slot of its probe.
func (s *segMemo) place(hash uint64, j int32) {
	mask := len(s.slots) - 1
	i := int(hash) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = j
}

// grow doubles the slot table and re-places every entry.
func (s *segMemo) grow() {
	n := 2 * len(s.slots)
	if n == 0 {
		n = 256
	}
	s.slots = make([]int32, n)
	for j := range s.entries {
		s.place(s.entries[j].hash, int32(j+1))
	}
}

// reset empties the memo, keeping its storage.
func (s *segMemo) reset() {
	clear(s.slots)
	clear(s.kids)
	s.children = 0
	s.entries, s.bits, s.gaps = s.entries[:0], s.bits[:0], s.gaps[:0]
	s.nodes, s.sums = s.nodes[:0], s.sums[:0]
}

// memoFree holds released memos, so sequential runs reuse the one
// already grown to their size.
var memoFree = reuse.NewFreeList[*segMemo](memoFreeCap)

// releaseMemo empties s and puts it on the free list, or drops it when
// the list is full or s has grown too large to keep.
func releaseMemo(s *segMemo) {
	if cap(s.entries) > memoKeepEntries || cap(s.nodes) > memoKeepNodes {
		return
	}
	s.reset()
	memoFree.Put(s)
}
