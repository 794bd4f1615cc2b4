package power

import (
	"fmt"
	"math/bits"
)

// A run is a stretch of a stream whose accesses all hit: a replay unit
// of the timing pipeline's segment memo, whose fetches and cycles are
// known before it is applied. Its summary, built once by a RunBuilder
// and applied any number of times by Stream.ReplayRun, leaves the
// stream exactly as the run's Access and Tick calls would.
//
// Within a run every count is fixed but two: the first access's
// address toggles depend on the address before the run and, under
// UseHamming, its data toggles on the block before it. So the summary
// keeps cumulative toggles net of the first access (F below), and
// ReplayRun adds the stream's total and the first access's toggles to
// them. For the peak window, each access cycle of the run is a
// candidate as in Stream.fold, and there are three kinds:
//
//   - head cycles, within PeakWindow cycles of the first access: their
//     windows reach the first access or the stream before the run, so
//     ReplayRun walks the ring for them as fold does;
//   - inside cycles: their windows lie wholly inside the run, past its
//     first access, and hold no miss, so their largest toggle count is
//     precomputed and priced once;
//   - the last access cycle stays open, as after its Access call.
//
// Past the inside cycles the ring holds only the run's own latest
// window, so ReplayRun writes those tail marks directly.
//
// A summary is a slice of words: a header (runHdr words, plus
// runHamming more under UseHamming) followed by the head marks, each
// its cycle's offset from the first access's and its F, and the tail
// marks, each its cycle's offset back from the newest tail mark's and
// its F. A mark takes 32 bits, two to a word, while the window is at
// most maxNarrowWindow cycles long, and a word otherwise. A summary is
// valid only for streams with the calibration of the stream that built
// it.

// Header words of a run summary.
const (
	runCounts = iota // accesses | cycles<<32
	runCycles        // relative cycle of the first access | of the last<<32
	runAddrs         // first address | last address<<32
	runTotals        // F after the last access | F before the oldest tail mark<<32
	runInside        // largest inside-window toggle count | bulk accesses<<32
	runSizes         // head marks | tail marks<<20 | first access's fixed data toggles<<40 | last access's toggles<<48
	runNewest        // relative cycle of the newest tail mark
	runHdr
	// Under UseHamming the header goes on with the packed first and last
	// blocks, two words each.
	runHamming = 4
)

// maxRunAccesses bounds a run so that every cumulative toggle count
// (at most 160 per access) fits the 24 bits a narrow mark gives it; a
// segment of the pipeline's memo makes at most 65 535 fetches.
const maxRunAccesses = 1 << 16

// maxNarrowWindow is the longest peak window whose marks fit 32 bits:
// a mark's cycle offset is less than the window.
const maxNarrowWindow = 1 << 8

const (
	lo24 = 1<<24 - 1
	lo32 = 1<<32 - 1
)

// runMark returns mark k of a summary's marks: its cycle offset and F.
func runMark(marks []uint64, k int, narrow bool) (off, f uint64) {
	if narrow {
		m := marks[k>>1] >> (32 * (k & 1)) & lo32
		return m >> 24, m & lo24
	}
	return marks[k] >> 32, marks[k] & lo32
}

// A RunBuilder digests a run's accesses into a summary appended to a
// caller's slice (Stream.BeginRun); it allocates only when that slice
// must grow. Past the head it keeps only the marks a later window can
// reach, so a long run needs little more room than its summary.
type RunBuilder struct {
	dst     []uint64
	start   int    // index of the summary's header in dst
	first   int    // index of its first mark
	hamming bool   // the stream's UseHamming
	window  uint64 // the stream's PeakWindow

	head   int    // head marks: the first ones, every one before an inside mark
	i      int    // the newest mark PeakWindow cycles older than the newest one
	inside uint64 // largest inside-window toggle count so far

	n        uint32 // accesses so far
	bulk     uint32 // accesses past the first PeakWindow cycles
	at       uint32 // relative cycle of the open access cycle
	a1       uint32 // relative cycle of the first access
	f        uint64 // toggles so far, net of the first access
	lastT    int    // toggles of the latest access
	d1       int    // fixed-activity data toggles of the first access
	addr1    uint32
	prevAddr uint32
	data1    [2]uint64
	prevData [2]uint64
}

// BeginRun starts the summary of a run on s, to be appended to dst.
func (s *Stream) BeginRun(dst []uint64) RunBuilder {
	b := RunBuilder{dst: dst, start: len(dst), hamming: s.cal.UseHamming, window: s.window}
	hdr := runHdr
	if b.hamming {
		hdr += runHamming
	}
	b.first = b.start + hdr
	var zero [runHdr + runHamming]uint64
	b.dst = append(b.dst, zero[:hdr]...)
	return b
}

// Access adds an access, at ticks after the run's start, delivering
// block (up to 16 bytes count) at addr. Ticks never decrease from one
// access to the next; several accesses may share a cycle.
func (b *RunBuilder) Access(at, addr uint32, block []byte) {
	if b.n > 0 && at < b.at {
		panic(fmt.Sprintf("power: run access at tick %d after one at tick %d", at, b.at))
	}
	if b.n == maxRunAccesses {
		panic("power: run too long")
	}
	data, cur := busToggles(block, b.prevData, b.hamming)
	if b.n == 0 {
		// The first access's toggles stay open; under the fixed
		// activity its data toggles are known already.
		b.a1, b.at, b.addr1, b.data1 = at, at, addr, cur
		b.d1, _ = busToggles(block, [2]uint64{}, false)
	} else {
		if at != b.at {
			b.close()
			b.at = at
		}
		b.lastT = data + bits.OnesCount32(addr^b.prevAddr)
		b.f += uint64(b.lastT)
		if uint64(at) >= uint64(b.a1)+b.window {
			b.bulk++
		}
	}
	b.prevAddr, b.prevData = addr, cur
	b.n++
}

// close appends the mark of the open access cycle, which has closed,
// and offers the window ending there to the inside maximum when it
// lies past the first PeakWindow cycles: the toggles after mark i, the
// newest mark at least PeakWindow cycles older (mark 0, the first
// access's cycle, always is). Mark i only moves forward, so the marks
// between the head and it are dropped once there are enough of them.
func (b *RunBuilder) close() {
	at := uint64(b.at)
	b.dst = append(b.dst, at<<32|b.f)
	marks := b.dst[b.first:]
	j := len(marks) - 1
	if at < uint64(b.a1)+b.window {
		b.head++
		return
	}
	for b.i+1 < j && marks[b.i+1]>>32+b.window <= at {
		b.i++
	}
	if d := b.f - marks[b.i]&lo32; d > b.inside {
		b.inside = d
	}
	if b.i-b.head >= 64 {
		n := copy(marks[b.head:], marks[b.i:])
		b.dst = b.dst[:b.first+b.head+n]
		b.i = b.head
	}
}

// End closes the run after cycles ticks from its start (no fewer than
// the last access's) and returns dst with the summary appended.
func (b *RunBuilder) End(cycles uint32) []uint64 {
	if b.n > 0 && cycles < b.at {
		panic(fmt.Sprintf("power: run of %d ticks ends before its access at tick %d", cycles, b.at))
	}
	marks := b.dst[b.first:] // the closed access cycles kept, every one but the last
	var base, newest uint64
	tail := 0
	if b.head < len(marks) {
		// Some window lies inside, so the ring ends up holding the
		// marks after mark i: the window ending at the newest mark.
		base, tail = marks[b.i]&lo32, len(marks)-b.i-1
		newest = marks[len(marks)-1] >> 32
	}
	// Encode the head and tail marks past the end, then move them down
	// (the two may overlap).
	end := len(b.dst)
	narrow := b.window <= maxNarrowWindow
	var word uint64
	k := 0
	put := func(off, f uint64) {
		if !narrow {
			b.dst = append(b.dst, off<<32|f)
			return
		}
		word |= (off<<24 | f) << (32 * (k & 1))
		if k++; k&1 == 0 {
			b.dst, word = append(b.dst, word), 0
		}
	}
	for _, m := range marks[:b.head] {
		put(m>>32-uint64(b.a1), m&lo32)
	}
	for _, m := range marks[len(marks)-tail:] {
		put(newest-m>>32, m&lo32)
	}
	if k&1 == 1 {
		b.dst = append(b.dst, word)
	}
	b.dst = b.dst[:b.first+copy(b.dst[b.first:], b.dst[end:])]
	h := b.dst[b.start:b.first]
	h[runCounts] = uint64(b.n) | uint64(cycles)<<32
	h[runCycles] = uint64(b.a1) | uint64(b.at)<<32
	h[runAddrs] = uint64(b.addr1) | uint64(b.prevAddr)<<32
	h[runTotals] = b.f | base<<32
	h[runInside] = b.inside | uint64(b.bulk)<<32
	h[runSizes] = uint64(b.head) | uint64(tail)<<20 | uint64(b.d1)<<40 | uint64(b.lastT)<<48
	h[runNewest] = newest
	if b.hamming {
		h[runHdr], h[runHdr+1], h[runHdr+2], h[runHdr+3] = b.data1[0], b.data1[1], b.prevData[0], b.prevData[1]
	}
	return b.dst
}

// ReplayRun applies a run summary built on a stream of the same
// calibration: afterwards every count, the peak window and every
// reading are what the run's Access and Tick calls would have left. It
// returns the run's accesses and how many of them lie past its first
// PeakWindow cycles, counted from the first access: the accesses whose
// windows it does not walk.
func (s *Stream) ReplayRun(run []uint64) (accesses, bulk uint32) {
	n, cycles := uint32(run[runCounts]), run[runCounts]>>32
	c0 := s.cycles
	if n == 0 {
		s.cycles = c0 + cycles
		return 0, 0
	}
	s.cycles = c0 + run[runCycles]&lo32
	if s.open && s.at != s.cycles {
		s.fold()
	}
	sizes := run[runSizes]
	head, tail := int(sizes&(1<<20-1)), int(sizes>>20&(1<<20-1))
	data := int(sizes >> 40 & 0xFF)
	marks := run[runHdr:]
	if s.cal.UseHamming {
		data = bits.OnesCount64(run[runHdr]^s.prevData[0]) + bits.OnesCount64(run[runHdr+1]^s.prevData[1])
		s.prevData = [2]uint64{run[runHdr+2], run[runHdr+3]}
		marks = run[runHdr+runHamming:]
	}
	t1 := data + bits.OnesCount32(uint32(run[runAddrs])^s.prevAddr)
	base := s.toggles + uint64(t1)
	narrow := s.window <= maxNarrowWindow
	a1 := c0 + run[runCycles]&lo32
	if tail == 0 {
		// The run's marks stay in the ring: fold them as Access would.
		for k := range head {
			off, f := runMark(marks, k, narrow)
			s.at, s.toggles = a1+off, base+f
			s.fold()
		}
	} else {
		// The ring ends up holding the tail alone, so the head windows
		// only read it: each reaches back to a mark from before the run
		// (a head cycle lies within PeakWindow cycles of the first
		// access), and the pops are fold's.
		ring, mask, w, misses := s.marks, s.mask, s.window, s.misses
		h, bT, bM, peak := s.head, s.baseT, s.baseM, s.peakAcPJ
		for k := range head {
			off, f := runMark(marks, k, narrow)
			for h != s.tail && ring[h&mask].cycle+w <= a1+off {
				bT, bM = ring[h&mask].toggles, ring[h&mask].misses
				h++
			}
			if pj := s.price(base+f-bT, misses-bM); pj > peak {
				peak = pj
			}
		}
		if pj := s.price(run[runInside]&lo32, 0); pj > peak {
			peak = pj
		}
		s.peakAcPJ = peak
		t := s.tail
		s.head, s.baseT, s.baseM = t, base+run[runTotals]>>32, misses
		newest := c0 + run[runNewest]
		for k := head; k < head+tail; k++ {
			off, f := runMark(marks, k, narrow)
			ring[t&mask] = windowMark{newest - off, base + f, misses}
			t++
		}
		s.tail = t
	}
	s.open, s.at = true, c0+run[runCycles]>>32
	s.toggles = base + run[runTotals]&lo32
	s.accesses += uint64(n)
	s.cycles = c0 + cycles
	s.prevAddr = uint32(run[runAddrs] >> 32)
	s.lastToggles, s.lastMiss = t1, false
	if n > 1 {
		s.lastToggles = int(sizes >> 48 & 0xFF)
	}
	return n, uint32(run[runInside] >> 32)
}
