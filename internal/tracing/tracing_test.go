package tracing

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// TestEventSize pins the record layout: Event is a fixed 24 bytes with
// no pointers, so rings of them are GC-free and the emit cost is one
// struct store.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Fatalf("Event is %d bytes, want 24", got)
	}
}

func TestRingOverflow(t *testing.T) {
	r := MustNewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Cycle: uint64(i), Kind: KindFetch})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Total/Dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d records, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d has cycle %d, want %d (oldest-first suffix)", i, e.Cycle, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := MustNewRing(8)
	for i := 0; i < 3; i++ {
		r.Emit(Event{Cycle: uint64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 0 || r.Total() != 3 {
		t.Fatalf("Len/Dropped/Total = %d/%d/%d, want 3/0/3", r.Len(), r.Dropped(), r.Total())
	}
	for i, e := range r.Events() {
		if e.Cycle != uint64(i) {
			t.Errorf("event %d has cycle %d", i, e.Cycle)
		}
	}
}

func TestRingRejectsBadCapacity(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewRing(-1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestCounts(t *testing.T) {
	var c Counts
	c.Emit(Event{Kind: KindFetch})
	c.Emit(Event{Kind: KindMiss, Payload: 24})
	c.Emit(Event{Kind: KindMiss, Payload: 24})
	c.Emit(Event{Kind: KindStall, Cause: CauseMiss})
	c.Emit(Event{Kind: KindStall, Cause: CauseHazard})
	c.Emit(Event{Kind: KindStall, Cause: CauseHazard})
	c.Emit(Event{Kind: KindBranch, Payload: 1})
	c.Emit(Event{Kind: KindBranch, Payload: 0})
	c.Emit(Event{Kind: Kind(200)}) // unknown kinds are ignored

	if c.Kind[KindFetch] != 1 || c.Kind[KindMiss] != 2 || c.Kind[KindStall] != 3 || c.Kind[KindBranch] != 2 {
		t.Errorf("kind counts %v", c.Kind)
	}
	if c.StallCycles[CauseMiss] != 1 || c.StallCycles[CauseHazard] != 2 || c.Stalls() != 3 {
		t.Errorf("stall counts %v (total %d)", c.StallCycles, c.Stalls())
	}
	if c.Taken != 1 {
		t.Errorf("taken %d, want 1", c.Taken)
	}
	if c.MissStallCycles != 48 {
		t.Errorf("miss stall cycles %d, want 48", c.MissStallCycles)
	}
}

// chromeSample is one event of every kind, enough to exercise each
// rendering arm of BuildChromeTrace.
func chromeSample() []Event {
	return []Event{
		{Cycle: 0, PC: 0x8000, Kind: KindFetch},
		{Cycle: 1, PC: 0x8020, Kind: KindMiss, Payload: 24},
		{Cycle: 26, PC: 0x8004, Kind: KindStall, Cause: CauseMiss},
		{Cycle: 27, PC: 0x8008, Kind: KindBranch, Payload: 1},
		{Cycle: 28, PC: 0x8008, Kind: KindMispredict, Payload: 2},
		{Cycle: 40, PC: 0x8000, Kind: KindSuperblock, Payload: 64},
		{Cycle: 50, Kind: KindWindow, Cause: WindowMeasure, Payload: 1024},
	}
}

func TestChromeRoundTrip(t *testing.T) {
	meta := TraceMeta{Kernel: "crc32", Config: "FITS8", Total: 7, Dropped: 0}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, chromeSample(), meta); err != nil {
		t.Fatal(err)
	}
	doc, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("self-emitted trace failed validation: %v", err)
	}
	if got := len(doc.TraceEvents); got != numLanes+7 {
		t.Errorf("%d records, want %d lane headers + 7 events", got, numLanes)
	}
	if doc.OtherData["kernel"] != "crc32" || doc.OtherData["config"] != "FITS8" {
		t.Errorf("metadata %v", doc.OtherData)
	}
	if doc.OtherData["total_events"] != "7" || doc.OtherData["dropped"] != "0" {
		t.Errorf("drop accounting %v", doc.OtherData)
	}
}

func TestChromeValidateRejects(t *testing.T) {
	cases := map[string]string{
		"empty":        `{"traceEvents":[],"displayTimeUnit":"ms"}`,
		"unknownField": `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":1,"ts":0}],"displayTimeUnit":"ms","bogus":1}`,
		"badPhase":     `{"traceEvents":[{"name":"x","ph":"Z","pid":1,"tid":1,"ts":0}],"displayTimeUnit":"ms"}`,
		"badLane":      `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":99,"ts":0}],"displayTimeUnit":"ms"}`,
		"missingLanes": `{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"fetch"}},{"name":"x","ph":"X","pid":1,"tid":1,"ts":0}],"displayTimeUnit":"ms"}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: invalid document accepted", name)
		}
	}
}

// fakeEnergy is a scripted AccessEnergy: every access costs the next
// value of the sequence, and the running sum mirrors the meter's
// accumulation order exactly.
type fakeEnergy struct {
	last float64
	sum  float64
}

func (f *fakeEnergy) charge(pj float64)     { f.last = pj; f.sum += pj }
func (f *fakeEnergy) LastAccessPJ() float64 { return f.last }
func (f *fakeEnergy) AccessPJ() float64     { return f.sum }

func testBlocks() []Block {
	return []Block{
		{Label: "main", Addr: 0x8000, End: 0x8008},
		{Label: "loop", Addr: 0x8008, End: 0x8010},
	}
}

func TestProfilerAttribution(t *testing.T) {
	p, err := NewProfiler(testBlocks(), 0x8000, 0x10)
	if err != nil {
		t.Fatal(err)
	}
	var src fakeEnergy
	p.BindEnergy(&src)

	src.charge(10)
	p.Emit(Event{Kind: KindFetch, PC: 0x8000}) // main
	src.charge(20)
	p.Emit(Event{Kind: KindMiss, PC: 0x8008, Payload: 24}) // loop
	src.charge(5)
	p.Emit(Event{Kind: KindFetch, PC: 0x9000}) // outside text → catch-all
	p.Emit(Event{Kind: KindStall, PC: 0x800a, Cause: CauseHazard})
	p.Emit(Event{Kind: KindMispredict, PC: 0x800c, Payload: 2})

	if p.TotalPJ() != src.AccessPJ() {
		t.Errorf("TotalPJ %v != source AccessPJ %v", p.TotalPJ(), src.AccessPJ())
	}
	if p.BlockPJ() != 35 {
		t.Errorf("BlockPJ %v, want 35", p.BlockPJ())
	}
	rows := p.Table(0)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want main + loop + catch-all", len(rows))
	}
	// Worst-first by energy: loop (20) > main (10) > outside (5).
	if rows[0].Label != "loop" || rows[0].FetchPJ != 20 || rows[0].Misses != 1 ||
		rows[0].StallCycles != 1 || rows[0].Stall[CauseHazard] != 1 || rows[0].Mispredicts != 1 {
		t.Errorf("loop row %+v", rows[0])
	}
	if rows[1].Label != "main" || rows[1].FetchPJ != 10 {
		t.Errorf("main row %+v", rows[1])
	}
	if rows[2].Label != "(outside text)" || rows[2].FetchPJ != 5 {
		t.Errorf("catch-all row %+v", rows[2])
	}

	var sb strings.Builder
	if err := p.WriteFolded(&sb, "k;cfg"); err != nil {
		t.Fatal(err)
	}
	want := "k;cfg;loop;block_00008008 20\nk;cfg;main;block_00008000 10\nk;cfg;(outside text) 5\n"
	if sb.String() != want {
		t.Errorf("folded output:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestProfilerRebindResets pins the re-bind contract the sampled
// estimator's short-run fallback depends on: binding a fresh energy
// source discards everything attributed so far, so conservation against
// the new source stays exact.
func TestProfilerRebindResets(t *testing.T) {
	p, err := NewProfiler(testBlocks(), 0x8000, 0x10)
	if err != nil {
		t.Fatal(err)
	}
	var first fakeEnergy
	p.BindEnergy(&first)
	first.charge(100)
	p.Emit(Event{Kind: KindFetch, PC: 0x8000})
	p.Emit(Event{Kind: KindStall, PC: 0x8000, Cause: CauseMiss})

	var second fakeEnergy
	p.BindEnergy(&second)
	if p.TotalPJ() != 0 {
		t.Fatalf("rebind kept %v pJ attributed", p.TotalPJ())
	}
	second.charge(7)
	p.Emit(Event{Kind: KindFetch, PC: 0x8008})
	if p.TotalPJ() != second.AccessPJ() {
		t.Errorf("TotalPJ %v != rebound source %v", p.TotalPJ(), second.AccessPJ())
	}
	rows := p.Table(0)
	if len(rows) != 1 || rows[0].Label != "loop" || rows[0].FetchPJ != 7 {
		t.Errorf("post-rebind rows %+v", rows)
	}
}

func TestProfilerRejectsBadBlocks(t *testing.T) {
	if _, err := NewProfiler([]Block{{Addr: 0x7000, End: 0x7004}}, 0x8000, 0x10); err == nil {
		t.Error("out-of-text block accepted")
	}
	if _, err := NewProfiler([]Block{
		{Addr: 0x8000, End: 0x8008},
		{Addr: 0x8004, End: 0x800c},
	}, 0x8000, 0x10); err == nil {
		t.Error("overlapping blocks accepted")
	}
	if _, err := NewProfiler(nil, 0x8000, -1); err == nil {
		t.Error("negative text size accepted")
	}
}

// TestSinkEmitNoAllocs pins the hot-path contract for every sink in the
// package: Emit must not allocate.
func TestSinkEmitNoAllocs(t *testing.T) {
	ring := MustNewRing(16)
	var counts Counts
	prof, err := NewProfiler(testBlocks(), 0x8000, 0x10)
	if err != nil {
		t.Fatal(err)
	}
	var src fakeEnergy
	prof.BindEnergy(&src)
	src.charge(1)
	e := Event{Kind: KindFetch, PC: 0x8000}
	for name, sink := range map[string]EventSink{"ring": ring, "counts": &counts, "profiler": prof} {
		if allocs := testing.AllocsPerRun(1000, func() { sink.Emit(e) }); allocs != 0 {
			t.Errorf("%s: Emit allocates %v allocs/op", name, allocs)
		}
	}
}
