package tracing

import (
	"math"
	"testing"
)

// fakeMeter is a scripted EnergySource.
type fakeMeter struct{ sw, in, lk float64 }

func (f *fakeMeter) EnergyPJ() (float64, float64, float64) { return f.sw, f.in, f.lk }

func TestSamplerWindows(t *testing.T) {
	f := &fakeMeter{}
	var instrs uint64
	s, err := NewSampler(4, f, func() uint64 { return instrs })
	if err != nil {
		t.Fatal(err)
	}
	// 10 cycles: one fetch per cycle, a miss every 3rd, 2 instrs/cycle.
	// Like the pipeline, the fetch is charged before its event and the
	// cycle's issue and tick come after it.
	for c := uint64(1); c <= 10; c++ {
		f.sw += 10
		kind := KindFetch
		if c%3 == 0 {
			kind = KindMiss
		}
		s.Emit(Event{Cycle: c, Kind: kind})
		instrs += 2
		f.in += 5
		f.lk++
	}
	series := s.Series(10)
	if len(series.Samples) != 3 {
		t.Fatalf("samples = %d, want 3 (4+4+partial 2)", len(series.Samples))
	}
	w0, w2 := series.Samples[0], series.Samples[2]
	if w0.EndCycle != 4 || w0.Cycles != 4 || w0.Fetches != 4 || w0.Misses != 1 {
		t.Errorf("window 0 = %+v, want end 4, 4 cycles, 4 fetches, 1 miss", w0)
	}
	// Closed at cycle 5's fetch event: its access is already charged,
	// its issue and tick are not.
	if w0.SwitchPJ != 50 || w0.InternalPJ != 20 || w0.LeakPJ != 4 {
		t.Errorf("window 0 energy = %+v, want sw 50 in 20 lk 4", w0)
	}
	if w0.Instrs != 8 || w0.IPC() != 2 {
		t.Errorf("window 0 instrs/IPC = %d/%v, want 8/2", w0.Instrs, w0.IPC())
	}
	if w2.EndCycle != 10 || w2.Cycles != 2 || w2.Fetches != 2 {
		t.Errorf("partial window = %+v, want end 10, 2 cycles, 2 fetches", w2)
	}

	// Totals across windows must equal the cumulative sources.
	var cycles, fetches, misses, n uint64
	var sw, in, lk float64
	for _, w := range series.Samples {
		cycles += w.Cycles
		fetches += w.Fetches
		misses += w.Misses
		n += w.Instrs
		sw += w.SwitchPJ
		in += w.InternalPJ
		lk += w.LeakPJ
	}
	if cycles != 10 || fetches != 10 || misses != 3 || n != instrs {
		t.Errorf("window totals %d cycles, %d/%d fetches/misses, %d instrs; want 10, 10/3, %d",
			cycles, fetches, misses, n, instrs)
	}
	if sw != f.sw || in != f.in || lk != f.lk {
		t.Errorf("window energy %v/%v/%v diverges from source %v/%v/%v", sw, in, lk, f.sw, f.in, f.lk)
	}
}

// TestSamplerSparseEvents asserts a window spanning a stretch without
// events closes on the next event and the following window realigns to
// the nominal grid.
func TestSamplerSparseEvents(t *testing.T) {
	s, err := NewSampler(8, &fakeMeter{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit(Event{Cycle: 1, Kind: KindFetch})
	s.Emit(Event{Cycle: 11, Kind: KindStall})
	s.Emit(Event{Cycle: 17, Kind: KindFetch})
	series := s.Series(20)
	var ends []uint64
	for _, w := range series.Samples {
		ends = append(ends, w.EndCycle)
	}
	if len(ends) != 3 || ends[0] != 10 || ends[1] != 16 || ends[2] != 20 {
		t.Fatalf("window ends %v, want [10 16 20]", ends)
	}
	if f := series.Samples[0].Fetches + series.Samples[2].Fetches; f != 2 {
		t.Errorf("fetches landed in the wrong windows: %+v", series.Samples)
	}
}

// TestSamplerAttribution asserts the hotspot rows come from the
// profiler's basic blocks: labelled, hottest-first, with the catch-all
// row for fetches outside every block, and only blocks that saw fetches.
func TestSamplerAttribution(t *testing.T) {
	blocks := []Block{
		{Label: "main", Addr: 0x2000, End: 0x2040},
		{Label: "loop", Addr: 0x2040, End: 0x2080},
		{Label: "idle", Addr: 0x2080, End: 0x2090},
	}
	p, err := NewProfiler(blocks, 0x2000, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	e := &fakeEnergy{}
	p.BindEnergy(e)
	fetch := func(addr uint32, kind Kind, pj float64) {
		e.charge(pj)
		p.Emit(Event{PC: addr, Kind: kind})
	}
	fetch(0x2000, KindFetch, 10)
	fetch(0x2004, KindMiss, 30)
	fetch(0x2040, KindFetch, 5)
	fetch(0x9999, KindFetch, 7)
	p.Emit(Event{PC: 0x2080, Kind: KindStall}) // stalls alone make no hotspot

	hs := p.Hotspots()
	if len(hs) != 3 {
		t.Fatalf("hotspots = %+v, want 3 rows", hs)
	}
	if top := hs[0]; top.Label != "main" || top.StartAddr != 0x2000 || top.EndAddr != 0x2040 ||
		top.FetchPJ != 40 || top.Fetches != 2 || top.Misses != 1 {
		t.Errorf("top hotspot = %+v, want main [0x2000,0x2040) with 40 pJ", top)
	}
	if c := hs[1]; c.Label != "(outside text)" || c.StartAddr != 0 || c.EndAddr != 0 || c.FetchPJ != 7 {
		t.Errorf("catch-all row = %+v, want (outside text) with 7 pJ", c)
	}
	var total float64
	for _, h := range hs {
		total += h.FetchPJ
	}
	if math.Abs(total-52) > 1e-12 {
		t.Errorf("total fetch energy = %v, want 52", total)
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0, &fakeMeter{}, nil); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSampler(-5, &fakeMeter{}, nil); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := NewSampler(8, nil, nil); err == nil {
		t.Error("missing energy source accepted")
	}
}
