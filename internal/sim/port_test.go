package sim

import (
	"sync"
	"testing"

	"powerfits/internal/cache"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/program"
	"powerfits/internal/synth"
)

// TestConcurrentRunsMatchSequential runs the four configurations of one
// Setup concurrently and asserts the results are identical to
// sequential runs. Under -race this is also the proof that Setup.Run
// shares no mutable state across goroutines.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cal := power.DefaultCalibration()

	want := make(map[string]*Result, len(Configs))
	for _, cfg := range Configs {
		r, err := s.Run(cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		want[cfg.Name] = r
	}

	got := make([]*Result, len(Configs))
	errs := make([]error, len(Configs))
	var wg sync.WaitGroup
	for i, cfg := range Configs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			got[i], errs[i] = s.Run(cfg, cal)
		}(i, cfg)
	}
	wg.Wait()

	for i, cfg := range Configs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cfg.Name, errs[i])
		}
		w, g := want[cfg.Name], got[i]
		if g.Cache != w.Cache {
			t.Errorf("%s: cache stats %+v != %+v", cfg.Name, g.Cache, w.Cache)
		}
		if g.Power != w.Power {
			t.Errorf("%s: power report %+v != %+v", cfg.Name, g.Power, w.Power)
		}
		if g.Pipe.Cycles != w.Pipe.Cycles || g.Pipe.Instrs != w.Pipe.Instrs {
			t.Errorf("%s: pipeline %d cycles/%d instrs != %d/%d",
				cfg.Name, g.Pipe.Cycles, g.Pipe.Instrs, w.Pipe.Cycles, w.Pipe.Instrs)
		}
		if len(g.Pipe.Output) != len(w.Pipe.Output) {
			t.Fatalf("%s: output length %d != %d", cfg.Name, len(g.Pipe.Output), len(w.Pipe.Output))
		}
		for j := range w.Pipe.Output {
			if g.Pipe.Output[j] != w.Pipe.Output[j] {
				t.Errorf("%s: output[%d] %#x != %#x", cfg.Name, j, g.Pipe.Output[j], w.Pipe.Output[j])
			}
		}
	}
}

// TestFetchPortBlockContents checks that the allocation-free fetch path
// delivers exactly the bytes the old copying path delivered — aliased
// text for in-bounds blocks, zero-padded bytes for blocks straddling or
// outside the text segment. A Hamming-mode meter makes the delivered
// contents observable through the switching energy.
func TestFetchPortBlockContents(t *testing.T) {
	const base, block = 0x40, 4
	text := make([]byte, 16)
	for i := range text {
		text[i] = byte(0x10 + i)
	}
	im := &program.Image{Text: text, TextBase: base}

	cal := power.DefaultCalibration()
	cal.UseHamming = true
	geom := cache.SA1100ICache()

	// Reference meter fed the blocks the old copy loop would build.
	refBlock := func(addr uint32) []byte {
		out := make([]byte, block)
		for i := range out {
			if o := int64(addr) - base + int64(i); o >= 0 && o < int64(len(text)) {
				out[i] = text[o]
			}
		}
		return out
	}

	portMeter := power.MustNewMeter(geom, cal)
	refMeter := power.MustNewMeter(geom, cal)
	refCache := cache.MustNew(geom)
	port := NewFetchPort(cache.MustNew(geom), im, block, portMeter.Stream())

	addrs := []uint32{
		base,      // fully inside (aliases text)
		base + 8,  // fully inside
		base - 2,  // straddles the low edge
		base + 14, // straddles the high edge
		base + 64, // fully outside (all zeros)
		base,      // inside again after scratch use
	}
	for _, addr := range addrs {
		port.FetchBlock(addr)
		port.Tick()
		refMeter.Stream().Access(addr, refBlock(addr), !refCache.Access(addr))
		refMeter.Stream().Tick()
	}

	got, want := portMeter.Report(), refMeter.Report()
	if got != want {
		t.Errorf("fetch port energy diverged from reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFetchPortZeroAlloc proves the steady-state fetch path allocates
// nothing, on both the aliasing and the scratch-buffer paths.
func TestFetchPortZeroAlloc(t *testing.T) {
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.MustNew(cache.SA1100ICache())
	m := power.MustNewMeter(cache.SA1100ICache(), power.DefaultCalibration())
	port := NewFetchPort(c, s.ArmImage, 4, m.Stream())

	var addr uint32
	allocs := testing.AllocsPerRun(1000, func() {
		port.FetchBlock(s.ArmImage.TextBase + addr&0xFC)
		port.FetchBlock(s.ArmImage.TextBase - 2) // straddling path
		port.Tick()
		addr += 4
	})
	if allocs != 0 {
		t.Errorf("fetch path allocates %.1f objects per access, want 0", allocs)
	}
}
