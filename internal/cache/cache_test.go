package cache

import (
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := SA1100ICache().Validate(); err != nil {
		t.Errorf("SA1100 config invalid: %v", err)
	}
	if err := SA1100ICacheHalf().Validate(); err != nil {
		t.Errorf("half config invalid: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 32, Assoc: 2},
		{SizeBytes: 1024, LineBytes: 24, Assoc: 2},     // line not power of two
		{SizeBytes: 1000, LineBytes: 32, Assoc: 2},     // size not divisible
		{SizeBytes: 3 * 1024, LineBytes: 32, Assoc: 1}, // sets not power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if got := SA1100ICache().Sets(); got != 16 {
		t.Errorf("SA1100 sets = %d, want 16", got)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew(Config{SizeBytes: 256, LineBytes: 16, Assoc: 2})
	if c.Access(0x100) {
		t.Error("first access must miss")
	}
	if !c.Access(0x100) || !c.Access(0x10F) {
		t.Error("same line must hit")
	}
	if c.Access(0x110) {
		t.Error("next line must miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.MissRate(); got != 0.5 {
		t.Errorf("miss rate %f", got)
	}
	if got := st.MissesPerMillion(); got != 500000 {
		t.Errorf("misses/M %f", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct set targeting: 2-way, line 16, 8 sets → set = addr[6:4].
	c := MustNew(Config{SizeBytes: 256, LineBytes: 16, Assoc: 2})
	a := func(i uint32) uint32 { return i<<7 | 0x0 } // same set 0
	c.Access(a(1))
	c.Access(a(2))
	c.Access(a(1)) // 1 is now MRU
	if c.Access(a(3)) {
		t.Error("third tag must miss")
	}
	// 2 was LRU and must have been evicted; 1 must survive.
	if !c.Contains(a(1)) {
		t.Error("MRU line evicted")
	}
	if c.Contains(a(2)) {
		t.Error("LRU line survived")
	}
}

func TestContainsDoesNotTouch(t *testing.T) {
	c := MustNew(Config{SizeBytes: 256, LineBytes: 16, Assoc: 2})
	c.Access(0x40)
	st := c.Stats()
	c.Contains(0x40)
	c.Contains(0x999)
	if c.Stats() != st {
		t.Error("Contains must not change statistics")
	}
}

func TestReset(t *testing.T) {
	c := MustNew(Config{SizeBytes: 256, LineBytes: 16, Assoc: 2})
	c.Access(0x40)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Error("stats not cleared")
	}
	if c.Contains(0x40) {
		t.Error("lines not invalidated")
	}
}

// TestWorkingSetFits: any working set no larger than the capacity,
// accessed round-robin, has only compulsory misses under true LRU.
func TestWorkingSetFits(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 32, Assoc: 4}
	c := MustNew(cfg)
	lines := cfg.SizeBytes / cfg.LineBytes
	rounds := 10
	for round := 0; round < rounds; round++ {
		for i := 0; i < lines; i++ {
			c.Access(uint32(i * cfg.LineBytes))
		}
	}
	if got, want := c.Stats().Misses, uint64(lines); got != want {
		t.Errorf("misses = %d, want %d (compulsory only)", got, want)
	}
}

// TestThrash: a working set of capacity+1 lines mapping round-robin
// through one set degree thrashes under LRU.
func TestThrash(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 16, Assoc: 2}
	c := MustNew(cfg)
	// Three tags in one set, cyclic: always misses after warmup.
	for i := 0; i < 30; i++ {
		c.Access(uint32(i%3) << 7)
	}
	if c.Stats().Misses != 30 {
		t.Errorf("cyclic over-capacity set must always miss, got %d/30", c.Stats().Misses)
	}
}

// refLRU is a naive true-LRU cache: per set, the resident line numbers
// in use order, most recent last.
type refLRU struct {
	cfg   Config
	sets  [][]uint32
	stats Stats
}

func newRefLRU(cfg Config) *refLRU {
	return &refLRU{cfg: cfg, sets: make([][]uint32, cfg.Sets())}
}

func (r *refLRU) find(addr uint32) (set, pos int, line uint32) {
	line = addr / uint32(r.cfg.LineBytes)
	set = int(line % uint32(len(r.sets)))
	for j, l := range r.sets[set] {
		if l == line {
			return set, j, line
		}
	}
	return set, -1, line
}

func (r *refLRU) access(addr uint32) bool {
	r.stats.Accesses++
	set, pos, line := r.find(addr)
	ways := r.sets[set]
	if pos >= 0 {
		r.sets[set] = append(append(ways[:pos:pos], ways[pos+1:]...), line)
		return true
	}
	r.stats.Misses++
	if len(ways) == r.cfg.Assoc {
		ways = ways[1:]
	}
	r.sets[set] = append(ways, line)
	return false
}

func (r *refLRU) contains(addr uint32) bool {
	_, pos, _ := r.find(addr)
	return pos >= 0
}

func (r *refLRU) reset() { *r = *newRefLRU(r.cfg) }

// TestMatchesReferenceLRU drives the cache and the naive reference with
// the same random streams — same-line runs (the MRU fast path), line
// hops within a footprint larger than the cache, interleaved Contains
// and occasional Reset — and requires every result and the statistics
// to agree.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		base uint32 // first address of the footprint; addresses wrap
	}{
		{"direct-mapped", Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}, 0x8000},
		{"sa1100-16k-32way", SA1100ICache(), 0x8000},
		{"sa1100-8k-32way", SA1100ICacheHalf(), 0x8000},
		{"fully-associative", Config{SizeBytes: 512, LineBytes: 32, Assoc: 16}, 0},
		// One-byte lines in one set: the tag is the whole address, so
		// tag 0xFFFFFFFF has no tag+1 key; the footprint wraps past it.
		{"byte-lines-top-of-memory", Config{SizeBytes: 8, LineBytes: 1, Assoc: 8}, 0xFFFFFFF4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := tc.cfg.SizeBytes / tc.cfg.LineBytes
			span := uint32(lines + lines/2 + 2) // footprint in lines
			for seed := int64(1); seed <= 20; seed++ {
				c := MustNew(tc.cfg)
				ref := newRefLRU(tc.cfg)
				r := rand.New(rand.NewSource(seed))
				addr := tc.base
				for step := 0; step < 4000; step++ {
					switch op := r.Intn(100); {
					case op == 0:
						c.Reset()
						ref.reset()
					case op < 10:
						probe := tc.base + uint32(r.Intn(int(span)))*uint32(tc.cfg.LineBytes)
						if got, want := c.Contains(probe), ref.contains(probe); got != want {
							t.Fatalf("seed %d step %d: Contains(%#x) = %v, want %v", seed, step, probe, got, want)
						}
					default:
						if op < 55 { // hop to another line
							addr = tc.base + uint32(r.Intn(int(span)))*uint32(tc.cfg.LineBytes)
						}
						for run := 1 + r.Intn(8); run > 0; run-- {
							a := addr + uint32(r.Intn(tc.cfg.LineBytes)) // same line
							if got, want := c.Access(a), ref.access(a); got != want {
								t.Fatalf("seed %d step %d: Access(%#x) = %v, want %v", seed, step, a, got, want)
							}
						}
					}
					if c.Stats() != ref.stats {
						t.Fatalf("seed %d step %d: stats %+v, want %+v", seed, step, c.Stats(), ref.stats)
					}
				}
			}
		})
	}
}

// TestHoldsMeansFirstTouchMisses checks the precondition behind shared
// timing passes: when a geometry holds a byte range, a stream of
// addresses inside it misses exactly once per distinct line, so two
// holding geometries with equal line size agree access by access; and
// a range one line over capacity is not held.
func TestHoldsMeansFirstTouchMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	assocs := []int{1, 4, 32}
	geom := func(line int) Config {
		assoc := assocs[rng.Intn(len(assocs))]
		return Config{SizeBytes: line * assoc << rng.Intn(6), LineBytes: line, Assoc: assoc}
	}
	for trial := 0; trial < 400; trial++ {
		line := 1 << rng.Intn(7) // one-byte lines up to 64 bytes
		if trial%4 == 0 {
			line = 1
		}
		a, b := geom(line), geom(line)
		capLines := min(a.SizeBytes, b.SizeBytes) / line

		// A line-aligned range of exactly the capacity is held; one line
		// more, or the same size shifted off alignment, is not.
		aligned := uint32(rng.Intn(1<<20)) &^ uint32(line-1)
		full := a.SizeBytes
		if !a.Holds(aligned, full) || a.Holds(aligned, full+line) || (line > 1 && a.Holds(aligned+1, full)) {
			t.Fatalf("%+v: wrong Holds at capacity from %#x", a, aligned)
		}

		// A random range both hold; every eighth ends at 2^32.
		size := 1 + rng.Intn(capLines*line-line+1)
		base := uint32(rng.Int63n(1<<32 - int64(size) + 1))
		if trial%8 == 0 {
			base = uint32(1<<32 - int64(size))
		}
		if !a.Holds(base, size) || !b.Holds(base, size) {
			t.Fatalf("%+v / %+v: range [%#x, +%d) of at most %d lines not held", a, b, base, size, capLines)
		}
		ca, cb := MustNew(a), MustNew(b)
		seen := map[uint32]bool{}
		for i := 0; i < 8*capLines+16; i++ {
			addr := base + uint32(rng.Intn(size))
			first := !seen[addr/uint32(line)]
			seen[addr/uint32(line)] = true
			hitA, hitB := ca.Access(addr), cb.Access(addr)
			if hitA == first || hitB == first {
				t.Fatalf("%+v / %+v: access %d to %#x hit %t/%t, first touch %t", a, b, i, addr, hitA, hitB, first)
			}
		}
		if got := ca.Stats().Misses; got != uint64(len(seen)) {
			t.Fatalf("%+v: %d misses for %d distinct lines", a, got, len(seen))
		}
	}
}

func TestHoldsEdges(t *testing.T) {
	c := SA1100ICacheHalf() // 256 lines of 32 bytes
	for _, tc := range []struct {
		base uint32
		size int
		want bool
	}{
		{0x8000, 0, true},
		{0x8000, -1, false},
		{0x8000, 8192, true},
		{0x8000, 8193, false},
		{0x8004, 8192, false}, // unaligned: 257 lines
		{0x8004, 8188, true},
		{1<<32 - 8192, 8192, true},
		{1<<32 - 32, 32, true},
	} {
		if got := c.Holds(tc.base, tc.size); got != tc.want {
			t.Errorf("Holds(%#x, %d) = %t, want %t", tc.base, tc.size, got, tc.want)
		}
	}
	if (Config{SizeBytes: 1000, LineBytes: 32, Assoc: 2}).Holds(0, 32) {
		t.Error("an invalid geometry holds a range")
	}
}

// TestAddHitsOnHoldingCache checks the bulk hit count of holding passes
// against per-access hits: on a cache fed only from a range it holds,
// two caches see the same first touches, but one makes each run of hits
// to resident lines with Access and the other counts it with AddHits.
// After every run their Stats and their Contains answers over the whole
// range must agree, and so must the hit or miss of every later Access.
// Geometries span one-byte to 64-byte lines, direct-mapped to 32-way,
// and ranges ending at 2^32.
func TestAddHitsOnHoldingCache(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	assocs := []int{1, 2, 4, 32}
	for trial := 0; trial < 300; trial++ {
		line := 1 << rng.Intn(7)
		assoc := assocs[rng.Intn(len(assocs))]
		g := Config{SizeBytes: line * assoc << rng.Intn(5), LineBytes: line, Assoc: assoc}
		size := 1 + rng.Intn(g.SizeBytes)
		base := uint32(rng.Int63n(1<<32 - int64(size) + 1))
		if trial%8 == 0 {
			base = uint32(1<<32 - int64(size))
		}
		if !g.Holds(base, size) {
			continue
		}
		each, bulk := MustNew(g), MustNew(g)
		var resident []uint32
		for i := 0; i < 40; i++ {
			// A fetch, then a run of hits on lines already resident.
			addr := base + uint32(rng.Intn(size))
			hitE, hitB := each.Access(addr), bulk.Access(addr)
			if hitE != hitB {
				t.Fatalf("%+v: access %d to %#x hit %t after per-access hits, %t after bulk hits", g, i, addr, hitE, hitB)
			}
			if !hitE {
				resident = append(resident, addr)
			}
			n := rng.Intn(12)
			for k := 0; k < n; k++ {
				if !each.Access(resident[rng.Intn(len(resident))]) {
					t.Fatalf("%+v: a resident line missed", g)
				}
			}
			bulk.AddHits(uint64(n))
			if each.Stats() != bulk.Stats() {
				t.Fatalf("%+v: stats %+v after per-access hits, %+v after bulk hits", g, each.Stats(), bulk.Stats())
			}
			for a := uint64(base) &^ uint64(line-1); a < uint64(base)+uint64(size); a += uint64(line) {
				if each.Contains(uint32(a)) != bulk.Contains(uint32(a)) {
					t.Fatalf("%+v: Contains(%#x) differs after bulk hits", g, a)
				}
			}
		}
	}
}
