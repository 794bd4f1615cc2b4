// Package cache implements the set-associative instruction cache used by
// the timing simulation: true-LRU replacement, parameterised size, line
// size and associativity. The default configurations mirror the Intel
// SA-1100 instruction cache the paper models (16 KB, 32-byte lines,
// 32-way) plus its half-sized 8 KB variant.
package cache

import "fmt"

// Config parameterises one cache instance.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Assoc     int // ways per set
}

// SA1100ICache returns the paper's baseline 16 KB I-cache geometry.
func SA1100ICache() Config { return Config{SizeBytes: 16 * 1024, LineBytes: 32, Assoc: 32} }

// SA1100ICacheHalf returns the 8 KB variant.
func SA1100ICacheHalf() Config { return Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 32} }

// Validate checks geometric consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Holds reports whether the valid geometry c can keep every line
// overlapping the byte range [base, base+size) resident at once: the
// range covers at most SizeBytes/LineBytes lines. Consecutive lines map
// to consecutive sets, so such a range puts at most ceil(n/Sets) ≤
// Assoc lines in any set. A cache fed only addresses in the range thus
// never evicts and misses exactly on the first touch of each line, and
// any two geometries that hold the range with equal LineBytes return
// the same hit or miss on every access.
func (c Config) Holds(base uint32, size int) bool {
	if size < 0 || c.Validate() != nil {
		return false
	}
	if size == 0 {
		return true
	}
	line := uint64(c.LineBytes)
	first := uint64(base) / line
	last := (uint64(base) + uint64(size) - 1) / line
	return last-first+1 <= uint64(c.SizeBytes/c.LineBytes)
}

// Bits returns the data capacity in bits (tag/valid overhead excluded;
// the power model adds a fixed overhead factor).
func (c Config) Bits() int { return c.SizeBytes * 8 }

// Stats aggregates access results.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses per access (0 when never accessed).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MissesPerMillion returns the paper's Figure 13 metric.
func (s Stats) MissesPerMillion() float64 { return s.MissRate() * 1e6 }

// Cache is a set-associative cache with true-LRU replacement. A Cache
// is not safe for concurrent use: it models one core's private I-cache
// and belongs to exactly one simulation run (concurrent runs each
// construct their own, which shares nothing).
//
// Way state lives in two flat parallel arrays indexed by
// set*Assoc+way: keys holds tag+1 (0 marks an invalid way) and lru the
// last-use stamp (larger is more recent), so the hit scan reads only
// the 4-byte keys of one set. Only the geometry with one-byte lines and
// a single set has 32-bit tags, where tag+1 wraps to 0 at 0xFFFFFFFF;
// that one line is tracked by topWay instead of by its key.
type Cache struct {
	cfg       Config
	keys      []uint32
	lru       []uint64
	assoc     int
	stamp     uint64
	lineShift uint
	setShift  uint
	setMask   uint32
	stats     Stats

	// mruLine is the line number the previous Access hit or filled,
	// held in way mruWay; noLine when there is none. A fetch to the
	// same line needs no scan.
	mruLine uint64
	mruWay  int
	// topWay is the way holding tag 0xFFFFFFFF, or -1.
	topWay int
	// last[set] is the way within the set that the set's latest Access
	// hit or filled: a hint probed before the scan (a loop body's lines
	// tend to fall in distinct sets).
	last []uint32
}

// noLine is an mruLine value no 32-bit line number can equal.
const noLine = 1 << 32

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	ways := nsets * cfg.Assoc
	keys := make([]uint32, ways+nsets) // the keys, then the hints
	c := &Cache{
		cfg:     cfg,
		keys:    keys[:ways:ways],
		last:    keys[ways:],
		lru:     make([]uint64, ways),
		assoc:   cfg.Assoc,
		mruLine: noLine,
		topWay:  -1,
	}
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		c.lineShift++
	}
	c.setMask = uint32(nsets - 1)
	c.setShift = uint(log2(nsets))
	return c, nil
}

// MustNew is New but panics on invalid configuration.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up addr, allocating on miss (LRU victim), and reports
// whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.stamp++
	c.stats.Accesses++
	line := addr >> c.lineShift
	// Most fetches hit the line the previous access hit or filled: only
	// a fill can change a way, and every fill updates the MRU way.
	if uint64(line) == c.mruLine {
		c.lru[c.mruWay] = c.stamp
		return true
	}
	set := line & c.setMask
	base := int(set) * c.assoc
	key := line>>c.setShift + 1

	// Hit scan first, from the set's hint: the common case touches
	// nothing but the matching way's stamp. Victim selection runs only
	// on the miss path.
	if key != 0 {
		if i := int(c.last[set]); c.keys[base+i] == key {
			return c.hit(line, base, i)
		}
		for i, k := range c.keys[base : base+c.assoc] {
			if k == key {
				return c.hit(line, base, i)
			}
		}
	} else if c.topWay >= 0 {
		return c.hit(line, base, c.topWay-base)
	}
	// The victim is the last invalid way, else the least recently used.
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i, k := range c.keys[base : base+c.assoc] {
		if k == 0 && base+i != c.topWay {
			victim = i
			victimLRU = 0
		} else if c.lru[base+i] < victimLRU {
			victim = i
			victimLRU = c.lru[base+i]
		}
	}
	c.stats.Misses++
	w := base + victim
	if w == c.topWay {
		c.topWay = -1
	}
	if key == 0 {
		c.topWay = w
	}
	c.keys[w] = key
	c.lru[w] = c.stamp
	c.mruLine, c.mruWay = uint64(line), w
	c.last[set] = uint32(victim)
	return false
}

// hit refreshes the stamp of way i of the set at base and makes it the
// MRU way and the set's hint.
func (c *Cache) hit(line uint32, base, i int) bool {
	w := base + i
	c.lru[w] = c.stamp
	c.mruLine, c.mruWay = uint64(line), w
	c.last[line&c.setMask] = uint32(i)
	return true
}

// AddHits counts n accesses that hit resident lines, in one step and
// without touching LRU stamps or hints. That equals n hits made by
// Access only in a cache that cannot evict, such as one fed from a
// range it holds (Config.Holds): there every miss finds an invalid way
// in its set, Access picks the last one whatever the stamps say, and
// the hints only speed up a scan whose answer they do not change. So
// neither the stamps nor the hints a hit would set are ever read, and
// Stats, Contains and every later Access read the same.
func (c *Cache) AddHits(n uint64) { c.stats.Accesses += n }

// Contains reports whether addr is resident without touching LRU state
// or statistics.
func (c *Cache) Contains(addr uint32) bool {
	line := addr >> c.lineShift
	if uint64(line) == c.mruLine {
		return true // the MRU line is resident (see Access)
	}
	set := line & c.setMask
	base := int(set) * c.assoc
	key := line>>c.setShift + 1
	if key == 0 {
		return c.topWay >= 0
	}
	if c.keys[base+int(c.last[set])] == key {
		return true
	}
	for _, k := range c.keys[base : base+c.assoc] {
		if k == key {
			return true
		}
	}
	return false
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.lru)
	clear(c.last)
	c.stats = Stats{}
	c.stamp = 0
	c.mruLine, c.topWay = noLine, -1
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
