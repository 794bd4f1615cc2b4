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

// way is one line's bookkeeping.
type way struct {
	tag   uint32
	valid bool
	lru   uint64 // last-use stamp; larger is more recent
}

// Cache is a set-associative cache with true-LRU replacement. A Cache
// is not safe for concurrent use: it models one core's private I-cache
// and belongs to exactly one simulation run (concurrent runs each
// construct their own, which shares nothing).
type Cache struct {
	cfg       Config
	sets      [][]way
	stamp     uint64
	lineShift uint
	setShift  uint
	setMask   uint32
	stats     Stats
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	nsets := cfg.Sets()
	c.sets = make([][]way, nsets)
	backing := make([]way, nsets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
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
	set := c.sets[line&c.setMask]
	tag := line >> c.setShift

	// Hit scan first: the common case touches nothing but the matching
	// way's stamp. Victim selection runs only on the miss path.
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.lru = c.stamp
			return true
		}
	}
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = i
			victimLRU = 0
		} else if w.lru < victimLRU {
			victim = i
			victimLRU = w.lru
		}
	}
	c.stats.Misses++
	set[victim] = way{tag: tag, valid: true, lru: c.stamp}
	return false
}

// Contains reports whether addr is resident without touching LRU state
// or statistics.
func (c *Cache) Contains(addr uint32) bool {
	line := addr >> c.lineShift
	set := c.sets[line&c.setMask]
	tag := line >> uint(log2(len(c.sets)))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = way{}
		}
	}
	c.stats = Stats{}
	c.stamp = 0
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
