package profile

import (
	"sync/atomic"

	"powerfits/internal/reuse"
)

// CacheKey identifies one profiling run: the content hash of the
// program under profile and the instruction budget the run was bounded
// by. Two preparations with the same key produce bit-identical
// profiles, so the collected Profile can be shared.
//
// Callers build the Image field from everything the functional run can
// observe — encoded text, load addresses, the data segment and the
// entry point (sim.Setup.Profiler hashes exactly that set). The budget is
// part of the key because a tighter budget can truncate the run and
// change every dynamic count.
type CacheKey struct {
	// Image is a content hash of the program (text + data + layout).
	Image string
	// Budget is the effective MaxInstrs bound of the run.
	Budget uint64
}

// Cache memoizes Collect results by CacheKey so many synthesis points
// over the same program share one profiling run — the expensive stage
// of preparation, since it executes every dynamic instruction of the
// application. The design-space sweep threads one Cache through
// thousands of preparations (sim.Setup.Profiler).
//
// A Cache is safe for concurrent use. It is a single-flight
// reuse.Memo: concurrent misses on one key run one collection and share
// its outcome, including an error, which is cached as part of the
// value — the run is deterministic, so retrying cannot succeed. The
// cached *Profile is shared read-only by every caller; Profile has no
// mutating methods after build, which is the same contract sim.Setup
// relies on across engine workers.
type Cache struct {
	memo         *reuse.Memo[CacheKey, collected]
	hits, misses atomic.Uint64
}

type collected struct {
	prof *Profile
	err  error
}

// NewCache returns an empty, unbounded profile cache — the right shape
// for a finite batch job (suite run, design-space sweep) whose key
// population is known up front.
func NewCache() *Cache {
	return NewBoundedCache(0)
}

// NewBoundedCache returns a cache holding at most limit completed
// profiles, evicting the least recently used past the bound (limit ≤ 0
// is unbounded). A long-running service over an open-ended program
// population needs the bound: profiles are large (per-address dynamic
// counts), and an unbounded memo is a slow memory leak.
func NewBoundedCache(limit int) *Cache {
	return &Cache{memo: reuse.NewMemo[CacheKey, collected](limit)}
}

// Collect returns the memoized profile for key, running collect to
// populate it on the first request. A nil receiver is an always-miss
// cache: collect runs unconditionally, so callers never need a "cache
// configured?" branch.
func (c *Cache) Collect(key CacheKey, collect func() (*Profile, error)) (*Profile, error) {
	if c == nil {
		return collect()
	}
	r, out, _ := c.memo.Do(key, func() (collected, error) {
		prof, err := collect()
		return collected{prof, err}, nil
	})
	if out == reuse.Led {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return r.prof, r.err
}

// Stats returns the cumulative hit and miss counts; a call that waited
// on another's collection counts as a hit. Misses equal the number of
// profiling runs actually executed, which is what the sweep's
// memo-sharing test asserts on.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
