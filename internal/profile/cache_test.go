package profile

import (
	"errors"
	"sync"
	"testing"

	"powerfits/internal/kernels"
)

func TestCacheSingleCollectPerKey(t *testing.T) {
	c := NewCache()
	p := kernels.MustGet("crc32").Build(1)
	key := CacheKey{Image: "img", Budget: 1000}

	runs := 0
	collect := func() (*Profile, error) {
		runs++
		return Collect(p, 0)
	}
	first, err := c.Collect(key, collect)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Collect(key, collect)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("collect ran %d times for one key, want 1", runs)
	}
	if first != second {
		t.Fatalf("cache returned distinct profiles for one key")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different budget is a different key: the run can truncate.
	if _, err := c.Collect(CacheKey{Image: "img", Budget: 999}, collect); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("distinct budget shared a profile (runs = %d, want 2)", runs)
	}
}

func TestCacheConcurrentMissesSingleFlight(t *testing.T) {
	c := NewCache()
	p := kernels.MustGet("crc32").Build(1)
	key := CacheKey{Image: "img", Budget: 0}

	var mu sync.Mutex
	runs := 0
	var wg sync.WaitGroup
	profs := make([]*Profile, 16)
	for i := range profs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prof, err := c.Collect(key, func() (*Profile, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				return Collect(p, 0)
			})
			if err != nil {
				t.Error(err)
				return
			}
			profs[i] = prof
		}(i)
	}
	wg.Wait()
	if runs != 1 {
		t.Fatalf("concurrent misses ran collect %d times, want 1 (single-flight)", runs)
	}
	for i, prof := range profs {
		if prof != profs[0] {
			t.Fatalf("caller %d got a different profile object", i)
		}
	}
	// A caller that waited on the one collection counts as a hit.
	if hits, misses := c.Stats(); hits != 15 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 15/1", hits, misses)
	}
}

func TestCacheErrorIsCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("profile exploded")
	runs := 0
	collect := func() (*Profile, error) { runs++; return nil, boom }
	key := CacheKey{Image: "bad", Budget: 1}
	if _, err := c.Collect(key, collect); !errors.Is(err, boom) {
		t.Fatalf("first collect error = %v, want %v", err, boom)
	}
	if _, err := c.Collect(key, collect); !errors.Is(err, boom) {
		t.Fatalf("cached error = %v, want %v", err, boom)
	}
	if runs != 1 {
		t.Fatalf("failed collection retried (%d runs); the run is deterministic, the error is the result", runs)
	}
}

func TestNilCacheAlwaysCollects(t *testing.T) {
	var c *Cache
	runs := 0
	p := kernels.MustGet("crc32").Build(1)
	for i := 0; i < 2; i++ {
		if _, err := c.Collect(CacheKey{}, func() (*Profile, error) { runs++; return Collect(p, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Fatalf("nil cache memoized (%d runs, want 2)", runs)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("nil cache stats = %d/%d, want 0/0", hits, misses)
	}
}

func TestBoundedCacheEvictsLRU(t *testing.T) {
	c := NewBoundedCache(2)
	p := kernels.MustGet("crc32").Build(1)
	runs := 0
	collect := func() (*Profile, error) {
		runs++
		return Collect(p, 0)
	}
	key := func(i int) CacheKey { return CacheKey{Image: "img", Budget: uint64(i)} }

	// Fill: a, b. Touch a (making b least recently used), then insert c:
	// b must be the eviction victim.
	for _, i := range []int{1, 2, 1, 3} {
		if _, err := c.Collect(key(i), collect); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Fatalf("collect ran %d times, want 3", runs)
	}
	// a (key 1) survived the eviction; b (key 2) did not.
	if _, err := c.Collect(key(1), collect); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("recently-used key was evicted (runs = %d, want 3)", runs)
	}
	if _, err := c.Collect(key(2), collect); err != nil {
		t.Fatal(err)
	}
	if runs != 4 {
		t.Fatalf("LRU key survived eviction (runs = %d, want 4)", runs)
	}
}
