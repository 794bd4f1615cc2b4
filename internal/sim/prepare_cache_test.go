package sim

import (
	"bytes"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/profile"
	"powerfits/internal/synth"
)

// TestPrepareSharesProfileCache is the memo-sharing proof the sweep
// engine relies on: any number of preparations of the same (program,
// budget) through one profile.Cache execute exactly one profiling run,
// and the cached profile yields a Setup identical to the uncached
// path.
func TestPrepareSharesProfileCache(t *testing.T) {
	k := kernels.MustGet("crc32")
	cache := profile.NewCache()

	base, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}

	var setups []*Setup
	opts := []synth.Options{
		synth.DefaultOptions(),
		{ForceK: 5, DictCap: 64},
		{DictCap: 16, NoTwoOp: true},
	}
	for _, o := range opts {
		s, err := PrepareWith(k, 1, PrepareOptions{Synth: o, Profiles: cache})
		if err != nil {
			t.Fatal(err)
		}
		setups = append(setups, s)
	}

	hits, misses := cache.Stats()
	if misses != 1 {
		t.Fatalf("profile.Collect ran %d times for one (image, budget) pair, want 1", misses)
	}
	if hits != uint64(len(opts)-1) {
		t.Fatalf("cache hits = %d, want %d", hits, len(opts)-1)
	}
	for i := 1; i < len(setups); i++ {
		if setups[i].Profile != setups[0].Profile {
			t.Fatalf("setup %d holds a different profile object; the cache must share one", i)
		}
	}

	// The cached profile is bit-identical to an uncached collection:
	// the default-options synthesis lands on the same decoder image.
	if !bytes.Equal(setups[0].Synth.Spec.MarshalConfig(), base.Synth.Spec.MarshalConfig()) {
		t.Fatalf("cached-profile synthesis diverged from the uncached path")
	}
	if setups[0].Profile.TotalDyn != base.Profile.TotalDyn {
		t.Fatalf("cached profile TotalDyn %d != uncached %d",
			setups[0].Profile.TotalDyn, base.Profile.TotalDyn)
	}

	// A different profile budget is a different run: tight budgets can
	// truncate the profile, so it must not share the full-budget entry.
	if _, err := PrepareWith(k, 1, PrepareOptions{
		Synth: synth.Options{DictCap: 256, ProfileBudget: 1 << 20}, Profiles: cache}); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Fatalf("distinct budget reused the cached profile (misses = %d, want 2)", misses)
	}

	// Distinct programs (another kernel) miss too.
	if _, err := PrepareWith(kernels.MustGet("bitcount"), 1,
		PrepareOptions{Synth: synth.DefaultOptions(), Profiles: cache}); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 3 {
		t.Fatalf("distinct program reused a cached profile (misses = %d, want 3)", misses)
	}
}
