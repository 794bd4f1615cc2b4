package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"
)

// benchPost drives one marshaled request through the handler
// in-process (no sockets: the benchmark measures the service, not the
// loopback stack).
func benchPost(b *testing.B, h http.Handler, blob []byte, wantTier string) {
	w := doPostRaw(h, blob)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if tier := w.Header().Get("X-Powerfits-Cache"); wantTier != "" && tier != wantTier {
		b.Fatalf("served from %q, want %q", tier, wantTier)
	}
}

// BenchmarkServe times the two serving paths: Hit replays one cached
// request, Cold gives every iteration a fresh synthesis identity so it
// runs the full profile→synthesize→simulate flow. The ratio between
// them is the result cache's speedup (asserted ≥50× by
// TestServeHitSpeedup).
func BenchmarkServe(b *testing.B) {
	b.Run("Hit", func(b *testing.B) {
		svc := New(Options{Workers: 2})
		h := svc.Handler()
		blob, _ := json.Marshal(Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}})
		benchPost(b, h, blob, "cold") // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, h, blob, "hit")
		}
	})
	b.Run("Cold", func(b *testing.B) {
		svc := New(Options{Workers: 2})
		h := svc.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A unique dictionary budget per iteration keeps the profile
			// memoized (as in production: one program, many option
			// sweeps) but forces synthesis + simulation every time.
			blob, _ := json.Marshal(Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"},
				Synth: SynthKnobs{DictCap: 257 + i}})
			benchPost(b, h, blob, "cold")
		}
	})
}

// TestServeHitSpeedup is the acceptance gate on the result cache: the
// hit path must be at least 50× faster than the cold path for the same
// request shape. Both sides are wall-clock times, so they are taken in
// alternating rounds and the best round of each is compared: load from
// other processes on the host slows some rounds, and the best round is
// the one it touched least.
func TestServeHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test skipped in -short mode")
	}
	const rounds, coldN, hitN = 5, 20, 2000
	svc := New(Options{Workers: 2})
	h := svc.Handler()
	hot, _ := json.Marshal(Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}})
	if w := doPostRaw(h, hot); w.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", w.Code, w.Body)
	}

	// perOp times n posts; blob(i) is the i-th request body.
	perOp := func(n int, blob func(i int) []byte) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if w := doPostRaw(h, blob(i)); w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
		return time.Since(start) / time.Duration(n)
	}
	nonce := 257
	coldBlob := func(int) []byte {
		// A unique dictionary budget keeps the profile memoized but
		// forces synthesis and simulation.
		nonce++
		blob, _ := json.Marshal(Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"},
			Synth: SynthKnobs{DictCap: nonce}})
		return blob
	}
	hitBlob := func(int) []byte { return hot }

	cold, hit := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		cold = min(cold, perOp(coldN, coldBlob))
		hit = min(hit, perOp(hitN, hitBlob))
	}
	hit = max(hit, 1)
	ratio := float64(cold) / float64(hit)
	t.Logf("best of %d rounds: cold %v/op, hit %v/op: %.0f× speedup", rounds, cold, hit, ratio)
	if ratio < 50 {
		t.Fatalf("hit path only %.1f× faster than cold (%v vs %v), want ≥50×", ratio, hit, cold)
	}
}
