package serve

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"powerfits/internal/archive"
)

// TestRunLoadHitFraction asserts the hit fraction is taken as given: 0
// drives an all-cold mix against a fresh daemon, and a fraction outside
// [0, 1] is rejected before any request is sent.
func TestRunLoadHitFraction(t *testing.T) {
	svc := New(Options{Store: archive.NewStore(t.TempDir()), Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	rep, err := RunLoad(context.Background(), LoadOptions{
		URL: srv.URL + "/synth", Workers: 2, Requests: 6,
		HitFraction: 0, Kernel: "crc32", Scale: 1, Sampled: true, CheckBodies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors; first: %s", rep.Errors, rep.FirstError)
	}
	if rep.OK != 6 || rep.Hits != 0 || rep.Cold != 6 {
		t.Errorf("all-cold mix: %d ok, %d hits, %d cold; want 6/0/6", rep.OK, rep.Hits, rep.Cold)
	}

	for _, f := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := RunLoad(context.Background(), LoadOptions{URL: srv.URL + "/synth", Requests: 1, HitFraction: f}); err == nil {
			t.Errorf("hit fraction %v accepted", f)
		}
	}
}
