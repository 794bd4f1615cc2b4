package sim

import (
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/synth"
)

// TestPrepareAllocsPinned pins sim.Prepare's allocation budget. The
// setup path (profile → synthesize → translate → encode → predecode →
// compile) once cost ~4.5k allocations per kernel, dominated by slice
// churn in the lowering rewriter and repeated signature rendering in
// the synthesis sorts; it now sits near 1.4k. The ceiling has ~40 %
// headroom — if this fails, a shared buffer was probably dropped, not
// a legitimate feature added.
func TestPrepareAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a full Prepare")
	}
	k := kernels.MustGet("crc32")
	opts := synth.DefaultOptions()
	avg := testing.AllocsPerRun(10, func() {
		if _, err := PrepareWith(k, 1, PrepareOptions{Synth: opts}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 2000
	if avg > ceiling {
		t.Errorf("Prepare allocates %.0f times per run, budget %d", avg, ceiling)
	}
}
