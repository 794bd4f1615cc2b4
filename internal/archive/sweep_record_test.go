package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testPoint() *SweepPoint {
	return &SweepPoint{
		Kernel: "crc32", Scale: 1, Label: "k5.d64.full.8K",
		OptionsKey: "synth/v1 k=5 dict=64 nodict=false nowin=false notwoop=false nobase=false budget=2000000000",
		CacheBytes: 8192, CacheLine: 32, CacheAssoc: 32, Sampled: true,
		K: 5, DictEntries: 12, CodeBytes: 400, Cycles: 1234, Instrs: 1000,
		Fetches: 900, Misses: 3, EnergyPJ: 5678.5,
	}
}

func TestSweepRunIDIdentityOnly(t *testing.T) {
	cal := []byte("cal-blob")
	sp := testPoint()
	id := SweepRunID(sp, cal)

	// Measured values do not move the ID: the probe before evaluation
	// and the save after it must agree.
	done := *sp
	done.Cycles, done.EnergyPJ, done.K = 999999, 1.0, 4
	if got := SweepRunID(&done, cal); got != id {
		t.Fatalf("measured values moved the run ID: %s vs %s", got, id)
	}
	rec := FromSweepPoint(&done, cal)
	if rec.RunID != id {
		t.Fatalf("FromSweepPoint ID %s != SweepRunID %s", rec.RunID, id)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}

	// Every identity field moves the ID.
	perturb := map[string]func(*SweepPoint){
		"kernel":  func(p *SweepPoint) { p.Kernel = "sha" },
		"scale":   func(p *SweepPoint) { p.Scale = 2 },
		"options": func(p *SweepPoint) { p.OptionsKey = "synth/v1 other" },
		"cacheB":  func(p *SweepPoint) { p.CacheBytes = 4096 },
		"line":    func(p *SweepPoint) { p.CacheLine = 16 },
		"assoc":   func(p *SweepPoint) { p.CacheAssoc = 4 },
		"sampled": func(p *SweepPoint) { p.Sampled = false },
	}
	for name, mod := range perturb {
		alt := *sp
		mod(&alt)
		if SweepRunID(&alt, cal) == id {
			t.Errorf("identity field %s does not participate in the run ID", name)
		}
	}
	if SweepRunID(sp, []byte("other-cal")) == id {
		t.Errorf("calibration does not participate in the run ID")
	}
}

func TestSweepRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	cal := []byte("cal")
	rec := FromSweepPoint(testPoint(), cal)
	path, err := st.Save(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(rec.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep == nil {
		t.Fatalf("round-tripped record lost its sweep payload (%s)", path)
	}
	if *got.Sweep != *testPoint() {
		t.Fatalf("sweep payload changed in round trip:\n got %+v\nwant %+v", *got.Sweep, *testPoint())
	}
}

// TestSaveAtomic exercises the torn-record defence: Save must write
// through a temp file + rename (no partially written destination ever
// visible), leave no temp litter behind, and create the store's parent
// directories on first use.
func TestSaveAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	st := NewStore(dir)
	rec := FromSweepPoint(testPoint(), []byte("cal"))
	if _, err := st.Save(rec); err != nil {
		t.Fatal(err)
	}

	// Overwrite with new measured values — the reader must see either
	// complete document, and afterwards the new one.
	upd := testPoint()
	upd.Cycles = 777
	if _, err := st.Save(FromSweepPoint(upd, []byte("cal"))); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(rec.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep.Cycles != 777 {
		t.Fatalf("overwrite not visible: cycles = %d", got.Sweep.Cycles)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind after Save", e.Name())
		}
		if !strings.HasSuffix(e.Name(), ".json") {
			t.Fatalf("unexpected store entry %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("store holds %d files, want 1 (same ID overwrites)", len(entries))
	}

	// List/Stats must not trip over a stray in-progress temp file.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-record-123"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("List saw %d records with a temp file present, want 1", len(recs))
	}
}

// TestConcurrentSaves runs Saves of distinct run IDs and of one shared
// run ID at once (each writes its temp file outside the store lock):
// every record must load and validate afterwards, the shared ID must
// hold one of its writers' complete records, and no temp file may
// remain.
func TestConcurrentSaves(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(dir)
	const writers, rounds = 4, 8
	shared := make([]*Record, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		p := testPoint()
		p.Cycles = uint64(1000 + w)
		shared[w] = FromSweepPoint(p, []byte("cal"))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				own := testPoint()
				own.Kernel = fmt.Sprintf("k%d_%d", w, i)
				if _, err := st.Save(FromSweepPoint(own, []byte("cal"))); err != nil {
					errs <- err
					return
				}
				if _, err := st.Save(shared[w]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	recs, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*rounds+1 {
		t.Fatalf("store lists %d records, want %d", len(recs), writers*rounds+1)
	}
	for _, r := range recs {
		got, err := st.Load(r.RunID)
		if err != nil {
			t.Fatalf("%s: %v", r.RunID, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", r.RunID, err)
		}
	}
	got, err := st.Load(shared[0].RunID)
	if err != nil {
		t.Fatal(err)
	}
	if c := got.Sweep.Cycles; c < 1000 || c >= 1000+writers {
		t.Fatalf("shared record holds cycles %d, not one writer's record", c)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-record-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
