package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/metrics"
	"powerfits/internal/sim"
)

// post runs one request through the service handler in-process.
func doPost(t *testing.T, h http.Handler, req Request) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return doPostRaw(h, blob)
}

func doPostRaw(h http.Handler, blob []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/synth", bytes.NewReader(blob))
	r.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, r)
	return w
}

func TestServeCacheHitEquivalence(t *testing.T) {
	// The tentpole guarantee: a cached response (memory LRU, then the
	// durable store across a daemon restart) is byte-identical to the
	// cold-path response for the same canonicalized request. The report
	// is deterministic by construction — no manifest-style volatile
	// fields to normalize; cache tier and run ID travel in headers,
	// outside the bytes.
	dir := t.TempDir()
	svc := New(Options{Store: archive.NewStore(dir), Workers: 2})
	h := svc.Handler()
	req := Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}}

	cold := doPost(t, h, req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", cold.Code, cold.Body)
	}
	if tier := cold.Header().Get("X-Powerfits-Cache"); tier != "cold" {
		t.Fatalf("cold request served from %q", tier)
	}

	hit := doPost(t, h, req)
	if hit.Code != http.StatusOK {
		t.Fatalf("hit: status %d: %s", hit.Code, hit.Body)
	}
	if tier := hit.Header().Get("X-Powerfits-Cache"); tier != "hit" {
		t.Fatalf("second request served from %q, want hit", tier)
	}
	if !bytes.Equal(cold.Body.Bytes(), hit.Body.Bytes()) {
		t.Fatal("cache hit is not byte-identical to the cold response")
	}
	if hits, _, misses := svc.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A permuted / defaulted spelling of the same request is the same
	// cache entry: canonicalization, not string equality.
	same := doPost(t, h, Request{Kernel: "crc32", Scale: 1, Configs: []string{"fits8"},
		Synth: SynthKnobs{DictCap: 256}})
	if tier := same.Header().Get("X-Powerfits-Cache"); tier != "hit" {
		t.Fatalf("canonically-equal request served from %q, want hit", tier)
	}
	if !bytes.Equal(cold.Body.Bytes(), same.Body.Bytes()) {
		t.Fatal("canonically-equal request got different bytes")
	}

	// Restart: a fresh service over the same store directory serves
	// the identical bytes from the durable tier.
	svc2 := New(Options{Store: archive.NewStore(dir), Workers: 2})
	fromStore := doPost(t, svc2.Handler(), req)
	if tier := fromStore.Header().Get("X-Powerfits-Cache"); tier != "store" {
		t.Fatalf("restarted service served from %q, want store", tier)
	}
	if !bytes.Equal(cold.Body.Bytes(), fromStore.Body.Bytes()) {
		t.Fatal("store hit is not byte-identical to the cold response")
	}
}

// TestServeCorruptStoreRecordIsMiss: a truncated record in the
// durable tier is a miss, not a 500. The request is recomputed, its
// record rewritten whole, and a restarted service serves it from the
// store.
func TestServeCorruptStoreRecordIsMiss(t *testing.T) {
	store := archive.NewStore(t.TempDir())
	req := Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}}
	c, err := Canonicalize(req, DefaultCalBlob())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(store.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(c.RunID), []byte(`{"schema": "powerfits-run", "run_`), 0o644); err != nil {
		t.Fatal(err)
	}

	cold := doPost(t, New(Options{Store: store, Workers: 2}).Handler(), req)
	if cold.Code != http.StatusOK {
		t.Fatalf("corrupt record: status %d: %s", cold.Code, cold.Body)
	}
	if tier := cold.Header().Get("X-Powerfits-Cache"); tier != "cold" {
		t.Fatalf("corrupt record served from %q, want cold", tier)
	}
	rec, err := archive.ReadFile(store.Path(c.RunID))
	if err != nil {
		t.Fatalf("recomputed record does not read back: %v", err)
	}
	if rec.Serve == nil || !bytes.Equal(rec.Serve.Body, cold.Body.Bytes()) {
		t.Fatal("recomputed record does not hold the served body")
	}

	warm := doPost(t, New(Options{Store: archive.NewStore(store.Dir), Workers: 2}).Handler(), req)
	if tier := warm.Header().Get("X-Powerfits-Cache"); tier != "store" {
		t.Fatalf("restarted service served from %q, want store", tier)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("store hit is not byte-identical to the recomputed response")
	}
}

func TestServeSampledNamespacing(t *testing.T) {
	// A sampled request must never be served an exact run's cached
	// response (or vice versa): the estimator flag is part of the
	// request identity, the PR 6/9 run-ID namespacing carried through
	// to the serving plane.
	svc := New(Options{Store: archive.NewStore(t.TempDir()), Workers: 2})
	h := svc.Handler()

	exact := doPost(t, h, Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}})
	sampled := doPost(t, h, Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}, Sampled: true})
	for _, w := range []*httptest.ResponseRecorder{exact, sampled} {
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if tier := w.Header().Get("X-Powerfits-Cache"); tier != "cold" {
			t.Fatalf("served from %q, want cold (distinct identities)", tier)
		}
	}
	if exact.Header().Get("X-Powerfits-Run") == sampled.Header().Get("X-Powerfits-Run") {
		t.Fatal("sampled and exact requests share a run ID")
	}

	var rep Report
	if err := json.Unmarshal(sampled.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Sample == nil {
		t.Fatal("sampled response carries no sample stats")
	}
	var exactRep Report
	if err := json.Unmarshal(exact.Body.Bytes(), &exactRep); err != nil {
		t.Fatal(err)
	}
	if exactRep.Results[0].Sample != nil {
		t.Fatal("exact response carries sample stats")
	}

	// Both are independently cached.
	if tier := doPost(t, h, Request{Kernel: "crc32", Scale: 1, Configs: []string{"FITS8"}, Sampled: true}).
		Header().Get("X-Powerfits-Cache"); tier != "hit" {
		t.Fatalf("sampled repeat served from %q, want hit", tier)
	}
}

func TestServeAsmProgram(t *testing.T) {
	svc := New(Options{Workers: 2})
	h := svc.Handler()
	src := `
.func main
	mov r0, #41
	add r0, r0, #1
	swi #1
	swi #0
`
	w := doPost(t, h, Request{Asm: src, Name: "answer", Configs: []string{"FITS8"}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rep Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Program.Name != "answer" {
		t.Fatalf("program name %q", rep.Program.Name)
	}
	// Identity is the source bytes: the same source is a hit, one
	// added instruction is a miss.
	if tier := doPost(t, h, Request{Asm: src, Name: "answer", Configs: []string{"FITS8"}}).
		Header().Get("X-Powerfits-Cache"); tier != "hit" {
		t.Fatalf("identical asm served from %q, want hit", tier)
	}
	if tier := doPost(t, h, Request{Asm: src + "\n", Name: "answer", Configs: []string{"FITS8"}}).
		Header().Get("X-Powerfits-Cache"); tier == "hit" {
		t.Fatal("different asm bytes served from cache")
	}
}

func TestServeRequestErrors(t *testing.T) {
	svc := New(Options{Workers: 1})
	h := svc.Handler()

	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/synth", nil))
	if get.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /synth = %d, want 405", get.Code)
	}

	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"no program", Request{}, http.StatusBadRequest},
		{"both programs", Request{Kernel: "crc32", Asm: ".func main\n\tswi #0\n"}, http.StatusBadRequest},
		{"unknown kernel", Request{Kernel: "nope"}, http.StatusBadRequest},
		{"unknown config", Request{Kernel: "crc32", Configs: []string{"ARM32"}}, http.StatusBadRequest},
		{"negative budget", Request{Kernel: "crc32", Synth: SynthKnobs{ProfileBudget: -1}}, http.StatusBadRequest},
		{"bad asm", Request{Asm: "this is not assembly"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if w := doPost(t, h, tc.req); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
	}

	if w := doPostRaw(h, []byte(`{"kernel":"crc32","bogus":1}`)); w.Code != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", w.Code)
	}
}

func TestServeDrain(t *testing.T) {
	svc := New(Options{Workers: 1})
	h := svc.Handler()
	svc.Drain()
	if w := doPost(t, h, Request{Kernel: "crc32"}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining service answered %d, want 503", w.Code)
	}
}

func TestServeTelemetryPlaneMounted(t *testing.T) {
	svc := New(Options{Workers: 1})
	h := svc.Handler()
	for _, path := range []string{"/metrics", "/healthz", "/progress"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, w.Code)
		}
	}
}

func TestAdmitterBounds(t *testing.T) {
	reg := metrics.NewRegistry()
	a := newAdmitter(2, 1, reg.Scope("serve", "admit"))

	// Two workers, one queue slot: three acquires pass (two running,
	// one admitted and waiting would block — so grab the two slots
	// first and verify the third admission is still accepted into the
	// queue, while the fourth fast-fails).
	r1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Third: occupies the queue slot; it blocks on a worker slot, so
	// run it in a goroutine and release a worker to let it through.
	var wg sync.WaitGroup
	wg.Add(1)
	queuedErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		r3, err := a.acquire(context.Background())
		queuedErr <- err
		if err == nil {
			r3()
		}
	}()
	// Wait until it is actually queued (pending reaches 3).
	for i := 0; a.pending.Load() < 3 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	// Fourth: beyond workers+queue → fast-fail.
	if _, err := a.acquire(context.Background()); err != errBusy {
		t.Fatalf("saturated acquire = %v, want errBusy", err)
	}
	if got := reg.Scope("serve", "admit").Counter("rejected").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// A queued client that gives up gets its context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// pending is 3 (= limit) again after the rejection rollback, so
	// this acquire would exceed the limit → must also fast-fail, not
	// hang. Release one first to exercise the ctx path.
	r1()
	if _, err := a.acquire(ctx); err != context.Canceled {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}

	r2()
	wg.Wait()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	if n := a.pending.Load(); n != 0 {
		t.Fatalf("pending = %d after all releases, want 0", n)
	}
}

func TestSetupCacheBatching(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := newSetupCache(8, 10*time.Millisecond, reg.Scope("serve", "batch"))

	var mu sync.Mutex
	builds := 0

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.get("image-1", func() (*sim.Setup, error) {
				mu.Lock()
				builds++
				mu.Unlock()
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("4 concurrent requests ran %d prepares, want 1 (batch window)", builds)
	}
	leaders := reg.Scope("serve", "batch").Counter("leaders").Value()
	joined := reg.Scope("serve", "batch").Counter("joined").Value()
	if leaders != 1 || joined != 3 {
		t.Fatalf("leaders=%d joined=%d, want 1/3", leaders, joined)
	}

	// A later request for the same image is a memo hit, not a new
	// prepare.
	sc.get("image-1", func() (*sim.Setup, error) { t.Fatal("rebuilt a memoized setup"); return nil, nil })
	if hits := reg.Scope("serve", "batch").Counter("memo_hits").Value(); hits != 1 {
		t.Fatalf("memo_hits = %d, want 1", hits)
	}
}

func TestCanonicalizeConfigOrder(t *testing.T) {
	cal := []byte("cal")
	a, err := Canonicalize(Request{Kernel: "crc32", Configs: []string{"FITS8", "ARM16"}}, cal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(Request{Kernel: "crc32", Configs: []string{"arm16", "fits8", "ARM16"}}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatal("permuted/duplicated config lists got distinct keys")
	}
	if strings.Join(a.Req.Configs, ",") != "ARM16,FITS8" {
		t.Fatalf("canonical config order = %v", a.Req.Configs)
	}
	// Empty = all four, and that is its own identity.
	all, err := Canonicalize(Request{Kernel: "crc32"}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Configs) != 4 {
		t.Fatalf("empty config list resolved to %d configs", len(all.Configs))
	}
	if all.Key == a.Key {
		t.Fatal("all-config request shares a key with a two-config request")
	}
	// Setup identity ignores configs and sampling.
	samp, err := Canonicalize(Request{Kernel: "crc32", Sampled: true}, cal)
	if err != nil {
		t.Fatal(err)
	}
	if samp.SetupKey != all.SetupKey {
		t.Fatal("sampling changed the setup identity (it must only change the run)")
	}
	if samp.Key == all.Key {
		t.Fatal("sampling did not change the request identity")
	}
}
