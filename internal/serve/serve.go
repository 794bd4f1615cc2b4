// Package serve is the PowerFITS synthesis daemon: an HTTP/JSON
// service that turns the per-application design flow (profile →
// synthesize → translate → simulate) into a multi-tenant endpoint.
// Clients POST a program plus options to /synth and receive the full
// synthesized-ISA report.
//
// Three layers keep it fast under load, and every memo among them is
// one reuse.Memo, a bounded single-flight LRU:
//
//  1. Result cache — requests canonicalize to the config-hash identity
//     scheme internal/archive uses for run IDs. Identical requests are
//     served byte-identically from the response memo; its leader
//     probes the archive store (so the cache survives restarts) before
//     it computes, and identical requests arriving meanwhile join that
//     one flight.
//  2. Shared immutable state + admission control — cold requests share
//     read-only predecode/compiled tables (sim.Setup's concurrency
//     contract) and a bounded profile.Cache, gated by a worker
//     semaphore with a bounded accept queue and fast-fail 429s beyond
//     it.
//  3. Batching — concurrent requests sharing an image coalesce into
//     one preparation through the setup memo (optionally held open for
//     a small window) and fan back out.
//
// The daemon rides the telemetry plane: /metrics, /healthz, /progress
// and pprof are mounted beside /synth.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/metrics"
	"powerfits/internal/profile"
	"powerfits/internal/reuse"
	"powerfits/internal/sim"
	"powerfits/internal/telemetry"
)

// Options configures a Service. Every zero field takes a sensible
// default; the zero Options is a working single-process daemon with an
// in-memory cache only.
type Options struct {
	// Workers bounds concurrent cold computations (default
	// GOMAXPROCS).
	Workers int
	// Queue bounds cold requests waiting behind busy workers (default
	// 4×Workers). Requests beyond Workers+Queue fast-fail with 429.
	Queue int
	// BatchWindow holds each preparation open so near-simultaneous
	// requests for the same image join it (default 0: coalesce only
	// truly concurrent arrivals).
	BatchWindow time.Duration
	// CacheEntries bounds the in-memory result LRU (default 512).
	CacheEntries int
	// Store, when non-nil, persists responses as archive records —
	// the durable cache tier. Nil serves from memory only.
	Store *archive.Store
	// Registry receives the serve/* instruments (default: fresh).
	Registry *metrics.Registry
	// Tracker backs /progress (default: fresh, mirrored into
	// Registry).
	Tracker *telemetry.Tracker
	// Log receives request and lifecycle records.
	Log *slog.Logger
}

const (
	// maxRequestBytes bounds a /synth request body; assembly sources
	// are text and comfortably fit.
	maxRequestBytes = 4 << 20
	// setupEntries bounds the prepared-image memo.
	setupEntries = 64
	// profileEntries bounds the profile memo.
	profileEntries = 128
)

// Service is the daemon's request plane. Create with New, mount
// Handler, call Drain before shutting the HTTP server down.
type Service struct {
	opts     Options
	log      *slog.Logger
	reg      *metrics.Registry
	tracker  *telemetry.Tracker
	store    *archive.Store
	calBlob  []byte
	results  *reuse.Memo[string, []byte]     // request key → response bytes
	setups   *reuse.Memo[string, *sim.Setup] // image identity → prepared image
	admit    *admitter
	profiles *profile.Cache

	mu       sync.Mutex
	draining bool
	served   int // completed cold computations, for /progress

	hits     *metrics.Counter
	storeGet *metrics.Counter
	misses   *metrics.Counter
	errors   *metrics.Counter
	hitLat   *metrics.Histogram
	coldLat  *metrics.Histogram

	// batch counts setup-memo outcomes, indexed by reuse.Outcome:
	// serve/batch/memo_hits (a completed setup served), joined (an
	// in-flight prepare shared) and leaders (prepares actually run).
	batch [3]*metrics.Counter
}

// New builds a Service. The returned service has no listener of its
// own — mount Handler on an http.Server.
func New(opts Options) *Service {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = 4 * opts.Workers
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 512
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	if opts.Tracker == nil {
		opts.Tracker = telemetry.NewTracker(opts.Registry)
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	calBlob := DefaultCalBlob()

	reg := opts.Registry
	cacheSc := reg.Scope("serve", "cache")
	latSc := reg.Scope("serve", "latency")
	batchSc := reg.Scope("serve", "batch")
	return &Service{
		opts:     opts,
		log:      opts.Log,
		reg:      reg,
		tracker:  opts.Tracker,
		store:    opts.Store,
		calBlob:  calBlob,
		results:  reuse.NewMemo[string, []byte](opts.CacheEntries),
		setups:   reuse.NewMemo[string, *sim.Setup](setupEntries),
		admit:    newAdmitter(opts.Workers, opts.Queue, reg.Scope("serve", "admit")),
		profiles: profile.NewBoundedCache(profileEntries),
		hits:     cacheSc.Counter("hits"),
		storeGet: cacheSc.Counter("store_hits"),
		misses:   cacheSc.Counter("misses"),
		errors:   reg.Scope("serve").Counter("errors"),
		hitLat:   latSc.Histogram("hit_sec", metrics.DurationBuckets),
		coldLat:  latSc.Histogram("cold_sec", metrics.DurationBuckets),
		batch: [...]*metrics.Counter{
			reuse.Hit:    batchSc.Counter("memo_hits"),
			reuse.Joined: batchSc.Counter("joined"),
			reuse.Led:    batchSc.Counter("leaders"),
		},
	}
}

// Registry returns the service's metrics registry.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Handler returns the daemon mux: /synth plus the telemetry plane
// (/metrics, /healthz, /progress, /debug/pprof) at the root.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/synth", s.handleSynth)
	mux.Handle("/", telemetry.NewHandler(telemetry.Options{
		Registry: s.reg,
		Tracker:  s.tracker,
		Log:      s.log,
		Gather:   s.gather,
	}))
	return mux
}

// gather refreshes derived gauges before each /metrics snapshot. It
// only reads cheap state (an LRU length, a directory listing) — a
// scrape must never block request handling.
func (s *Service) gather(reg *metrics.Registry) {
	reg.Scope("serve", "cache").Gauge("entries").Set(float64(s.results.Len()))
	if s.store != nil {
		if err := s.store.PublishStats(reg.Scope("archive")); err != nil {
			s.log.Warn("archive stats unavailable", "err", err)
		}
	}
}

// Drain marks the service as shutting down: new /synth requests get
// 503 while in-flight ones finish (the http.Server.Shutdown the caller
// runs next waits for those).
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("serve draining: rejecting new synthesis requests")
}

// CacheStats returns the request counters (for tests and the CLI's
// shutdown summary).
func (s *Service) CacheStats() (hits, storeHits, misses uint64) {
	return s.hits.Value(), s.storeGet.Value(), s.misses.Value()
}

func (s *Service) handleSynth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST a synthesis request to /synth")
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	c, err := Canonicalize(req, s.calBlob)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Identical requests share one entry of the response memo. Its
	// leader probes the durable tier and then computes; requests
	// arriving meanwhile join the flight outside the admission queue
	// (they consume no worker or queue slot) and receive its outcome.
	start := time.Now()
	tier, lat := "cold", s.coldLat
	body, out, err := s.results.Do(c.Key, func() ([]byte, error) {
		if body, ok := s.storeProbe(c); ok {
			tier = "store"
			return body, nil
		}
		return s.compute(r, c)
	})
	switch {
	case out == reuse.Hit:
		tier, lat = "hit", s.hitLat
		s.hits.Inc()
	case out == reuse.Joined:
		tier = "coalesced"
		s.misses.Inc()
	case tier == "store":
		lat = s.hitLat
		s.storeGet.Inc()
	default:
		s.misses.Inc()
	}
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, status, err.Error())
		return
	}
	lat.Observe(time.Since(start).Seconds())
	s.writeReport(w, c, body, tier)
}

// storeProbe checks the durable tier for a cached response. Store
// trouble degrades to a miss — the daemon must keep serving when its
// disk cache does not.
func (s *Service) storeProbe(c *Canonical) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	rec, ok, err := s.store.Get(c.RunID)
	if err != nil {
		s.log.Warn("store probe failed", "run_id", c.RunID, "err", err)
		return nil, false
	}
	if !ok || rec.Serve == nil || rec.Serve.Key != c.Key {
		return nil, false
	}
	return rec.Serve.Body, true
}

// compute runs the cold path once admission grants it a worker:
// prepare (batched/memoized), simulate, render, persist. Its errors
// map to statuses through statusFor.
func (s *Service) compute(r *http.Request, c *Canonical) ([]byte, error) {
	release, err := s.admit.acquire(r.Context())
	if err != nil {
		return nil, err
	}
	defer release()
	var body []byte
	var rep *Report
	setup, err := s.prepare(c.SetupKey, func() (*sim.Setup, error) {
		return c.Prepare(s.profiles, s.log)
	})
	if err == nil {
		body, rep, err = c.Evaluate(setup)
	}
	if err != nil {
		s.errors.Inc()
		s.log.Warn("synthesis request failed", "key", c.Key, "status", statusFor(err), "err", err)
		return nil, err
	}

	if s.store != nil {
		reqBlob, _ := json.Marshal(c.Req)
		rec := archive.FromServe(c.Req.Scale, c.Key, reqBlob, c.Req.Sampled, body)
		if _, err := s.store.Save(rec); err != nil {
			s.log.Warn("persisting response failed", "run_id", c.RunID, "err", err)
		}
	}
	s.publishProgress(rep)
	return body, nil
}

// prepare returns the prepared image for key from the setup memo,
// running build once per flight (a failed build is not memoized). A
// positive batch window holds the flight open before building, so
// near-simultaneous requests join it instead of paying their own
// prepare, which costs milliseconds to seconds.
func (s *Service) prepare(key string, build func() (*sim.Setup, error)) (*sim.Setup, error) {
	setup, out, err := s.setups.Do(key, func() (*sim.Setup, error) {
		if s.opts.BatchWindow > 0 {
			time.Sleep(s.opts.BatchWindow)
		}
		return build()
	})
	s.batch[out].Inc()
	return setup, err
}

// publishProgress feeds the telemetry tracker one event per completed
// cold computation, so /progress (and its SSE stream) shows the
// daemon's work live.
func (s *Service) publishProgress(rep *Report) {
	s.mu.Lock()
	s.served++
	n := s.served
	s.mu.Unlock()
	s.tracker.Publish(experiments.ProgressEvent{
		Kernel:    rep.Program.Name,
		Done:      n,
		Total:     n,
		DynInstrs: rep.Program.DynInstrs,
	})
}

func (s *Service) writeReport(w http.ResponseWriter, c *Canonical, body []byte, tier string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Powerfits-Cache", tier)
	h.Set("X-Powerfits-Run", c.RunID)
	w.Write(body)
}

// statusFor maps the error of a failed flight, which every request of
// the flight receives, to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away while queued; 503 is the conventional
		// "not processed" answer for the rare case the write still
		// lands.
		return http.StatusServiceUnavailable
	}
	// Well-formed but uncomputable: assembly that does not parse,
	// synthesis constraints with no feasible encoding.
	return http.StatusUnprocessableEntity
}

// httpError writes a small JSON error document.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	blob, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(blob, '\n'))
}
