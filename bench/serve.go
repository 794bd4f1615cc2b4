package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/profile"
	"powerfits/internal/serve"
	"powerfits/internal/sim"
)

// The serve-mix traffic. Hits replay a 16-request hot set warmed in
// set-up; cold requests carry a synthesis identity no earlier request
// had, so each pays the whole cold path (shared profile memo, synth,
// translate, simulate, LRU put, archive save).
//
// The mix is an assumption: no request log or published measurement of
// /synth traffic exists to take a hit ratio from. coldEvery is chosen
// so that hits and cold requests take about equal shares of the
// daemon's busy time, so a 2× change on either path moves work_per_s
// by about a third. At saturation a cold request costs about 150 times
// a hit (README.md, "serve-mix traffic"). Hits are drawn uniformly: the
// hot set fits the result cache, so a skewed popularity would change
// which cached body is sent, not what the daemon does.
const (
	serveScale  = 1
	coldEvery   = 150                  // one cold request, at a seeded position, in every block of this many
	refRate     = 150.0                // requests per second in the traced reference phase, about 1 % of saturation
	spinWindow  = 2 * time.Millisecond // time.Sleep can overshoot by ~1 ms, so senders spin this last stretch
	satRound    = time.Second          // the saturation phase runs in closed-loop rounds this long
	coldSamples = 5                    // cold responses recomputed with serve.Compute
	serveSetups = 15                   // daemon start-ups timed in set-up; each is a chain of 16 cold requests
)

var serveKernels = []string{"adpcm_enc", "bitcount", "crc32", "sha"}

// hotSet is the 16 requests hits are drawn from: each serve kernel on
// each configuration.
func hotSet() []serve.Request {
	var reqs []serve.Request
	for _, k := range serveKernels {
		for _, cfg := range sim.Configs {
			reqs = append(reqs, serve.Request{Kernel: k, Scale: serveScale, Configs: []string{cfg.Name}})
		}
	}
	return reqs
}

// traffic draws the seeded request stream in blocks of coldEvery
// requests: one cold request at a seeded position in each block, for a
// uniformly chosen kernel and configuration and made unique by its
// dictionary budget; the rest hits on uniformly chosen hot-set members.
// Fixing the count per block keeps every stretch of traffic at the same
// mix, so the saturation windows agree with each other.
type traffic struct {
	mu    sync.Mutex
	rng   *rand.Rand
	hot   [][]byte
	nonce int
	slot  int // position in the current block
	cold  int // the current block's cold position
}

// request is one generated request; hot is its hot-set index or -1.
type request struct {
	body []byte
	hot  int
}

func newTraffic(seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{rng: rng, nonce: 300 + rng.Intn(1000), cold: rng.Intn(coldEvery)}
	for _, r := range hotSet() {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		t.hot = append(t.hot, b)
	}
	return t, nil
}

func (t *traffic) next() request {
	t.mu.Lock()
	defer t.mu.Unlock()
	isCold := t.slot == t.cold
	if t.slot++; t.slot == coldEvery {
		t.slot, t.cold = 0, t.rng.Intn(coldEvery)
	}
	if !isCold {
		i := t.rng.Intn(len(t.hot))
		return request{body: t.hot[i], hot: i}
	}
	t.nonce++
	cfg := sim.Configs[t.rng.Intn(len(sim.Configs))]
	r := serve.Request{Kernel: serveKernels[t.rng.Intn(len(serveKernels))], Scale: serveScale,
		Configs: []string{cfg.Name}, Synth: serve.SynthKnobs{DictCap: t.nonce}}
	b, _ := json.Marshal(r) // a Request always marshals
	return request{body: b, hot: -1}
}

// schedule draws Poisson arrivals at rate per second over d.
func (t *traffic) schedule(rate float64, d time.Duration) (dues []time.Duration, reqs []request) {
	var at float64
	for {
		t.mu.Lock()
		at += t.rng.ExpFloat64() / rate
		t.mu.Unlock()
		if at >= d.Seconds() {
			return dues, reqs
		}
		dues = append(dues, time.Duration(at*float64(time.Second)))
		reqs = append(reqs, t.next())
	}
}

// daemon is a serve.Service behind a loopback HTTP server, and the
// client with one connection per worker that drives it.
type daemon struct {
	svc    *serve.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	warm   [][]byte // the hot set's responses, by hot-set index
}

// startDaemon starts a service over a fresh store in dir and warms the
// hot set through it.
func startDaemon(e *env, dir string, t *traffic) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := serve.New(serve.Options{Workers: e.workers, Store: archive.NewStore(dir)})
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String() + "/synth",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers, DisableCompression: true}}}
	go func() { d.served <- d.srv.Serve(ln) }()
	for _, body := range t.hot {
		resp, err := d.post(body)
		if err == nil && resp.status != http.StatusOK {
			err = fmt.Errorf("warming the hot set: status %d: %s", resp.status, resp.body)
		}
		if err == nil {
			err = json.Unmarshal(resp.body, new(serve.Report))
		}
		if err != nil {
			d.stop()
			return nil, err
		}
		d.warm = append(d.warm, resp.body)
	}
	return d, nil
}

// stop drains the service, shuts the server down and waits for it.
func (d *daemon) stop() {
	d.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	d.client.CloseIdleConnections()
}

type response struct {
	status int
	tier   string
	body   []byte
}

func (d *daemon) post(body []byte) (response, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, tier: resp.Header.Get("X-Powerfits-Cache"), body: b}, err
}

// sample is one answered request of the reference phase.
type sample struct {
	lat    time.Duration // from the time it was due to the end of its response
	late   time.Duration // how late an idle sender started it; 0 if it queued behind earlier requests
	hot    int           // hot-set index, or -1 for a cold request
	hit    bool          // served from the result cache
	failed bool
	status int
	req    []byte
	body   []byte // the response, kept for cold requests only
}

// check applies the per-response output check: a 200 with a body that
// decodes as a report, byte-identical to the warm response for a hot
// request.
func (d *daemon) check(s *sample, r request, resp response, err error) {
	s.hot, s.status = r.hot, resp.status
	switch {
	case err != nil, resp.status != http.StatusOK:
		s.failed = true
	case r.hot >= 0:
		s.failed = !bytes.Equal(resp.body, d.warm[r.hot])
	default:
		s.failed = json.Unmarshal(resp.body, new(serve.Report)) != nil
		s.body = resp.body
	}
	s.req = r.body
	s.hit = resp.tier == "hit" || resp.tier == "store"
}

// openLoop sends reqs[i] at start+dues[i] from one sender per
// connection. A free sender takes the next request in schedule order,
// sleeps until shortly before it is due and spins the rest of the way;
// a request whose due time passed while every sender was busy goes out
// at once. Latency counts from the due time, so time spent queued
// behind slow requests is part of it.
func (d *daemon) openLoop(senders int, dues []time.Duration, reqs []request) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(dues[i])
				idle := time.Now().Before(due)
				if wait := time.Until(due) - spinWindow; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(due) {
				}
				sent := time.Now()
				resp, err := d.post(reqs[i].body)
				s := &out[i]
				s.lat = time.Since(due)
				if idle {
					s.late = sent.Sub(due)
				}
				d.check(s, reqs[i], resp, err)
			}
		}()
	}
	wg.Wait()
	return out
}

// tally counts the saturation phase's requests as they are answered,
// so a phase of hundreds of thousands of requests keeps no per-request
// state that the peak RSS would then include.
type tally struct {
	rounds                 []round
	requests, failed, cold int
	colds                  []sample // the first cold requests answered, for verifyCold
}

// round is one closed-loop round of the saturation phase.
type round struct {
	answered int     // correct answers
	wall     float64 // seconds from the round's start until its last answer
	cal      float64 // the calibration run just before it
}

func (a *tally) add(b *tally) {
	a.rounds = append(a.rounds, b.rounds...)
	a.requests += b.requests
	a.failed += b.failed
	a.cold += b.cold
	a.colds = append(a.colds, b.colds...)
}

// saturate runs closed-loop rounds of satRound, each after a
// calibration, for the budget.
func (d *daemon) saturate(e *env, t *traffic) *tally {
	out := &tally{}
	start := time.Now()
	for time.Since(start) < e.budget {
		cal := calibrate(e.workers)
		r := d.closedLoop(e.workers, t, satRound)
		r.rounds[0].cal = cal
		out.add(r)
	}
	out.colds = out.colds[:min(len(out.colds), coldSamples)]
	return out
}

// closedLoop keeps one request in flight per sender for dur and
// returns the tally of that one round.
func (d *daemon) closedLoop(senders int, t *traffic, dur time.Duration) *tally {
	var mu sync.Mutex
	out := &tally{}
	answered := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine tally
			ok := 0
			for time.Since(start) < dur {
				r := t.next()
				resp, err := d.post(r.body)
				var s sample
				d.check(&s, r, resp, err)
				mine.requests++
				if r.hot < 0 {
					mine.cold++
					if !s.failed && len(mine.colds) < coldSamples {
						mine.colds = append(mine.colds, s)
					}
				}
				if s.failed {
					mine.failed++
				} else {
					ok++
				}
			}
			mu.Lock()
			out.add(&mine)
			answered += ok
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.rounds = []round{{answered: answered, wall: time.Since(start).Seconds()}}
	return out
}

// rates is the requests answered correctly per second in each round.
func (a *tally) rates() []float64 {
	rates := make([]float64, len(a.rounds))
	for i, r := range a.rounds {
		rates[i] = float64(r.answered) / r.wall
	}
	return rates
}

// throughput is the median round's rate, each round's rescaled to a
// host on which the calibration loop takes calRef (calibrate.go).
func (a *tally) throughput() float64 {
	rates := a.rates()
	for i, r := range a.rounds {
		rates[i] *= r.cal / calRef
	}
	return median(rates)
}

// loadResult is what the traced run's reference phase measured.
type loadResult struct {
	ref         []sample
	refWall     time.Duration
	queueDepths []float64
}

// latencies returns the latencies in milliseconds of the answered
// samples keep selects. Failed requests are left out: they are counted
// in the result's failed, which already makes the run incorrect, and a
// latency that stood for them would have to be infinite, which the
// result line cannot carry.
func latencies(ss []sample, keep func(*sample) bool) []float64 {
	var ms []float64
	for i := range ss {
		if keep(&ss[i]) && !ss[i].failed {
			ms = append(ms, float64(ss[i].lat)/float64(time.Millisecond))
		}
	}
	return ms
}

func all(*sample) bool { return true }

// reference runs the traced run's reference phase: an open loop at
// refRate for the budget, polling the admission queue depth every
// 100 ms.
func (d *daemon) reference(e *env, t *traffic) *loadResult {
	dues, reqs := t.schedule(refRate, e.budget)
	stop := make(chan struct{})
	polled := make(chan []float64)
	go func() {
		gauge := d.svc.Registry().Scope("serve", "admit").Gauge("queue_depth")
		var depths []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				depths = append(depths, gauge.Value())
			case <-stop:
				polled <- depths
				return
			}
		}
	}()
	res := &loadResult{}
	t0 := time.Now()
	res.ref = d.openLoop(e.workers, dues, reqs)
	res.refWall = time.Since(t0)
	close(stop)
	res.queueDepths = <-polled
	return res
}

// verifyCold recomputes a seed-chosen sample of the cold responses
// with serve.Compute; each must be byte-identical.
func verifyCold(ss []sample, seed int64) (checked, failed int) {
	var colds []*sample
	for i := range ss {
		if ss[i].hot < 0 && !ss[i].failed {
			colds = append(colds, &ss[i])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(colds), func(i, j int) { colds[i], colds[j] = colds[j], colds[i] })
	for _, s := range colds[:min(coldSamples, len(colds))] {
		checked++
		if !matchesCompute(s.req, s.body, nil) {
			failed++
		}
	}
	return checked, failed
}

// matchesCompute reports whether body is what serve.Compute answers to
// the request req.
func matchesCompute(req, body []byte, memo *profile.Cache) bool {
	var r serve.Request
	var want []byte
	err := json.Unmarshal(req, &r)
	if err == nil {
		var c *serve.Canonical
		if c, err = serve.Canonicalize(r, serve.DefaultCalBlob()); err == nil {
			want, _, err = serve.Compute(c, memo)
		}
	}
	if err != nil || !bytes.Equal(body, want) {
		logf("check: response to %s differs from serve.Compute (err %v)", req, err)
		return false
	}
	return true
}

// count folds the per-request checks of ss into o.
func (o *outcome) count(ss []sample) {
	for _, s := range ss {
		o.attempted++
		if s.failed {
			o.failed++
		}
	}
}

// runServe is the serve-mix workload. The untraced run measures
// saturation throughput for the budget; the traced run sends the
// reference phase instead and replays it layer by layer.
func runServe(e *env, traced bool) (*outcome, error) {
	t, err := newTraffic(e.seed)
	if err != nil {
		return nil, err
	}
	var d *daemon
	var setups []rep
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		cal := calibrate(e.workers)
		t0 := time.Now()
		if d, err = startDaemon(e, filepath.Join(e.dir, fmt.Sprintf("serve-%d", i)), t); err != nil {
			return nil, err
		}
		setups = append(setups, rep{wall: time.Since(t0).Seconds(), cal: cal})
	}
	logf("serve-mix set-up: %d daemon start-ups %.4f s, calibration %.4f s", len(setups), walls(setups), cals(setups))

	out := &outcome{}
	if !traced {
		sat := d.saturate(e, t)
		d.stop()
		out.attempted, out.failed = sat.requests, sat.failed
		checked, failed := verifyCold(sat.colds, e.seed)
		out.attempted += checked
		out.failed += failed
		sat.log()
		out.metrics = map[string]float64{
			"setup_s":     atReference(setups),
			"work_per_s":  sat.throughput(),
			"peak_rss_mb": peakRSSMB(),
		}
		return out, nil
	}

	res := d.reference(e, t)
	d.stop()
	out.count(res.ref)
	checked, failed := verifyCold(res.ref, e.seed)
	out.attempted += checked
	out.failed += failed
	res.log()
	tr := newTracer()
	n, replay, err := tr.serveReplay(e, t, d.warm, res.ref, out)
	if err != nil {
		return nil, err
	}
	out.metrics = tr.layerMetrics(n, replay)
	maps.Copy(out.metrics, res.layer(replay/time.Duration(n), e.workers))
	return out, nil
}

func hit(s *sample) bool  { return s.hot >= 0 }
func cold(s *sample) bool { return s.hot < 0 }

// log writes the saturation phase's breakdown to standard error.
func (a *tally) log() {
	var cs []float64
	for _, r := range a.rounds {
		cs = append(cs, r.cal)
	}
	logf("serve-mix saturation: %d requests (%d cold) in %d rounds of %v; round rates %.0f /s, calibration %.4f s, at reference speed median %.0f /s",
		a.requests, a.cold, len(a.rounds), satRound, a.rates(), cs, a.throughput())
}

// log writes the reference phase's breakdown to standard error.
func (r *loadResult) log() {
	var lateUS []float64
	for _, s := range r.ref {
		lateUS = append(lateUS, float64(s.late)/float64(time.Microsecond))
	}
	logf("serve-mix reference %.0f/s: %d requests in %.2fs, p50 %.3f ms, hit p50 %.3f ms (%d), cold p50 %.3f ms (%d), p99 %.3f ms; generator late p50 %.1f µs p99 %.1f µs",
		refRate, len(r.ref), r.refWall.Seconds(), percentile(latencies(r.ref, all), 50),
		percentile(latencies(r.ref, hit), 50), len(latencies(r.ref, hit)),
		percentile(latencies(r.ref, cold), 50), len(latencies(r.ref, cold)),
		percentile(latencies(r.ref, all), 99), percentile(lateUS, 50), percentile(lateUS, 99))
}

// layer is the per-layer metrics the reference phase measures.
// perRequest is the traced replay's mean busy time per request, from
// which the phase's idle share of the workers follows.
func (r *loadResult) layer(perRequest time.Duration, workers int) map[string]float64 {
	p50 := percentile(latencies(r.ref, all), 50)
	hits, answered, rejected := 0, 0, 0
	var lateMS []float64
	for _, s := range r.ref {
		lateMS = append(lateMS, float64(s.late)/float64(time.Millisecond))
		switch s.status {
		case http.StatusOK:
			answered++
			if s.hit {
				hits++
			}
		case http.StatusTooManyRequests:
			rejected++
		}
	}
	busy := perRequest.Seconds() * float64(len(r.ref))
	return map[string]float64{
		"engine.idle_frac":      1 - ratio(busy, r.refWall.Seconds()*float64(workers)),
		"serve.p50_ms":          p50,
		"serve.cache_hit_rate":  ratio(float64(hits), float64(answered)),
		"serve.rejected":        float64(rejected),
		"serve.admit_queue_p99": percentile(r.queueDepths, 99),
		"serve.cold_p50_x":      ratio(percentile(latencies(r.ref, cold), 50), p50),
		"serve.p99_x":           ratio(percentile(latencies(r.ref, all), 99), p50),
		"loadgen.late_p99_x":    ratio(percentile(lateMS, 99), p50),
	}
}

// serveReplay replays the reference schedule sequentially and in
// process, and returns how many requests it replayed and the time that
// took. A hit goes through the handler of a
// service warmed on the hot set (span serve.front). A cold request goes
// through the calls the daemon's cold path makes: decode and
// serve.Canonicalize (serve.front), Canonical.Prepare with a profile
// memo warmed on the hot set (its stage log), Canonical.Evaluate, which
// times the configurations and renders the report (sim), and the
// archive save. After the replay every hit must equal its warm response
// and every cold body serve.Compute's.
func (t *tracer) serveReplay(e *env, tf *traffic, warm [][]byte, ref []sample, out *outcome) (int, time.Duration, error) {
	h := serve.New(serve.Options{Workers: e.workers}).Handler()
	memo := profile.NewCache()
	calBlob := serve.DefaultCalBlob()
	for i, body := range tf.hot {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/synth", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("warming the replay service: hot request %d: status %d", i, rec.Code)
		}
		if i%len(sim.Configs) == 0 {
			c, err := serve.Canonicalize(hotSet()[i], calBlob)
			if err == nil {
				_, err = c.Prepare(memo, nil)
			}
			if err != nil {
				return 0, 0, err
			}
		}
	}
	store := archive.NewStore(filepath.Join(e.dir, "replay"))
	reqs := make([]*http.Request, len(ref))
	recs := make([]*httptest.ResponseRecorder, len(ref))
	for i, s := range ref {
		if s.hot >= 0 {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/synth", bytes.NewReader(s.req))
			recs[i] = httptest.NewRecorder()
		}
	}
	bodies := make([][]byte, len(ref))

	start := time.Now()
	for i, s := range ref {
		if s.hot >= 0 {
			t0 := time.Now()
			h.ServeHTTP(recs[i], reqs[i])
			t.span("serve.front", t0)
			continue
		}
		var err error
		if bodies[i], err = t.serveCold(s.req, calBlob, memo, store); err != nil {
			return 0, 0, err
		}
	}
	wall := time.Since(start)

	computeMemo := profile.NewCache()
	for i, s := range ref {
		out.attempted++
		switch {
		case s.hot >= 0 && (recs[i].Code != http.StatusOK || !bytes.Equal(recs[i].Body.Bytes(), warm[s.hot])):
			logf("check: replayed hit %s: status %d, body differs from the warm response", s.req, recs[i].Code)
			out.failed++
		case s.hot < 0 && !matchesCompute(s.req, bodies[i], computeMemo):
			out.failed++
		}
	}
	return len(ref), wall, nil
}

// serveCold is one cold request split into the calls the daemon makes.
func (t *tracer) serveCold(body, calBlob []byte, memo *profile.Cache, store *archive.Store) ([]byte, error) {
	t0 := time.Now()
	var req serve.Request
	err := json.Unmarshal(body, &req)
	var c *serve.Canonical
	if err == nil {
		c, err = serve.Canonicalize(req, calBlob)
	}
	t.span("serve.front", t0)
	if err != nil {
		return nil, err
	}
	s, err := t.prepare(c.SetupKey, memo, func(log *slog.Logger) (*sim.Setup, error) { return c.Prepare(memo, log) })
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	out, rep, err := c.Evaluate(s)
	t.span("sim", t0)
	if err != nil {
		return nil, err
	}
	for _, o := range rep.Results {
		t.simInstrs += o.Instrs // cold requests run exact, every instruction in detail
		t.simDetailed += o.Instrs
	}
	t0 = time.Now()
	reqBlob, err := json.Marshal(c.Req)
	var path string
	if err == nil {
		path, err = store.Save(archive.FromServe(c.Req.Scale, c.Key, reqBlob, c.Req.Sampled, out))
	}
	t.span("archive", t0)
	if err != nil {
		return nil, err
	}
	t.saved(path)
	return out, nil
}
