package sweep

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// Options configures one sweep run.
type Options struct {
	// Grid is the design space (required; Validate must pass).
	Grid Grid
	// Strategy picks the visit order (nil = exhaustive GridOrder).
	Strategy Strategy
	// Fuel bounds the number of points visited, evaluated or reused
	// from the archive alike (≤ 0 = the whole grid). The bound is what
	// makes stochastic strategies budgetable: a sweep with fuel F
	// touches at most F points no matter what the strategy proposes.
	Fuel int
	// Workers is the evaluation fan-out (≤ 0 = GOMAXPROCS).
	Workers int

	// Exact runs every point through the full pipeline simulation.
	// The default is the sampled estimator (Sample), with only the
	// frontier re-run exactly afterwards — the cheap-evaluation layer.
	// Either way the points of one synthesis image are prepared once
	// and timed in one Setup.RunAll, bit-identical to per-point runs.
	Exact bool
	// Sample tunes the sampled estimator (zero = validated defaults).
	Sample sim.SampleOptions
	// NoRefine skips the exact re-run of frontier points, reporting
	// the sampled frontier as-is.
	NoRefine bool

	// Store, when non-nil, makes the sweep incremental: every point is
	// probed by its deterministic run ID before evaluation and saved
	// after it, so interrupted, repeated or extended sweeps only pay
	// for points the store has never seen.
	Store *archive.Store
	// Profiles memoizes the profiling stage across points (nil = a
	// fresh cache private to this run; every synthesis point of the
	// kernel still shares one profile).
	Profiles *profile.Cache
	// Synth is the base synthesis configuration; the grid axes
	// override ForceK, DictCap and the ablation switches per point.
	Synth synth.Options
	// Cal is the power calibration (zero = DefaultCalibration).
	Cal power.Calibration

	// Progress, when non-nil, receives one event per visited point.
	Progress experiments.ProgressFunc
	// Metrics, when non-nil, exposes live sweep counters under the
	// "sweep/" scope (points_total, points_done, evaluated, memo_hits,
	// archive_skips, infeasible, refined).
	Metrics *metrics.Registry
	// Log, when non-nil, receives structured per-phase records.
	Log *slog.Logger
}

// Stats summarizes where a sweep's time went — the proof that the
// memoization layers engaged.
type Stats struct {
	// Points is the number of grid points visited.
	Points int `json:"points"`
	// Evaluated counts points resolved this run rather than reused
	// from the store: the simulated ones plus those found infeasible,
	// which are resolved but never simulated.
	Evaluated int `json:"evaluated"`
	// ArchiveSkips counts points reused from the store.
	ArchiveSkips int `json:"archive_skips"`
	// ProfileRuns and MemoHits are the profile cache's miss/hit split:
	// ProfileRuns is how many times profile.Collect actually ran.
	ProfileRuns uint64 `json:"profile_runs"`
	MemoHits    uint64 `json:"memo_hits"`
	// Infeasible counts points whose synthesis admits no encoding.
	Infeasible int `json:"infeasible"`
	// Refined and RefineSkips count the exact frontier re-runs
	// (evaluated vs reused from the store).
	Refined     int `json:"refined"`
	RefineSkips int `json:"refine_skips"`
	// WallSec is the run's wall-clock time.
	WallSec float64 `json:"wall_sec"`
}

// PointMetrics are one point's measured outcomes.
type PointMetrics struct {
	// K and DictEntries describe the synthesized ISA (K is the chosen
	// opcode width — equal to the forced one when forced).
	K           int `json:"k"`
	DictEntries int `json:"dict_entries"`
	// CodeBytes is the FITS text-segment size.
	CodeBytes int `json:"code_bytes"`
	// Cycles, Instrs, Fetches, Misses are the timing run's outcome on
	// the point's cache geometry.
	Cycles  uint64 `json:"cycles"`
	Instrs  uint64 `json:"instrs"`
	Fetches uint64 `json:"fetches"`
	Misses  uint64 `json:"misses"`
	// EnergyPJ is the total I-cache fetch energy.
	EnergyPJ float64 `json:"energy_pj"`
}

// PointResult is the outcome of visiting one grid point.
type PointResult struct {
	Point Point  `json:"point"`
	Label string `json:"label"`
	// RunID is the point's deterministic archive identity.
	RunID string `json:"run_id"`
	// Sampled marks metrics from the sampled estimator.
	Sampled bool `json:"sampled"`
	// Infeasible carries the synthesis error when the point admits no
	// encoding (e.g. a forced K too narrow for the kernel); Metrics is
	// zero then.
	Infeasible string       `json:"infeasible,omitempty"`
	Metrics    PointMetrics `json:"metrics"`
}

// Result is a completed sweep.
type Result struct {
	Grid     Grid   `json:"grid"`
	Strategy string `json:"strategy"`
	Exact    bool   `json:"exact"`
	// Points holds one entry per grid point, indexed by point index;
	// nil = not visited (strategy never proposed it / fuel ran out).
	Points []*PointResult `json:"-"`
	// Frontier is the Pareto-minimal set over (EnergyPJ, CodeBytes,
	// Cycles) among feasible visited points, ascending by energy. When
	// the sweep sampled and refinement ran, frontier entries carry
	// exact metrics (Sampled=false).
	Frontier []*PointResult `json:"frontier"`
	Stats    Stats          `json:"stats"`
}

// Run executes a sweep.
func Run(opt Options) (*Result, error) {
	if err := opt.Grid.Validate(); err != nil {
		return nil, err
	}
	k, err := kernels.Get(opt.Grid.Kernel)
	if err != nil {
		return nil, err
	}
	return run(opt, k)
}

// run is Run over the grid's kernel k.
func run(opt Options, k kernels.Kernel) (*Result, error) {
	start := time.Now()
	g := opt.Grid
	if g.Scale <= 0 {
		g.Scale = k.DefaultScale
	}
	strat := opt.Strategy
	if strat == nil {
		strat = GridOrder{}
	}
	cal := opt.Cal
	if cal == (power.Calibration{}) {
		cal = power.DefaultCalibration()
	}
	calBlob, err := json.Marshal(cal)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal calibration: %w", err)
	}
	profiles := opt.Profiles
	if profiles == nil {
		profiles = profile.NewCache()
	}
	startHits, startRuns := profiles.Stats()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	n := g.Size()
	fuel := opt.Fuel
	if fuel <= 0 || fuel > n {
		fuel = n
	}

	e := &engine{
		opt:       opt,
		grid:      g,
		cal:       cal,
		calBlob:   calBlob,
		profiles:  profiles,
		startHits: startHits,
		workers:   workers,
		total:     fuel,
		start:     start,
		results:   make([]*PointResult, n),
	}
	e.baseline = sync.OnceValues(func() (*sim.Setup, error) {
		return sim.PrepareBaseline(k, g.Scale, opt.Log)
	})
	if opt.Metrics != nil {
		e.gauges = newGauges(opt.Metrics, fuel)
	}

	// Drive the strategy: serial Next, parallel batch evaluation.
	visited := 0
	for visited < fuel {
		batch := strat.Next(&g, e.results)
		var todo []int
		seen := map[int]bool{}
		for _, i := range batch {
			if i < 0 || i >= n || e.results[i] != nil || seen[i] {
				continue
			}
			seen[i] = true
			todo = append(todo, i)
			if visited+len(todo) == fuel {
				break
			}
		}
		if len(batch) == 0 {
			break
		}
		if len(todo) == 0 {
			continue
		}
		if err := e.evaluate(todo); err != nil {
			return nil, err
		}
		visited += len(todo)
	}

	res := &Result{
		Grid:     g,
		Strategy: strat.Name(),
		Exact:    opt.Exact,
		Points:   e.results,
	}
	res.Stats = e.stats
	res.Stats.Points = visited

	// Frontier over the sampled (or exact) visits, then the exact
	// refinement pass for sampled sweeps.
	front := frontier(e.results)
	if !opt.Exact && !opt.NoRefine {
		front, err = e.refine(front)
		if err != nil {
			return nil, err
		}
		res.Stats.Refined = e.stats.Refined
		res.Stats.RefineSkips = e.stats.RefineSkips
	}
	res.Frontier = front

	hits, runs := profiles.Stats()
	res.Stats.MemoHits = hits - startHits
	res.Stats.ProfileRuns = runs - startRuns
	res.Stats.WallSec = time.Since(start).Seconds()
	if e.gauges != nil {
		e.gauges.memoHits.Set(float64(res.Stats.MemoHits))
	}
	if opt.Log != nil {
		opt.Log.Info("sweep done",
			"kernel", g.Kernel, "strategy", strat.Name(),
			"points", res.Stats.Points, "evaluated", res.Stats.Evaluated,
			"archive_skips", res.Stats.ArchiveSkips,
			"memo_hits", res.Stats.MemoHits, "profile_runs", res.Stats.ProfileRuns,
			"infeasible", res.Stats.Infeasible,
			"refined", res.Stats.Refined, "refine_skips", res.Stats.RefineSkips,
			"frontier", len(res.Frontier),
			"wall_sec", fmt.Sprintf("%.3f", res.Stats.WallSec))
	}
	return res, nil
}

// engine carries the run state shared between batches.
type engine struct {
	opt      Options
	grid     Grid
	cal      power.Calibration
	calBlob  []byte
	profiles *profile.Cache
	// startHits is the profile cache's hit count when the run began:
	// a shared cache carries earlier runs' hits, so the run's own are
	// the delta.
	startHits uint64
	workers   int
	total     int
	start     time.Time

	// baseline builds the kernel's ARM half on its first call, by the
	// first image job with a missing point, and returns that Setup to
	// every later call. It lives only as long as the run: a warm store
	// builds none.
	baseline func() (*sim.Setup, error)

	results []*PointResult

	mu    sync.Mutex // guards stats, done and progress emission
	stats Stats
	done  int

	gauges *gauges
}

// gauges are the live /metrics view of a running sweep.
type gauges struct {
	done, evaluated, archiveSkips, memoHits, infeasible, refined *metrics.Gauge
}

func newGauges(r *metrics.Registry, total int) *gauges {
	sc := r.Scope("sweep")
	sc.Gauge("points_total").Set(float64(total))
	g := &gauges{
		done:         sc.Gauge("points_done"),
		evaluated:    sc.Gauge("evaluated"),
		archiveSkips: sc.Gauge("archive_skips"),
		memoHits:     sc.Gauge("memo_hits"),
		infeasible:   sc.Gauge("infeasible"),
		refined:      sc.Gauge("refined"),
	}
	g.done.Set(0)
	return g
}

// evaluate visits a batch of grid points at the sweep's fidelity.
// Results land in the index-addressed slice, so completion order — the
// only thing the worker count changes — is invisible to the strategy
// and the frontier.
func (e *engine) evaluate(todo []int) error {
	pts := make([]Point, len(todo))
	for j, i := range todo {
		pts[j] = e.grid.Point(i)
	}
	return e.resolve(pts, !e.opt.Exact, func(j int, pr *PointResult, evaluated bool) {
		e.results[todo[j]] = pr
		e.record(pr, evaluated)
	})
}

// record folds one finished point into the stats and live telemetry.
func (e *engine) record(pr *PointResult, evaluated bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	if evaluated {
		e.stats.Evaluated++
	} else {
		e.stats.ArchiveSkips++
	}
	if pr.Infeasible != "" {
		e.stats.Infeasible++
	}
	if e.gauges != nil {
		e.gauges.done.Set(float64(e.done))
		e.gauges.evaluated.Set(float64(e.stats.Evaluated))
		e.gauges.archiveSkips.Set(float64(e.stats.ArchiveSkips))
		e.gauges.infeasible.Set(float64(e.stats.Infeasible))
		hits, _ := e.profiles.Stats()
		e.gauges.memoHits.Set(float64(hits - e.startHits))
	}
	if e.opt.Progress != nil {
		e.opt.Progress(experiments.ProgressEvent{
			Kernel:    pr.Label,
			Done:      e.done,
			Total:     e.total,
			DynInstrs: pr.Metrics.Instrs,
			Elapsed:   time.Since(e.start),
		})
	}
}

// identity builds the archive identity of a point at a given fidelity.
func (e *engine) identity(p Point, popts synth.Options, sampled bool) archive.SweepPoint {
	return archive.SweepPoint{
		Kernel:     e.grid.Kernel,
		Scale:      e.grid.Scale,
		Label:      p.Label(),
		OptionsKey: popts.Key(),
		CacheBytes: p.Cache.SizeBytes,
		CacheLine:  p.Cache.LineBytes,
		CacheAssoc: p.Cache.Assoc,
		Sampled:    sampled,
	}
}

// resolve evaluates pts on the worker pool at one fidelity, one job per
// synthesis image: the points whose synthesis options agree, grouped in
// order of first appearance. Cache geometry is the grid's innermost
// axis, so a kernel's images are its (K, dictionary, ablation) triples.
// done receives every point's result once, with whether it was
// evaluated this run rather than reused from the store.
func (e *engine) resolve(pts []Point, sampled bool, done func(j int, pr *PointResult, evaluated bool)) error {
	var images [][]int
	byKey := map[string]int{}
	for j, p := range pts {
		key := p.Options(e.opt.Synth).Key()
		if g, ok := byKey[key]; ok {
			images[g] = append(images[g], j)
			continue
		}
		byKey[key] = len(images)
		images = append(images, []int{j})
	}
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	for _, idx := range images {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := e.evaluateImage(pts, idx, sampled, done); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(idx)
	}
	wg.Wait()
	return firstErr
}

// evaluateImage is one evaluation job: the points pts[idx] of one
// synthesis image, each probed in the store by its run ID. The missing
// ones share one preparation, the image's FITS half on the run's
// baseline (sim.Setup.WithFITS), and one RunAll, so every geometry
// whose cache holds the image's text rides a single timing pass; each
// result is bit-identical to a standalone run of its point. The FITS
// half is not kept past the job: holding a kernel's Setups for the
// refinement pass would grow the sweep's resident set by every image it
// prepared. A baseline that fails to build fails the sweep: it is a
// fault of the kernel, not of the design point.
func (e *engine) evaluateImage(pts []Point, idx []int, sampled bool, done func(j int, pr *PointResult, evaluated bool)) error {
	popts := pts[idx[0]].Options(e.opt.Synth)
	out := make([]*PointResult, len(idx))
	sps := make([]archive.SweepPoint, len(idx))
	var missing []int // positions in idx
	fresh := make([]bool, len(idx))
	for n, j := range idx {
		p := pts[j]
		sps[n] = e.identity(p, popts, sampled)
		id := archive.SweepRunID(&sps[n], e.calBlob)
		if out[n] = e.probe(p, id); out[n] == nil {
			out[n] = &PointResult{Point: p, Label: sps[n].Label, RunID: id, Sampled: sampled}
			missing = append(missing, n)
			fresh[n] = true
		}
	}
	if len(missing) > 0 {
		base, err := e.baseline()
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		s, err := base.WithFITS(base.Profiler(e.profiles, popts), popts, e.opt.Log)
		if err != nil {
			// A synthesis failure is a fact about the design point (e.g. a
			// forced opcode width the kernel cannot encode), not a fault:
			// record it so re-sweeps skip it like any other visited point.
			for _, n := range missing {
				out[n].Infeasible = err.Error()
			}
		} else {
			cfgs := make([]sim.Config, len(missing))
			for m, n := range missing {
				cfgs[m] = sim.Config{Name: out[n].Label, ISA: sim.ISAFITS, Cache: out[n].Point.Cache}
			}
			var ro sim.RunOptions
			if sampled {
				so := e.opt.Sample
				ro.Sample = &so
			}
			rs, err := s.RunAll(cfgs, e.cal, ro)
			if err != nil {
				// Run errors name the pass's configurations: the labels.
				return fmt.Errorf("sweep: %w", err)
			}
			for m, n := range missing {
				r := rs[m]
				out[n].Metrics = PointMetrics{
					K:           s.Synth.K,
					DictEntries: s.Synth.DictEntries,
					CodeBytes:   s.Fits.Image.Size(),
					Cycles:      r.Pipe.Cycles,
					Instrs:      r.Pipe.Instrs,
					Fetches:     r.Cache.Accesses,
					Misses:      r.Cache.Misses,
					EnergyPJ:    r.Power.TotalPJ(),
				}
			}
		}
		if e.opt.Store != nil {
			for _, n := range missing {
				sp, pr := &sps[n], out[n]
				sp.Infeasible = pr.Infeasible
				sp.K = pr.Metrics.K
				sp.DictEntries = pr.Metrics.DictEntries
				sp.CodeBytes = pr.Metrics.CodeBytes
				sp.Cycles = pr.Metrics.Cycles
				sp.Instrs = pr.Metrics.Instrs
				sp.Fetches = pr.Metrics.Fetches
				sp.Misses = pr.Metrics.Misses
				sp.EnergyPJ = pr.Metrics.EnergyPJ
				if _, err := e.opt.Store.Save(archive.FromSweepPoint(sp, e.calBlob)); err != nil {
					return fmt.Errorf("sweep: archive %s: %w", sp.Label, err)
				}
			}
		}
	}
	for n, j := range idx {
		done(j, out[n], fresh[n])
	}
	return nil
}

// probe checks the store for a finished point record.
func (e *engine) probe(p Point, id string) *PointResult {
	if e.opt.Store == nil {
		return nil
	}
	rec, err := e.opt.Store.Load(id)
	if err != nil || rec.Sweep == nil {
		return nil
	}
	return fromRecord(p, rec.Sweep, id)
}

// refine re-runs the frontier points exactly, image by image like any
// evaluation. Refined results carry their own archive identities
// (Sampled=false), so a warm re-sweep skips this pass too. Membership
// stays as the sampled frontier decided — refinement improves the
// numbers, not the selection — which keeps the document independent of
// evaluation order.
func (e *engine) refine(front []*PointResult) ([]*PointResult, error) {
	if len(front) == 0 {
		return front, nil
	}
	pts := make([]Point, len(front))
	for fi, pr := range front {
		pts[fi] = pr.Point
	}
	refined := make([]*PointResult, len(front))
	err := e.resolve(pts, false, func(fi int, pr *PointResult, evaluated bool) {
		refined[fi] = pr
		e.mu.Lock()
		defer e.mu.Unlock()
		if !evaluated {
			e.stats.RefineSkips++
			return
		}
		e.stats.Refined++
		if e.gauges != nil {
			e.gauges.refined.Set(float64(e.stats.Refined))
		}
	})
	if err != nil {
		return nil, err
	}
	return refined, nil
}

// fromRecord rebuilds a PointResult from an archived sweep record.
func fromRecord(p Point, sp *archive.SweepPoint, id string) *PointResult {
	return &PointResult{
		Point:      p,
		Label:      sp.Label,
		RunID:      id,
		Sampled:    sp.Sampled,
		Infeasible: sp.Infeasible,
		Metrics: PointMetrics{
			K:           sp.K,
			DictEntries: sp.DictEntries,
			CodeBytes:   sp.CodeBytes,
			Cycles:      sp.Cycles,
			Instrs:      sp.Instrs,
			Fetches:     sp.Fetches,
			Misses:      sp.Misses,
			EnergyPJ:    sp.EnergyPJ,
		},
	}
}
