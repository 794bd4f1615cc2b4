package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/sweep"
	"powerfits/internal/synth"
)

// sweepGrid is the sweep-cold design space of one kernel at scale 1:
// the default grid's three opcode widths and three cache geometries,
// every synthesis ablation, and one dictionary budget, 45 points. With
// the default grid's three dictionary budgets (135 points) one sweep of
// every kernel takes 6–9 s on the measuring host, too long for the
// calibration before it to track the host's speed (calibrate.go).
func sweepGrid(kernel string) sweep.Grid {
	g := sweep.DefaultGrid(kernel, 1)
	g.DictCaps = []int{64}
	g.Ablations = sweep.AllAblations()
	return g
}

// warmGrid is the set-up sweep's design space: one point per kernel.
func warmGrid(kernel string) sweep.Grid {
	g := sweep.DefaultGrid(kernel, 1)
	g.Ks, g.DictCaps, g.Caches = []int{0}, []int{256}, g.Caches[1:2]
	return g
}

// sweepRun is one sweep-cold operation's outcome.
type sweepRun struct {
	points  int
	digests map[string]string        // kernel → SHA-256 of the frontier document
	results map[string]*sweep.Result // kernel → result
}

// sweepOp is one cold sweep as a user runs it: every kernel's grid
// swept into one fresh archive store in dir, each frontier document
// rendered.
func sweepOp(e *env, dir string, grid func(kernel string) sweep.Grid) (*sweepRun, error) {
	store := archive.NewStore(dir)
	run := &sweepRun{digests: map[string]string{}, results: map[string]*sweep.Result{}}
	for _, k := range kernels.All() {
		res, err := sweep.Run(sweep.Options{Grid: grid(k.Name), Workers: e.workers, Store: store})
		if err != nil {
			return nil, err
		}
		doc, err := res.Document().Marshal()
		if err != nil {
			return nil, err
		}
		run.digests[k.Name] = digest(doc)
		run.results[k.Name] = res
		run.points += res.Stats.Points
	}
	return run, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check compares every kernel's frontier document with the reference.
func (r *sweepRun) check(ref *reference) (attempted, failed int) {
	for _, k := range kernels.All() {
		attempted++
		if got, want := r.digests[k.Name], ref.SweepDigests[k.Name]; got != want {
			if failed == 0 {
				logf("check: %s sweep document digest %s, reference %s", k.Name, got, want)
			}
			failed++
		}
	}
	return attempted, failed
}

// runSweep is the sweep-cold workload. Set-up loads the reference and
// warms up with a one-point sweep of every kernel.
func runSweep(e *env, traced bool) (*outcome, error) {
	var ref *reference
	setups, err := timeSetup(e, func() (err error) {
		if ref, err = loadReference(); err != nil {
			return err
		}
		dir := filepath.Join(e.dir, "warm")
		defer os.RemoveAll(dir)
		_, err = sweepOp(e, dir, warmGrid)
		return err
	})
	if err != nil {
		return nil, err
	}
	if traced {
		return traceSweep(e, ref)
	}
	out := &outcome{}
	var points int
	dir := filepath.Join(e.dir, "sweep")
	reps, err := repeatOps(e, func() (time.Duration, error) {
		t0 := time.Now()
		run, err := sweepOp(e, dir, sweepGrid)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		a, f := run.check(ref)
		out.attempted += a
		out.failed += f
		points = run.points
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	logf("sweep-cold: %d points per rep, %d reps, rep wall %.3f s, calibration %.4f s, at reference speed %.3f s",
		points, len(reps), walls(reps), cals(reps), atReference(reps))
	out.metrics = map[string]float64{
		"setup_s":     atReference(setups),
		"work_per_s":  float64(points) / atReference(reps),
		"peak_rss_mb": peakRSSMB(),
	}
	return out, nil
}

// traceSweep runs one untraced sweep, which also fixes frontier
// membership, then replays every point sequentially with spans.
func traceSweep(e *env, ref *reference) (*outcome, error) {
	t0 := time.Now()
	run, err := sweepOp(e, filepath.Join(e.dir, "sweep"), sweepGrid)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	out := &outcome{}
	out.attempted, out.failed = run.check(ref)

	tr := newTracer()
	store := archive.NewStore(filepath.Join(e.dir, "sweep-traced"))
	replayed := &sweepRun{digests: map[string]string{}}
	start := time.Now()
	for _, k := range kernels.All() {
		doc, err := tr.sweep(store, k, run.results[k.Name])
		if err != nil {
			return nil, err
		}
		replayed.digests[k.Name] = digest(doc)
	}
	replay := time.Since(start)
	a, f := replayed.check(ref)
	out.attempted += a
	out.failed += f
	out.metrics = tr.layerMetrics(1, replay)
	// sweep.Run reports no busy time of its own; the sequential replay's
	// wall time stands in for it.
	out.metrics["engine.idle_frac"] = 1 - replay.Seconds()/(untraced.Seconds()*float64(e.workers))
	return out, nil
}

// sweep replays sweep.Run for one kernel: each grid point probed in
// the store, prepared, timed with the sampled estimator and archived,
// then the frontier points re-run exactly, and the document rendered.
// Frontier membership comes from the untraced result; the rendered
// document must still match the reference, which holds the replay to
// what sweep.Run computes.
//
// The grid starts with points whose synthesis fails, and a failed
// preparation logs no stages. The replay therefore visits one feasible
// point first, so the kernel's one profiling run is read from a stage
// log as profile time; results are addressed by index, so the order
// does not change the document.
func (t *tracer) sweep(store *archive.Store, k kernels.Kernel, untraced *sweep.Result) ([]byte, error) {
	g := untraced.Grid
	calBlob, err := json.Marshal(power.DefaultCalibration())
	if err != nil {
		return nil, err
	}
	memo := profile.NewCache()
	res := &sweep.Result{Grid: g, Strategy: untraced.Strategy, Points: make([]*sweep.PointResult, g.Size())}
	first := max(0, slices.IndexFunc(untraced.Points, func(p *sweep.PointResult) bool { return p.Infeasible == "" }))
	order := []int{first}
	for i := range res.Points {
		if i != first {
			order = append(order, i)
		}
	}
	for _, i := range order {
		if res.Points[i], err = t.sweepPoint(store, k, g.Scale, g.Point(i), memo, calBlob, true); err != nil {
			return nil, err
		}
	}
	for _, f := range untraced.Frontier {
		pr, err := t.sweepPoint(store, k, g.Scale, f.Point, memo, calBlob, false)
		if err != nil {
			return nil, err
		}
		res.Frontier = append(res.Frontier, pr)
	}
	t0 := time.Now()
	doc, err := res.Document().Marshal()
	t.span("render", t0)
	return doc, err
}

// sweepPoint is one traced point evaluation, as the sweep engine does
// it: store probe, preparation (a failure marks the point infeasible),
// one FITS timing run on the point's cache geometry, store save.
func (t *tracer) sweepPoint(store *archive.Store, k kernels.Kernel, scale int, p sweep.Point,
	memo *profile.Cache, calBlob []byte, sampled bool) (*sweep.PointResult, error) {
	popts := p.Options(synth.Options{})
	sp := archive.SweepPoint{Kernel: k.Name, Scale: scale, Label: p.Label(), OptionsKey: popts.Key(),
		CacheBytes: p.Cache.SizeBytes, CacheLine: p.Cache.LineBytes, CacheAssoc: p.Cache.Assoc, Sampled: sampled}
	id := archive.SweepRunID(&sp, calBlob)
	t0 := time.Now()
	_, err := store.Load(id)
	t.span("archive", t0)
	if err == nil {
		return nil, fmt.Errorf("sweep point %s: unexpected record in a fresh store", sp.Label)
	}

	pr := &sweep.PointResult{Point: p, Label: sp.Label, RunID: id, Sampled: sampled}
	s, err := t.prepare(fmt.Sprintf("%s/%d/%s", k.Name, scale, sp.OptionsKey), memo, func(log *slog.Logger) (*sim.Setup, error) {
		return sim.PrepareWith(k, scale, sim.PrepareOptions{Synth: popts, Profiles: memo, Log: log})
	})
	if sampled {
		t.points++
	}
	if err != nil {
		pr.Infeasible = err.Error()
		t.infeasible++
	} else {
		r, err := t.simulate(s, sim.Config{Name: sp.Label, ISA: sim.ISAFITS, Cache: p.Cache}, sampled)
		if err != nil {
			return nil, err
		}
		pr.Metrics = sweep.PointMetrics{K: s.Synth.K, DictEntries: s.Synth.DictEntries,
			CodeBytes: s.Fits.Image.Size(), Cycles: r.Pipe.Cycles, Instrs: r.Pipe.Instrs,
			Fetches: r.Cache.Accesses, Misses: r.Cache.Misses, EnergyPJ: r.Power.TotalPJ()}
	}
	sp.Infeasible = pr.Infeasible
	sp.K, sp.DictEntries, sp.CodeBytes = pr.Metrics.K, pr.Metrics.DictEntries, pr.Metrics.CodeBytes
	sp.Cycles, sp.Instrs, sp.Fetches = pr.Metrics.Cycles, pr.Metrics.Instrs, pr.Metrics.Fetches
	sp.Misses, sp.EnergyPJ = pr.Metrics.Misses, pr.Metrics.EnergyPJ
	t0 = time.Now()
	path, err := store.Save(archive.FromSweepPoint(&sp, calBlob))
	t.span("archive", t0)
	if err != nil {
		return nil, err
	}
	t.saved(path)
	return pr, nil
}

// simulate is one traced timing run, exact or sampled.
func (t *tracer) simulate(s *sim.Setup, cfg sim.Config, sampled bool) (*sim.Result, error) {
	cal := power.DefaultCalibration()
	t0 := time.Now()
	var r *sim.Result
	var err error
	if sampled {
		r, err = s.RunSampled(cfg, cal, sim.SampleOptions{})
	} else {
		r, err = s.Run(cfg, cal)
	}
	t.span("sim", t0)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", s.Kernel.Name, cfg.Name, err)
	}
	t.simResult(r)
	return r, nil
}
