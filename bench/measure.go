package main

import (
	"math"
	"sort"
	"time"
)

// setupReps is how many times each workload builds its state before
// measuring; setup_s is the median at reference speed, and the last
// build is the one measured.
const setupReps = 5

// quartiles returns Q1, median and Q3 of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// the spreads -compare prints match the acceptance check's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0–100) of xs by the
// nearest-rank method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// timeSetup runs build setupReps times, each after a calibration, and
// returns the reps.
func timeSetup(e *env, build func() error) ([]rep, error) {
	var reps []rep
	for i := 0; i < setupReps; i++ {
		cal := calibrate(e.workers)
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		reps = append(reps, rep{wall: time.Since(t0).Seconds(), cal: cal})
	}
	return reps, nil
}

// rep is one timed operation: its wall time and the time of the
// calibration loop run just before it, both in seconds.
type rep struct {
	wall, cal float64
}

// repeatOps runs op back to back for the budget, each run after a
// calibration, and returns the time each run reports for its timed part
// (the output check after it is not timed). A new run starts only while
// at least half of the previous one still fits, so the phase overshoots
// the budget by at most half an operation; at least one run always
// happens.
func repeatOps(e *env, op func() (time.Duration, error)) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for {
		cal := calibrate(e.workers)
		t0 := time.Now()
		d, err := op()
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep{wall: d.Seconds(), cal: cal})
		if time.Since(start)+time.Since(t0)/2 > e.budget {
			return reps, nil
		}
	}
}

// walls lists the reps' wall times.
func walls(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}

// cals lists the calibrations before the reps.
func cals(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.cal
	}
	return out
}

// atReference is the median of the reps' times, each rescaled to a host
// on which the calibration loop takes calRef: wall × calRef / cal.
func atReference(reps []rep) float64 {
	secs := make([]float64, len(reps))
	for i, r := range reps {
		secs[i] = r.wall * calRef / r.cal
	}
	return median(secs)
}
