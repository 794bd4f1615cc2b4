package main

import (
	"sync"
	"time"
)

// Timings are reported at a reference host speed. The measuring host's
// two vCPUs change speed by up to 2× for seconds to minutes at a time,
// because they are shared with other tenants: a fixed loop takes 35 ms
// in one minute and 70 ms in the next. Process CPU time slows with it,
// so it does not filter the change out. Before every timed operation
// the benchmark therefore runs a calibration loop on every worker and
// divides the operation's time by the loop's. The loop depends on
// nothing in this repository, so a change to the repository that makes
// an operation slower still shows in full; what the division removes is
// the host's speed at that moment. README.md, "Noise", has the
// measurements.

// calSteps is the length of one calibration loop, about 40 ms on the
// measuring host at its faster speed.
const calSteps = 20_000_000

// calRef is the calibration time the reported metrics are scaled to: a
// time is reported as it would read on a host where one calibration
// loop takes calRef seconds.
const calRef = 0.040

// calSink keeps the compiler from removing the calibration loop.
var calSink uint32

// calibrate runs the calibration loop on workers goroutines at once and
// returns the mean time one loop took, in seconds.
func calibrate(workers int) float64 {
	var wg sync.WaitGroup
	secs := make([]float64, workers)
	sums := make([]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sums[w] = calLoop(calSteps)
			secs[w] = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	var total float64
	for w := range secs {
		total += secs[w]
		calSink += sums[w]
	}
	return total / float64(workers)
}

// calLoop interprets a fixed pseudo-random program for a small register
// machine with a 64 KiB data memory: decode, dispatch, ALU operations,
// loads, stores and data-dependent branches, as an instruction-set
// simulator's inner loop does.
func calLoop(steps int) uint32 {
	var prog [256]uint32
	x := uint32(12345)
	for i := range prog {
		x = x*1664525 + 1013904223
		prog[i] = x
	}
	var regs [16]uint32
	mem := make([]uint32, 16384)
	pc := 0
	for s := 0; s < steps; s++ {
		ins := prog[pc&255]
		rd, rn, rm := (ins>>4)&15, (ins>>8)&15, (ins>>12)&15
		switch ins >> 28 {
		case 0, 1:
			regs[rd] = regs[rn] + regs[rm] + ins&0xff
		case 2:
			regs[rd] = regs[rn] ^ (regs[rm] << (ins & 7))
		case 3:
			regs[rd] = regs[rn] - regs[rm]
		case 4, 5:
			regs[rd] = mem[(regs[rn]+ins)&16383]
		case 6:
			mem[(regs[rn]+ins)&16383] = regs[rd]
		case 7:
			regs[rd] = regs[rn] * (regs[rm] | 1)
		case 8, 9:
			if regs[rn]&1 == 0 {
				pc += int(ins>>16) & 31
			}
		case 10:
			regs[rd] = regs[rn] >> (ins & 15)
		case 11:
			regs[rd] = regs[rn] & regs[rm]
		case 12:
			regs[rd] = regs[rn] | ins
		default:
			regs[rd]++
		}
		pc++
	}
	var h uint32
	for _, r := range regs {
		h = h*31 + r
	}
	return h
}
