package metrics

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileConfig names the output files of the standard Go profiling
// hooks; empty fields disable the corresponding profile.
type ProfileConfig struct {
	CPUProfile string // pprof CPU profile (-cpuprofile)
	MemProfile string // heap profile written at stop (-memprofile)
	Trace      string // runtime/trace execution trace (-trace)
}

// StartProfiles starts the requested profiles and returns a stop
// function that flushes and closes them (the heap profile is captured
// at stop time, after a GC). The stop function must be called exactly
// once.
func StartProfiles(cfg ProfileConfig) (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if cfg.CPUProfile != "" {
		cpuFile, err = os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("metrics: cpu profile: %w", err)
		}
	}
	if cfg.Trace != "" {
		traceFile, err = os.Create(cfg.Trace)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("metrics: trace: %w", err)
		}
	}
	return func() error {
		cleanup()
		if cfg.MemProfile != "" {
			f, err := os.Create(cfg.MemProfile)
			if err != nil {
				return err
			}
			runtime.GC() // materialise up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("metrics: heap profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
