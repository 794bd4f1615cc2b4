package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"powerfits/internal/power"
	"powerfits/internal/sim"
	"powerfits/internal/tracing"
)

// The trace and profile subcommands: cycle-level observability over one
// kernel × configuration run. `trace` captures the pipeline's event
// stream into a bounded ring and renders it as a Chrome trace-event
// document (chrome://tracing, Perfetto); `profile` folds the same
// stream onto basic blocks as fetch-energy and stall attribution, as a
// worst-first table or folded stacks for flamegraph tooling.

// configByName resolves one of the paper's four configuration names.
func configByName(name string) (sim.Config, error) {
	for _, c := range sim.Configs {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return sim.Config{}, fmt.Errorf("unknown config %q (want ARM16, ARM8, FITS16, FITS8)", name)
}

// runTraced executes the run with the sink attached (sampled or full
// pipeline), shared by trace and profile.
func runTraced(s *sim.Setup, cfg sim.Config, sample bool, sink tracing.EventSink) (*sim.Result, error) {
	opt := sim.RunOptions{Sink: sink}
	if sample {
		opt.Sample = &sim.SampleOptions{}
	}
	rs, err := s.RunAll([]sim.Config{cfg}, power.DefaultCalibration(), opt)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// cmdTrace generates the Chrome trace-event export.
func cmdTrace(s *sim.Setup, cfgName, out string, limit int, sample bool) {
	cfg, err := configByName(cfgName)
	if err != nil {
		fatal(err)
	}
	ring, err := tracing.NewRing(limit)
	if err != nil {
		fatal(err)
	}
	r, err := runTraced(s, cfg, sample, ring)
	if err != nil {
		fatal(err)
	}
	// Surface the ring's accounting as gauges when a telemetry server is
	// up, so a lingering /metrics scrape reports the capture.
	if tele != nil {
		ring.Publish(tele.Scope("tracing"))
	}
	meta := tracing.TraceMeta{Kernel: s.Kernel.Name, Config: cfg.Name,
		Total: ring.Total(), Dropped: ring.Dropped()}
	if out == "" {
		if err := tracing.WriteChromeTrace(os.Stdout, ring.Events(), meta); err != nil {
			fatal(err)
		}
	} else if err := tracing.WriteChromeTraceFile(out, ring.Events(), meta); err != nil {
		fatal(err)
	}
	dst := "stdout"
	if out != "" {
		dst = out
	}
	log.Info("trace captured", "kernel", s.Kernel.Name, "config", cfg.Name,
		"cycles", r.Pipe.Cycles, "events", ring.Total(), "captured", ring.Len(),
		"dropped", ring.Dropped(), "dest", dst)
}

// cmdTraceCheck validates an existing export against the schema this
// tool emits — the round-trip gate ci.sh runs on every build.
func cmdTraceCheck(path string) {
	doc, err := tracing.ValidateChromeTraceFile(path)
	if err != nil {
		fatal(err)
	}
	log.Info("valid chrome trace", "path", path, "records", len(doc.TraceEvents),
		"kernel", doc.OtherData["kernel"], "config", doc.OtherData["config"])
}

// cmdProfile runs the attribution profiler and renders the result.
func cmdProfile(s *sim.Setup, cfgName string, top int, folded bool, out string, sample bool) {
	cfg, err := configByName(cfgName)
	if err != nil {
		fatal(err)
	}
	prof, err := s.NewProfiler(cfg)
	if err != nil {
		fatal(err)
	}
	r, err := runTraced(s, cfg, sample, prof)
	if err != nil {
		fatal(err)
	}
	// Conservation is the profiler's contract: the attributed total must
	// be bit-identical to the meter's access-energy sum.
	if prof.TotalPJ() != r.AccessPJ {
		fatal(fmt.Errorf("profile: attribution lost energy: %.6f pJ attributed vs %.6f pJ metered",
			prof.TotalPJ(), r.AccessPJ))
	}

	w := bufio.NewWriter(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	if folded {
		root := fmt.Sprintf("%s;%s", s.Kernel.Name, cfg.Name)
		if err := prof.WriteFolded(w, root); err != nil {
			fatal(err)
		}
		return
	}

	rows := prof.Table(top)
	fmt.Fprintf(w, "energy attribution: %s on %s (%.2f µJ fetch energy over %d cycles; conservation exact)\n",
		s.Kernel.Name, cfg.Name, prof.TotalPJ()/1e6, r.Pipe.Cycles)
	fmt.Fprintf(w, "%4s %-14s %-19s %10s %8s %14s %7s %10s %11s\n",
		"#", "func", "block", "fetches", "misses", "fetch_pJ", "share", "stalls", "mispredicts")
	total := prof.TotalPJ()
	for i, st := range rows {
		blk := fmt.Sprintf("%08x-%08x", st.Addr, st.End)
		if st.Addr == 0 && st.End == 0 {
			blk = "-"
		}
		share := 0.0
		if total > 0 {
			share = 100 * st.FetchPJ / total
		}
		fmt.Fprintf(w, "%4d %-14s %-19s %10d %8d %14.1f %6.1f%% %10d %11d\n",
			i+1, st.Label, blk, st.Fetches, st.Misses, st.FetchPJ, share,
			st.StallCycles, st.Mispredicts)
	}
}
