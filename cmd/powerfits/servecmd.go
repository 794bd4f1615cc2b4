package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/metrics"
	"powerfits/internal/serve"
	"powerfits/internal/sim"
)

// serveOpts carries the serve subcommand's flags.
type serveOpts struct {
	Addr         string // -addr: listen address (port 0 = ephemeral)
	AddrFile     string // -telemetry-addrfile: handshake file for scripts
	Dir          string // -dir: archive store backing the durable cache tier
	Workers      int    // -j: concurrent cold computations
	Queue        int    // -queue: bounded accept queue beyond the workers
	CacheEntries int    // -cache-entries: in-memory result LRU bound
	BatchWindow  time.Duration
}

// cmdServe runs the synthesis daemon until SIGINT/SIGTERM, then drains:
// new requests get 503 while in-flight ones finish under the
// http.Server.Shutdown grace period.
func cmdServe(o serveOpts) {
	svc := serve.New(serve.Options{
		Workers:      o.Workers,
		Queue:        o.Queue,
		BatchWindow:  o.BatchWindow,
		CacheEntries: o.CacheEntries,
		Store:        archive.NewStore(o.Dir),
		Registry:     metrics.NewRegistry(),
		Log:          log,
	})

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		fatal(err)
	}
	if o.AddrFile != "" {
		// The same handshake contract the telemetry server offers:
		// scripts start us on port 0 and poll this file for the bound
		// address.
		if werr := os.WriteFile(o.AddrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			fatal(werr)
		}
	}
	log.Info("powerfits serve listening", "addr", ln.Addr().String())

	srv := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
	case err := <-errCh:
		fatal(err)
	}

	svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Warn("shutdown grace period expired", "err", err)
	}
	hits, storeHits, misses := svc.CacheStats()
	fmt.Printf("served: %d memory hits, %d store hits, %d cold computations\n",
		hits, storeHits, misses)
}

// callOpts carries the call subcommand's flags — one request, rendered
// to stdout or -o.
type callOpts struct {
	URL     string
	Kernel  string
	Scale   int
	Config  string
	Sample  bool
	File    string // -file: assembly source instead of a named kernel
	Out     string // -o: write the response body here (default stdout)
	Timeout time.Duration
}

// buildRequest lowers call/loadgen flags onto a serve.Request.
func buildRequest(kernel, file string, scale int, cfg string, sample bool) (serve.Request, error) {
	req := serve.Request{Scale: scale, Sampled: sample}
	if cfg != "" {
		req.Configs = []string{cfg}
	}
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return req, err
		}
		req.Asm = string(src)
		req.Name = file
	} else {
		req.Kernel = kernel
	}
	return req, nil
}

// cmdCall POSTs one synthesis request to a running daemon.
func cmdCall(o callOpts) {
	if o.URL == "" {
		fatal(fmt.Errorf("call requires -url http://host:port/synth"))
	}
	req, err := buildRequest(o.Kernel, o.File, o.Scale, o.Config, o.Sample)
	if err != nil {
		fatal(err)
	}
	blob, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, o.URL, bytes.NewReader(blob))
	if err != nil {
		fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("daemon answered %s: %s", resp.Status, bytes.TrimSpace(body)))
	}
	log.Info("synthesis response",
		"cache", resp.Header.Get("X-Powerfits-Cache"),
		"run_id", resp.Header.Get("X-Powerfits-Run"),
		"bytes", len(body))
	writeBody(o.Out, body)
}

// cmdLoadgen drives a closed-loop load against a daemon and prints the
// throughput/latency report.
func cmdLoadgen(o serve.LoadOptions, jsonOut string) {
	if o.URL == "" {
		fatal(fmt.Errorf("loadgen requires -url http://host:port/synth"))
	}
	rep, err := serve.RunLoad(context.Background(), o)
	if err != nil {
		fatal(err)
	}
	rep.Render(os.Stdout)
	if jsonOut != "" {
		blob, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			fatal(merr)
		}
		writeBody(jsonOut, append(blob, '\n'))
	}
	if rep.Errors > 0 {
		fatal(fmt.Errorf("%d corrupted or failed responses; first: %s", rep.Errors, rep.FirstError))
	}
}

// serveLoadOptions lowers loadgen flags onto serve.LoadOptions.
func serveLoadOptions(url string, workers, n int, dur time.Duration, hit float64,
	kernel string, scale int, sample bool, seed int64) serve.LoadOptions {
	return serve.LoadOptions{
		URL:         url,
		Workers:     workers,
		Requests:    n,
		Duration:    dur,
		HitFraction: hit,
		Kernel:      kernel,
		Scale:       scale,
		Sampled:     sample,
		Seed:        seed,
		CheckBodies: true,
	}
}

// writeReport renders the canonical serve report for a run already
// timed on a prepared setup — the same canonicalize→render path the
// daemon's cold tier runs, so `powerfits run -o` writes bytes
// identical to what a default daemon serves for the same request
// (ci.sh's equivalence check). An observed run (-window) times the
// same numbers as an unobserved one.
func writeReport(s *sim.Setup, r *sim.Result, sample bool, out string) {
	req := serve.Request{Kernel: s.Kernel.Name, Scale: s.Scale,
		Configs: []string{r.Config.Name}, Sampled: sample}
	c, err := serve.Canonicalize(req, serve.DefaultCalBlob())
	if err != nil {
		fatal(err)
	}
	body, _, err := c.Render(s, []*sim.Result{r})
	if err != nil {
		fatal(err)
	}
	writeBody(out, body)
	log.Info("wrote synthesis report", "path", out, "run_id", c.RunID)
}

func writeBody(path string, body []byte) {
	if path == "" || path == "-" {
		if _, err := os.Stdout.Write(body); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		fatal(err)
	}
}
