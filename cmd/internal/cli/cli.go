// Package cli is the command-line plumbing shared by the powerfits and
// fitsbench binaries: the observability flag block (-log-level,
// -log-json, -telemetry, -telemetry-addrfile, -telemetry-linger), slog
// construction with a consistent flag-error exit path, and the
// lifecycle of the embedded telemetry debug server.
//
// Stderr discipline: the binaries never write to os.Stderr directly.
// Structured records (errors, progress notes, "wrote X" confirmations)
// go through the run logger; the few raw lines that must stay
// byte-exact — the engine heartbeat, usage text, benchmark delta
// tables — go through Raw/Rawln, the one sanctioned handle. An audit
// test (audit_test.go) greps both command trees to enforce this.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"powerfits/internal/experiments"
	"powerfits/internal/metrics"
	"powerfits/internal/telemetry"
)

// Stderr is the sanctioned raw stream: everything a binary writes
// outside the structured logger goes through it (swappable in tests).
var Stderr io.Writer = os.Stderr

// exit is os.Exit, indirected so package tests can intercept it.
var exit = os.Exit

// Rawln writes one raw line to the sanctioned stream — for output
// whose bytes are part of a pinned format (heartbeats, delta tables),
// not for diagnostics; those go through the logger.
func Rawln(args ...any) {
	fmt.Fprintln(Stderr, args...)
}

// Flags is the observability flag block both binaries register.
type Flags struct {
	LogLevel          string
	LogJSON           bool
	Telemetry         string
	TelemetryAddrFile string
	TelemetryLinger   time.Duration
}

// RegisterFlags installs the shared observability flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit logs as JSON records instead of key=value text")
	fs.StringVar(&f.Telemetry, "telemetry", "", "serve live telemetry (/metrics, /healthz, /progress, /debug/pprof) on this host:port (port 0 picks an ephemeral port)")
	fs.StringVar(&f.TelemetryAddrFile, "telemetry-addrfile", "", "write the telemetry server's bound address to this file (the handshake scripts poll when using -telemetry with port 0)")
	fs.DurationVar(&f.TelemetryLinger, "telemetry-linger", 0, "keep the telemetry server up this long after the run completes, so a scraper always catches the final state")
	return f
}

// fallbackLogger is the logger used before flag parsing has produced a
// configured one: text handler, info level, on the sanctioned stream.
func fallbackLogger(tool string) *slog.Logger {
	log, _ := telemetry.NewLogger(tool, telemetry.LogOptions{Output: Stderr})
	return log
}

// Parse parses args and returns the run logger. Flag errors take the
// consistent exit path the binaries share: -h prints the flag set's
// usage and exits 0; a parse error or a bad logging flag is reported
// through slog and exits 2. fs must have been created with
// flag.ContinueOnError.
func Parse(tool string, fs *flag.FlagSet, f *Flags, args []string) *slog.Logger {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(Stderr)
			fs.Usage()
			exit(0)
			return nil
		}
		fallbackLogger(tool).Error("flag parse failed", "err", err)
		exit(2)
		return nil
	}
	log, err := telemetry.NewLogger(tool, telemetry.LogOptions{
		Level: f.LogLevel, JSON: f.LogJSON, Output: Stderr})
	if err != nil {
		fallbackLogger(tool).Error("invalid logging flags", "err", err)
		exit(2)
		return nil
	}
	return log
}

// UsageError reports an invalid flag combination found after Parse and
// exits 2, the same path a flag parse error takes.
func UsageError(log *slog.Logger, err error) {
	log.Error("invalid flags", "err", err)
	exit(2)
}

// CheckWindow enforces the phase-series flag rules both binaries
// share: -window N (0 = off) is not negative, -phases needs a window,
// and a window needs a full detailed run, so it excludes -sample. A
// violation is a usage error.
func CheckWindow(log *slog.Logger, window int, phases string, sample bool) {
	switch {
	case window < 0:
		UsageError(log, fmt.Errorf("-window must be ≥ 0 (0 = off), got %d", window))
	case phases != "" && window == 0:
		UsageError(log, errors.New("-phases requires -window N > 0"))
	case window > 0 && sample:
		UsageError(log, errors.New("-window needs a full detailed run and cannot be combined with -sample"))
	}
}

// Telemetry is a started debug server plus the run-scoped registry and
// progress tracker feeding it. All methods are nil-receiver-safe, so
// call sites need no "-telemetry given?" branches.
type Telemetry struct {
	Server   *telemetry.Server
	Registry *metrics.Registry
	Tracker  *telemetry.Tracker
	linger   time.Duration
	log      *slog.Logger
}

// Start launches the embedded debug server when -telemetry was given
// and returns nil (with no error) otherwise. gather, when non-nil,
// refreshes derived gauges before each /metrics snapshot.
func (f *Flags) Start(log *slog.Logger, gather func(*metrics.Registry)) (*Telemetry, error) {
	if f.Telemetry == "" {
		return nil, nil
	}
	reg := metrics.NewRegistry()
	tracker := telemetry.NewTracker(reg)
	srv, err := telemetry.Serve(f.Telemetry, telemetry.Options{
		Registry: reg,
		Gather:   gather,
		Tracker:  tracker,
		Log:      log,
		AddrFile: f.TelemetryAddrFile,
	})
	if err != nil {
		return nil, err
	}
	return &Telemetry{Server: srv, Registry: reg, Tracker: tracker,
		linger: f.TelemetryLinger, log: log}, nil
}

// Progress returns the tracker's event sink, or nil when telemetry is
// off — composable with experiments.MultiProgress.
func (t *Telemetry) Progress() experiments.ProgressFunc {
	if t == nil {
		return nil
	}
	return t.Tracker.Publish
}

// Begin marks the start of a run of total units on the tracker.
func (t *Telemetry) Begin(total int) {
	if t != nil {
		t.Tracker.Begin(total)
	}
}

// Publish forwards one progress event to the tracker.
func (t *Telemetry) Publish(ev experiments.ProgressEvent) {
	if t != nil {
		t.Tracker.Publish(ev)
	}
}

// Finish marks the run complete or failed on the tracker.
func (t *Telemetry) Finish(err error) {
	if t != nil {
		t.Tracker.Finish(err)
	}
}

// Merge folds a run registry (e.g. the suite's merged metrics) into
// the served registry so /metrics exposes the final counters.
func (t *Telemetry) Merge(reg *metrics.Registry) {
	if t == nil || reg == nil {
		return
	}
	if err := t.Registry.Merge(reg); err != nil {
		t.log.Warn("telemetry registry merge failed", "err", err)
	}
}

// Scope returns a scoped view of the served registry, or a zero Scope
// writing to a throwaway registry when telemetry is off.
func (t *Telemetry) Scope(parts ...string) metrics.Scope {
	if t == nil {
		return metrics.NewRegistry().Scope(parts...)
	}
	return t.Registry.Scope(parts...)
}

// Close lingers for the configured duration (so late scrapers catch
// the final state) and then stops the server. Error paths should call
// CloseNow instead.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	if t.linger > 0 {
		t.log.Info("telemetry server lingering", "addr", t.Server.Addr(), "for", t.linger.String())
		time.Sleep(t.linger)
	}
	t.Server.Close()
}

// CloseNow stops the server immediately, skipping the linger.
func (t *Telemetry) CloseNow() {
	if t != nil {
		t.Server.Close()
	}
}
