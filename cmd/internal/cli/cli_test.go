package cli

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"powerfits/internal/experiments"
	"powerfits/internal/metrics"
)

// capture swaps the sanctioned stream and the exit hook for one test,
// returning the captured stderr and exit codes.
func capture(t *testing.T) (*bytes.Buffer, *[]int) {
	t.Helper()
	var buf bytes.Buffer
	var codes []int
	oldStderr, oldExit := Stderr, exit
	Stderr = &buf
	exit = func(code int) { codes = append(codes, code) }
	t.Cleanup(func() { Stderr, exit = oldStderr, oldExit })
	return &buf, &codes
}

func newFlagSet() (*flag.FlagSet, *Flags) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	return fs, RegisterFlags(fs)
}

func TestParseHappyPath(t *testing.T) {
	buf, codes := capture(t)
	fs, f := newFlagSet()
	log := Parse("test", fs, f, []string{"-log-level", "warn", "-log-json"})
	if len(*codes) != 0 {
		t.Fatalf("clean parse exited with %v", *codes)
	}
	log.Info("hidden")
	if buf.Len() != 0 {
		t.Fatalf("info record emitted at warn level: %q", buf.String())
	}
	log.Warn("shown", "k", "v")
	if out := buf.String(); !strings.Contains(out, `"msg":"shown"`) || !strings.Contains(out, `"tool":"test"`) {
		t.Fatalf("-log-json warn record wrong: %q", out)
	}
}

func TestParseFlagErrorExitsTwo(t *testing.T) {
	buf, codes := capture(t)
	fs, f := newFlagSet()
	Parse("test", fs, f, []string{"-no-such-flag"})
	if len(*codes) == 0 || (*codes)[0] != 2 {
		t.Fatalf("flag error exit codes %v, want [2 ...]", *codes)
	}
	if !strings.Contains(buf.String(), "flag parse failed") {
		t.Fatalf("flag error not logged: %q", buf.String())
	}
}

func TestParseBadLogLevelExitsTwo(t *testing.T) {
	buf, codes := capture(t)
	fs, f := newFlagSet()
	Parse("test", fs, f, []string{"-log-level", "shouty"})
	if len(*codes) == 0 || (*codes)[0] != 2 {
		t.Fatalf("bad log level exit codes %v, want [2 ...]", *codes)
	}
	if !strings.Contains(buf.String(), "invalid logging flags") {
		t.Fatalf("bad level not logged: %q", buf.String())
	}
}

func TestParseHelpExitsZero(t *testing.T) {
	buf, codes := capture(t)
	fs, f := newFlagSet()
	Parse("test", fs, f, []string{"-h"})
	if len(*codes) == 0 || (*codes)[0] != 0 {
		t.Fatalf("-h exit codes %v, want [0 ...]", *codes)
	}
	if !strings.Contains(buf.String(), "-log-level") {
		t.Fatalf("-h did not print usage: %q", buf.String())
	}
}

func TestUsageErrorExitsTwo(t *testing.T) {
	buf, codes := capture(t)
	UsageError(fallbackLogger("test"), errors.New("-window must be positive"))
	if len(*codes) == 0 || (*codes)[0] != 2 {
		t.Fatalf("usage error exit codes %v, want [2 ...]", *codes)
	}
	if !strings.Contains(buf.String(), "invalid flags") || !strings.Contains(buf.String(), "-window") {
		t.Fatalf("usage error not logged: %q", buf.String())
	}
}

// TestCheckWindow pins the shared -window/-phases/-sample rules: each
// bad combination exits 2 with an "invalid flags" record, and the good
// ones pass silently.
func TestCheckWindow(t *testing.T) {
	cases := []struct {
		window int
		phases string
		sample bool
		bad    bool
	}{
		{0, "", false, false},
		{0, "", true, false},
		{4096, "", false, false},
		{4096, "p.csv", false, false},
		{-1, "", false, true},
		{0, "p.csv", false, true},
		{4096, "", true, true},
	}
	for _, tc := range cases {
		buf, codes := capture(t)
		CheckWindow(fallbackLogger("test"), tc.window, tc.phases, tc.sample)
		if got := len(*codes) > 0 && (*codes)[0] == 2; got != tc.bad {
			t.Errorf("window=%d phases=%q sample=%t: exit codes %v, want usage error %t",
				tc.window, tc.phases, tc.sample, *codes, tc.bad)
		}
		if tc.bad && !strings.Contains(buf.String(), "invalid flags") {
			t.Errorf("window=%d phases=%q sample=%t: not logged: %q", tc.window, tc.phases, tc.sample, buf.String())
		}
	}
}

// TestNilTelemetryIsInert exercises every method on the nil receiver —
// the contract that lets call sites skip "-telemetry given?" branches.
func TestNilTelemetryIsInert(t *testing.T) {
	var tele *Telemetry
	if p := tele.Progress(); p != nil {
		t.Fatal("nil telemetry returned a progress sink")
	}
	tele.Begin(3)
	tele.Publish(experiments.ProgressEvent{Kernel: "crc32"})
	tele.Finish(nil)
	tele.Merge(metrics.NewRegistry())
	tele.Scope("a", "b").Counter("c").Inc() // throwaway registry, no panic
	tele.Close()
	tele.CloseNow()
}

// TestFlagsStart verifies the -telemetry lifecycle: no flag means no
// server, a flag boots one whose tracker and registry feed /metrics.
func TestFlagsStart(t *testing.T) {
	capture(t)
	f := &Flags{}
	tele, err := f.Start(fallbackLogger("test"), nil)
	if err != nil || tele != nil {
		t.Fatalf("empty -telemetry: got (%v, %v), want (nil, nil)", tele, err)
	}

	f = &Flags{Telemetry: "127.0.0.1:0"}
	tele, err = f.Start(fallbackLogger("test"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tele.CloseNow()
	if tele.Server.Addr() == "" {
		t.Fatal("server has no bound address")
	}
	tele.Begin(2)
	tele.Publish(experiments.ProgressEvent{Kernel: "crc32", Done: 1, Total: 2, DynInstrs: 10})
	tele.Finish(nil)
	if st := tele.Tracker.State(); st.Phase != "done" || st.Done != 1 {
		t.Fatalf("tracker state %+v after scripted run", st)
	}
	other := metrics.NewRegistry()
	other.Counter("side/counter").Add(5)
	tele.Merge(other)
	if got := tele.Registry.Counter("side/counter").Value(); got != 5 {
		t.Fatalf("merged counter %d, want 5", got)
	}
	tele.Scope("run", "crc32").Gauge("ipc").Set(0.5)
	if got := tele.Registry.Gauge("run/crc32/ipc").Value(); got != 0.5 {
		t.Fatalf("scoped gauge %v, want 0.5", got)
	}
}
