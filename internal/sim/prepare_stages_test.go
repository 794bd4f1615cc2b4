package sim

import (
	"context"
	"log/slog"
	"slices"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/profile"
	"powerfits/internal/synth"
)

// stageRecords is a slog.Handler that keeps the stage keys of every
// "prepare stages" record, one slice per record.
type stageRecords struct{ keys *[][]string }

func (h stageRecords) Enabled(context.Context, slog.Level) bool { return true }
func (h stageRecords) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h stageRecords) WithGroup(string) slog.Handler            { return h }

func (h stageRecords) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "prepare stages" {
		var keys []string
		r.Attrs(func(a slog.Attr) bool {
			if a.Value.Kind() == slog.KindFloat64 {
				keys = append(keys, a.Key)
			}
			return true
		})
		*h.keys = append(*h.keys, keys)
	}
	return nil
}

// TestPrepareStageRecords pins the stage records the benchmark's layer
// breakdown reads: PrepareBaseline and WithFITS log one record each,
// predecode in both, and PrepareWith logs exactly those two records.
func TestPrepareStageRecords(t *testing.T) {
	k := kernels.MustGet("crc32")
	want := [][]string{
		{"build_sec", "assemble_sec", "thumb_sec", "predecode_sec"},
		{"profile_sec", "synth_sec", "translate_sec", "predecode_sec"},
	}
	var got [][]string
	log := slog.New(stageRecords{&got})
	if _, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions(), Log: log}); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("PrepareWith logged stages %v, want %v", got, want)
	}

	got = nil
	base, err := PrepareBaseline(k, 1, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.WithFITS(func() (*profile.Profile, error) {
		return profile.Collect(base.Prog, 0)
	}, synth.DefaultOptions(), log); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("PrepareBaseline and WithFITS logged stages %v, want %v", got, want)
	}
}
