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
// breakdown reads: PrepareWith logs one record with each of the seven
// stages once, and PrepareBaseline and WithFITS log one record each
// that split the same stages between them, predecode in both.
func TestPrepareStageRecords(t *testing.T) {
	k := kernels.MustGet("crc32")
	var got [][]string
	log := slog.New(stageRecords{&got})
	all := []string{"assemble_sec", "build_sec", "predecode_sec", "profile_sec", "synth_sec", "thumb_sec", "translate_sec"}
	if _, err := PrepareWith(k, 1, PrepareOptions{Synth: synth.DefaultOptions(), Log: log}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 1 {
		slices.Sort(got[0])
	}
	if len(got) != 1 || !slices.Equal(got[0], all) {
		t.Fatalf("PrepareWith logged stages %v, want one record of %v", got, all)
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
	want := [][]string{
		{"build_sec", "assemble_sec", "thumb_sec", "predecode_sec"},
		{"profile_sec", "synth_sec", "translate_sec", "predecode_sec"},
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("PrepareBaseline and WithFITS logged stages %v, want %v", got, want)
	}
}
