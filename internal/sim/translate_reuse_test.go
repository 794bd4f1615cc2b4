package sim

import (
	"reflect"
	"testing"

	"powerfits/internal/kernels"
	"powerfits/internal/profile"
	"powerfits/internal/synth"
	"powerfits/internal/translate"
)

// TestPreparedTranslationIsFresh: a prepared Setup's Fits is the
// translation synthesis built to cost its width, not a second one. It
// must equal a fresh translate.Translate of the Setup's own program onto
// its spec, for every kernel at scale 1 under the default search and
// each forced width the kernel can encode. The preparations of one
// kernel share a memoized profile, so all but the first translate
// another Setup's program instance.
func TestPreparedTranslationIsFresh(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			profiles := profile.NewCache()
			var first *Setup
			forced := 0
			for _, forceK := range []int{0, 4, 5, 6} {
				opts := synth.DefaultOptions()
				opts.ForceK = forceK
				s, err := PrepareWith(k, 1, PrepareOptions{Synth: opts, Profiles: profiles})
				if err != nil {
					if forceK == 0 {
						t.Fatal(err)
					}
					continue // a width the kernel cannot encode
				}
				if first == nil {
					first = s
				} else {
					forced++
					if s.Profile.Prog != first.Prog || s.Prog == first.Prog {
						t.Fatalf("k=%d: the Setup does not profile through the first Setup's program", forceK)
					}
				}
				fresh, err := translate.Translate(s.Prog, s.Synth.Spec)
				if err != nil {
					t.Fatal(err)
				}
				checkSameTranslation(t, forceK, s.Fits, fresh)
			}
			if forced == 0 {
				t.Fatal("no forced width was feasible")
			}
		})
	}
}

func checkSameTranslation(t *testing.T, forceK int, got, want *translate.Result) {
	t.Helper()
	parts := []struct {
		name      string
		got, want any
	}{
		{"lowered instructions", got.Lowered.Instrs, want.Lowered.Instrs},
		{"lowered program", got.Lowered, want.Lowered},
		{"image bytes", got.Image.Text, want.Image.Text},
		{"InstrSize", got.Image.InstrSize, want.Image.InstrSize},
		{"InstrAddr", got.Image.InstrAddr, want.Image.InstrAddr},
		{"image", got.Image, want.Image},
		{"OrigStart", got.OrigStart, want.OrigStart},
		{"OneToOne", got.OneToOne, want.OneToOne},
	}
	for _, p := range parts {
		if !reflect.DeepEqual(p.got, p.want) {
			t.Fatalf("k=%d: prepared translation's %s differ from a fresh translation", forceK, p.name)
		}
	}
	if got.Spec != want.Spec {
		t.Fatalf("k=%d: prepared translation targets another spec", forceK)
	}
}
