package experiments

import (
	"reflect"
	"testing"

	"powerfits/internal/synth"
)

// TestAblationFamiliesCoverEverySwitch: every bool switch of
// synth.Options is turned on by some ablationFamilies variant, so a new
// switch cannot miss the ablation tables.
func TestAblationFamiliesCoverEverySwitch(t *testing.T) {
	typ := reflect.TypeOf(synth.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Bool {
			continue
		}
		covered := false
		for _, fam := range ablationFamilies {
			for _, v := range fam.variants {
				covered = covered || reflect.ValueOf(v.opts).Field(i).Bool()
			}
		}
		if !covered {
			t.Errorf("no ablationFamilies variant sets synth.Options.%s", f.Name)
		}
	}
}
