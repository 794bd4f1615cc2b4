package sweep

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"powerfits/internal/cache"
	"powerfits/internal/synth"
)

func TestGridIndexRoundTrip(t *testing.T) {
	g := Grid{
		Kernel:    "crc32",
		Ks:        []int{0, 4, 5, 6},
		DictCaps:  []int{16, 256},
		Ablations: AllAblations(),
		Caches: []cache.Config{
			{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 32},
			{SizeBytes: 8 << 10, LineBytes: 16, Assoc: 4},
			{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 32},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		if p.Index != i {
			t.Fatalf("point %d carries index %d", i, p.Index)
		}
		ki, di, ai, ci := g.coords(i)
		if back := g.index(ki, di, ai, ci); back != i {
			t.Fatalf("coords/index round trip broke: %d -> %d", i, back)
		}
		if prev, dup := labels[p.Label()]; dup {
			t.Fatalf("points %d and %d share label %s", prev, i, p.Label())
		}
		labels[p.Label()] = i
	}
	if len(labels) != 4*2*5*3 {
		t.Fatalf("grid enumerated %d points, want %d", len(labels), 4*2*5*3)
	}
}

func TestPointOptionsFoldsAxes(t *testing.T) {
	base := synth.DefaultOptions()
	base.ProfileBudget = 12345
	p := Point{K: 5, DictCap: 64, Ablation: Ablation{"nodict", synth.Options{NoDict: true}}}
	o := p.Options(base)
	if o.ForceK != 5 || o.DictCap != 64 || !o.NoDict {
		t.Fatalf("point axes not applied: %+v", o)
	}
	if o.ProfileBudget != 12345 {
		t.Fatalf("base budget lost: %d", o.ProfileBudget)
	}
	if o.Trace != nil {
		t.Fatal("sweep options must not carry a trace")
	}
}

// TestAblationsCoverEverySwitch: each bool switch of synth.Options is
// knocked out alone by exactly one AllAblations entry, so a new switch
// cannot miss the sweep's ablation axis.
func TestAblationsCoverEverySwitch(t *testing.T) {
	typ := reflect.TypeOf(synth.Options{})
	single := map[string]int{} // switch name → single-switch entries setting it
	for _, a := range AllAblations() {
		v := reflect.ValueOf(a.Options)
		var set []string
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() == reflect.Bool && v.Field(i).Bool() {
				set = append(set, typ.Field(i).Name)
			}
		}
		if len(set) == 1 {
			single[set[0]]++
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Bool && single[f.Name] != 1 {
			t.Errorf("synth.Options.%s is set alone by %d AllAblations entries, want 1", f.Name, single[f.Name])
		}
	}
}

// TestAblationWireForm pins an ablation's JSON: its name, then only the
// switches it sets, under synth.Options' wire keys.
func TestAblationWireForm(t *testing.T) {
	b, err := json.Marshal(AllAblations()[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"nodict","no_dict":true}`; string(b) != want {
		t.Fatalf("ablation marshals as %s, want %s", b, want)
	}
}

func TestGridValidateRejects(t *testing.T) {
	bad := []Grid{
		{},                // no kernel
		{Kernel: "crc32"}, // empty axes
		{Kernel: "crc32", Ks: []int{3}, // K out of range
			DictCaps: []int{16}, Ablations: []Ablation{FullISA()},
			Caches: []cache.Config{{SizeBytes: 4096, LineBytes: 32, Assoc: 32}}},
		{Kernel: "crc32", Ks: []int{5}, DictCaps: []int{-1}, // negative dictionary budget
			Ablations: []Ablation{FullISA()},
			Caches:    []cache.Config{{SizeBytes: 4096, LineBytes: 32, Assoc: 32}}},
		{Kernel: "crc32", Ks: []int{5}, // duplicate ablation names
			DictCaps:  []int{16},
			Ablations: []Ablation{FullISA(), FullISA()},
			Caches:    []cache.Config{{SizeBytes: 4096, LineBytes: 32, Assoc: 32}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %d validated but should not: %+v", i, g)
		}
	}
}

func TestParseAxes(t *testing.T) {
	ks, err := ParseInts(" 4, 5,6 ")
	if err != nil || len(ks) != 3 || ks[0] != 4 || ks[2] != 6 {
		t.Fatalf("ParseInts: %v %v", ks, err)
	}
	if _, err := ParseInts("4,x"); err == nil {
		t.Fatal("ParseInts accepted garbage")
	}

	caches, err := ParseCaches("4K,8192,16K:16:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []cache.Config{
		{SizeBytes: 4096, LineBytes: 32, Assoc: 32},
		{SizeBytes: 8192, LineBytes: 32, Assoc: 32},
		{SizeBytes: 16384, LineBytes: 16, Assoc: 4},
	}
	for i := range want {
		if caches[i] != want[i] {
			t.Fatalf("cache %d = %+v, want %+v", i, caches[i], want[i])
		}
	}
	if _, err := ParseCaches("3000"); err == nil {
		t.Fatal("ParseCaches accepted a non-power-of-two geometry")
	}

	abl, err := ParseAblations("full,nodict")
	if err != nil || len(abl) != 2 || !abl[1].NoDict {
		t.Fatalf("ParseAblations: %+v %v", abl, err)
	}
	if all, err := ParseAblations("all"); err != nil || len(all) != len(AllAblations()) {
		t.Fatalf("ParseAblations(all): %+v %v", all, err)
	}
	if _, err := ParseAblations("bogus"); err == nil || !strings.Contains(err.Error(), AblationNames()) {
		t.Fatalf("ParseAblations(bogus) = %v, want an error naming %s", err, AblationNames())
	}

	if CacheLabel(cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 32}) != "8K" {
		t.Fatal("CacheLabel conventional form")
	}
	if CacheLabel(cache.Config{SizeBytes: 8192, LineBytes: 16, Assoc: 4}) != "8K:l16:w4" {
		t.Fatal("CacheLabel explicit form")
	}
}
