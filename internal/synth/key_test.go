package synth

import (
	"reflect"
	"strings"
	"testing"

	"powerfits/internal/isa/fits"
)

// optionsKeyFields is the authoritative split of Options fields for
// Key(): identity fields change the synthesized ISA (or its input
// profile) and must be folded into the key; non-identity fields are
// pure observers. Adding a field to Options without classifying it
// here fails TestOptionsKeyCoversAllFields — the guard against a new
// knob silently serving stale memoized results.
var optionsKeyFields = map[string]bool{
	// identity
	"ForceK":          true,
	"DictCap":         true,
	"NoDict":          true,
	"NoWindowRanking": true,
	"NoTwoOp":         true,
	"NoBasePoints":    true,
	"ProfileBudget":   true,
	// non-identity (observers)
	"Trace": false,
}

// perturb returns an Options with the named field set to a value that
// differs from the zero value.
func perturb(t *testing.T, field string) Options {
	t.Helper()
	var o Options
	v := reflect.ValueOf(&o).Elem().FieldByName(field)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	default:
		t.Fatalf("Options.%s has kind %s: teach perturb about it and classify it in optionsKeyFields", field, v.Kind())
	}
	return o
}

// TestOptionsKeyCoversAllFields fails when an Options field is neither
// folded into Key() nor explicitly listed as a non-identity observer,
// when an identity field has no wire key or is dropped by With, and
// when an observer has a wire form.
func TestOptionsKeyCoversAllFields(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	zero := Options{}.Key()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		identity, known := optionsKeyFields[f.Name]
		if !known {
			t.Errorf("Options.%s is not classified in optionsKeyFields: fold it into Options.Key() (or list it as a non-identity observer) before shipping — an unkeyed field serves stale memo entries", f.Name)
			continue
		}
		tag := f.Tag.Get("json")
		if !identity {
			if tag != "-" {
				t.Errorf("observer Options.%s has json tag %q, want \"-\": it has no wire form", f.Name, tag)
			}
			continue
		}
		if key, _, _ := strings.Cut(tag, ","); key == "" || key == "-" {
			t.Errorf("identity field Options.%s has no JSON key (tag %q): serve and sweep marshal Options as their wire form", f.Name, tag)
		}
		p := perturb(t, f.Name)
		if got := p.Key(); got == zero {
			t.Errorf("Options.Key() ignores identity field %s: perturbing it left the key at %q", f.Name, zero)
		}
		want := reflect.ValueOf(p).Field(i).Interface()
		if got := reflect.ValueOf(DefaultOptions().With(p)).Field(i).Interface(); got != want {
			t.Errorf("Options.With drops identity field %s: overlaying %v gave %v", f.Name, want, got)
		}
	}
}

// TestOptionsWithOverlays pins With's rules: zero numbers keep the
// base, switches are ORed in, and the base's Trace survives.
func TestOptionsWithOverlays(t *testing.T) {
	tr := &Trace{}
	base := Options{ForceK: 5, DictCap: 64, NoDict: true, Trace: tr, ProfileBudget: 99}
	if got := base.With(Options{}); got != base {
		t.Fatalf("empty overlay changed the base: %+v", got)
	}
	got := base.With(Options{DictCap: 16, NoTwoOp: true, Trace: &Trace{}})
	want := Options{ForceK: 5, DictCap: 16, NoDict: true, NoTwoOp: true, Trace: tr, ProfileBudget: 99}
	if got != want {
		t.Fatalf("overlay = %+v, want %+v", got, want)
	}
}

// TestOptionsValidate pins the bounds: ForceK is 0 or a width in
// [fits.MinK, fits.MaxK], DictCap and ProfileBudget are not negative.
func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{}, DefaultOptions(), {ForceK: fits.MinK}, {ForceK: fits.MaxK}, {ProfileBudget: 1}} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", o, err)
		}
	}
	for _, o := range []Options{{ForceK: -1}, {ForceK: fits.MinK - 1}, {ForceK: fits.MaxK + 1}, {DictCap: -1}, {ProfileBudget: -1}} {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v accepted", o)
		}
	}
}

func TestOptionsKeyCanonical(t *testing.T) {
	a := Options{DictCap: 256}
	b := Options{DictCap: 256}
	if a.Key() != b.Key() {
		t.Fatalf("equal options disagree: %q vs %q", a.Key(), b.Key())
	}
	// The zero budget resolves to the default, so an explicit default
	// budget and the implicit one land on the same key — they run the
	// same profile.
	c := Options{DictCap: 256, ProfileBudget: DefaultProfileBudget}
	if a.Key() != c.Key() {
		t.Fatalf("implicit and explicit default budgets disagree: %q vs %q", a.Key(), c.Key())
	}
	// Trace is an observer: attaching one must not move the key.
	d := Options{DictCap: 256, Trace: &Trace{}}
	if a.Key() != d.Key() {
		t.Fatalf("attaching a trace moved the key: %q vs %q", a.Key(), d.Key())
	}
}
