package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"powerfits/internal/metrics"
)

// ContentType is the Prometheus text exposition format version the
// expositor emits, sent verbatim as the /metrics Content-Type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// The registry→exposition mapping. Registry names are hierarchical
// slash-joined paths (kernel/crc32/FITS8/run_sec); Prometheus metric
// names are flat. The expositor splits each path at its last segment:
// the segment becomes the family name (sanitized, prefixed with
// "powerfits_") and the prefix becomes the value of a "scope" label,
// so kernel/crc32/FITS8/run_sec and kernel/sha/ARM16/run_sec land in
// ONE family powerfits_run_sec with two labeled series — the shape
// Prometheus queries want. Kind suffixes keep families disjoint across
// instrument kinds: counters end in "_total" (the Prometheus counter
// convention), histograms in "_hist" (their sample names then append
// _bucket/_sum/_count), gauges are bare. Residual collisions (e.g. a
// gauge literally named x_total next to a counter x) are resolved
// deterministically by appending the kind name.

// family collects the samples of one exposition family.
type family struct {
	name   string
	kind   string // "counter", "gauge", "histogram"
	help   string
	rows   []string
	scopes map[string]bool // scope values already used (series dedup)
}

// labels returns the label block for one instrument of the family,
// claiming its scope. Two distinct registry names can sanitize onto
// the same (family, scope) — e.g. a/x.y and a/x_y — and a duplicate
// series would make the exposition invalid, so the later claimant
// carries its raw registry name as an extra disambiguating label.
func (f *family) labels(scope, rawName string) string {
	if !f.scopes[scope] {
		f.scopes[scope] = true
		return scopeLabels(scope)
	}
	return scopeLabels(scope, [2]string{"raw", rawName})
}

// sanitizeName maps an arbitrary metric path segment onto the
// Prometheus name alphabet [a-zA-Z0-9_:]; every other byte becomes an
// underscore. The "powerfits_" prefix guarantees a legal first char.
func sanitizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are
// legal there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects: Go
// shortest-float formatting, with Inf/NaN spelled +Inf/-Inf/NaN.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// splitPath separates a registry name into its scope prefix and final
// metric segment.
func splitPath(name string) (scope, metric string) {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// scopeLabels renders the label block for a scope ("" means none);
// extra key=value pairs (already escaped names, raw values) follow.
func scopeLabels(scope string, extra ...[2]string) string {
	var parts []string
	if scope != "" {
		parts = append(parts, `scope="`+escapeLabel(scope)+`"`)
	}
	for _, kv := range extra {
		parts = append(parts, kv[0]+`="`+escapeLabel(kv[1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// familyName derives the exposition family name for one registry
// metric of the given kind, applying the static kind suffix.
func familyName(metric, kind string) string {
	base := "powerfits_" + sanitizeName(metric)
	switch kind {
	case "counter":
		// Unconditional: a counter already named x_total would otherwise
		// merge with a sibling counter x into one family.
		base += "_total"
	case "histogram":
		base += "_hist"
	}
	return base
}

// exposition accumulates families keyed by name with deterministic
// collision resolution.
type exposition struct {
	byName map[string]*family
	order  []string
}

// add returns the family for (metric, kind), creating it on first use.
// A name collision with a different kind appends "_"+kind — processing
// kinds in a fixed order (counter, gauge, histogram) keeps the result
// deterministic for a given snapshot.
func (e *exposition) add(metric, kind string) *family {
	name := familyName(metric, kind)
	if f, ok := e.byName[name]; ok && f.kind != kind {
		name += "_" + kind
	}
	f, ok := e.byName[name]
	if !ok {
		// strconv.Quote keeps the raw metric segment printable and
		// single-line; escapeHelp then applies the text format's HELP
		// escaping (backslash, newline) over the whole line.
		f = &family{name: name, kind: kind, scopes: make(map[string]bool),
			help: escapeHelp(fmt.Sprintf("powerfits registry %s of %s; the scope label carries the registry path prefix", kind, strconv.Quote(metric)))}
		e.byName[name] = f
		e.order = append(e.order, name)
	}
	return f
}

// WriteExposition renders a registry snapshot in the Prometheus text
// format: one HELP and one TYPE line per family, families in sorted
// name order, series within a family in sorted scope order, histogram
// buckets cumulative with a closing +Inf bucket. Repeated calls over
// the same snapshot are byte-identical.
func WriteExposition(w io.Writer, snap metrics.Snapshot) error {
	e := &exposition{byName: make(map[string]*family)}

	// Snapshot slices are already name-sorted per kind, so series land
	// in each family in deterministic scope order.
	for _, c := range snap.Counters {
		scope, metric := splitPath(c.Name)
		f := e.add(metric, "counter")
		f.rows = append(f.rows, f.name+f.labels(scope, c.Name)+" "+strconv.FormatUint(c.Value, 10))
	}
	for _, g := range snap.Gauges {
		scope, metric := splitPath(g.Name)
		f := e.add(metric, "gauge")
		f.rows = append(f.rows, f.name+f.labels(scope, g.Name)+" "+formatValue(g.Value))
	}
	for _, h := range snap.Histograms {
		scope, metric := splitPath(h.Name)
		f := e.add(metric, "histogram")
		base := f.labels(scope, h.Name)
		// Re-derive the shared label block with the le bucket label
		// appended: base is "{...}" or "".
		bucketLabels := func(le string) string {
			if base == "" {
				return `{le="` + le + `"}`
			}
			return base[:len(base)-1] + `,le="` + le + `"}`
		}
		var cum uint64
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatValue(h.Bounds[i])
			}
			f.rows = append(f.rows, f.name+"_bucket"+bucketLabels(le)+" "+strconv.FormatUint(cum, 10))
		}
		f.rows = append(f.rows,
			f.name+"_sum"+base+" "+formatValue(h.Sum),
			f.name+"_count"+base+" "+strconv.FormatUint(h.Count, 10))
	}

	sort.Strings(e.order)
	for _, name := range e.order {
		f := e.byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, row := range f.rows {
			if _, err := io.WriteString(w, row+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}
