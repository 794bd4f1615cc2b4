package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The strict text-format parser: the conformance gate for /metrics.
// It enforces more than a tolerant scraper would — exactly one HELP
// and one TYPE per family, TYPE before any sample, contiguous family
// blocks (no family may reappear after another began), full name and
// label grammar, valid escape sequences, no duplicate series, and
// histogram invariants (le-sorted cumulative buckets ending in +Inf,
// _count equal to the +Inf bucket). ci.sh runs it over a live scrape
// via `powerfits scrape`.

// Family is one parsed metric family.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label is one name="value" pair, unescaped.
type Label struct {
	Name, Value string
}

// Get returns the value of the named label and whether it was present.
func (s *Sample) Get(name string) (string, bool) {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// Parsed is the result of ParseExposition.
type Parsed struct {
	Families []*Family
}

// Samples returns the total sample count.
func (p *Parsed) Samples() int {
	n := 0
	for _, f := range p.Families {
		n += len(f.Samples)
	}
	return n
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// familyOf maps a sample name onto its family: histogram samples carry
// _bucket/_sum/_count suffixes (summaries _sum/_count), everything
// else is its own family.
func familyOf(sample, curFamily, curType string) string {
	if curFamily == "" {
		return sample
	}
	switch curType {
	case "histogram":
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if sample == curFamily+suf {
				return curFamily
			}
		}
	case "summary":
		for _, suf := range []string{"_sum", "_count"} {
			if sample == curFamily+suf {
				return curFamily
			}
		}
	}
	return sample
}

// unescapeLabelValue validates and unescapes a label value body (the
// text between the quotes).
func unescapeLabelValue(s string, line int) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("line %d: dangling backslash in label value", line)
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("line %d: invalid escape sequence \\%c in label value", line, s[i])
		}
	}
	return b.String(), nil
}

// parseSample parses `name{label="v",...} value [timestamp]`.
func parseSample(s string, line int) (Sample, error) {
	var out Sample
	rest := s
	// Metric name runs to '{', space or tab.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return out, fmt.Errorf("line %d: sample has no value", line)
	}
	out.Name = rest[:end]
	if !validMetricName(out.Name) {
		return out, fmt.Errorf("line %d: invalid metric name %q", line, out.Name)
	}
	rest = rest[end:]

	if rest[0] == '{' {
		close := -1
		// Find the closing brace outside quotes.
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				close = i
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return out, fmt.Errorf("line %d: unterminated label block", line)
		}
		body := rest[1:close]
		rest = rest[close+1:]
		seen := map[string]bool{}
		for len(body) > 0 {
			eq := strings.IndexByte(body, '=')
			if eq < 0 {
				return out, fmt.Errorf("line %d: label without '='", line)
			}
			name := body[:eq]
			if !validLabelName(name) {
				return out, fmt.Errorf("line %d: invalid label name %q", line, name)
			}
			if seen[name] {
				return out, fmt.Errorf("line %d: duplicate label %q", line, name)
			}
			seen[name] = true
			body = body[eq+1:]
			if len(body) == 0 || body[0] != '"' {
				return out, fmt.Errorf("line %d: label %q value not quoted", line, name)
			}
			// Scan to the closing quote honoring escapes.
			endQ := -1
			for i := 1; i < len(body); i++ {
				if body[i] == '\\' {
					i++
					continue
				}
				if body[i] == '"' {
					endQ = i
					break
				}
			}
			if endQ < 0 {
				return out, fmt.Errorf("line %d: unterminated label value for %q", line, name)
			}
			val, err := unescapeLabelValue(body[1:endQ], line)
			if err != nil {
				return out, err
			}
			out.Labels = append(out.Labels, Label{Name: name, Value: val})
			body = body[endQ+1:]
			if len(body) > 0 {
				if body[0] != ',' {
					return out, fmt.Errorf("line %d: expected ',' between labels", line)
				}
				body = body[1:]
				// A single trailing comma is tolerated by the format.
			}
		}
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return out, fmt.Errorf("line %d: want 'value [timestamp]' after metric, got %q", line, strings.TrimSpace(rest))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return out, fmt.Errorf("line %d: invalid sample value %q", line, fields[0])
	}
	out.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return out, fmt.Errorf("line %d: invalid timestamp %q", line, fields[1])
		}
	}
	return out, nil
}

// seriesKey identifies a sample for duplicate detection: name plus the
// sorted label set.
func seriesKey(s Sample) string {
	parts := make([]string, 0, len(s.Labels))
	for _, l := range s.Labels {
		parts = append(parts, l.Name+"="+strconv.Quote(l.Value))
	}
	// Labels arrive in document order; sort for set semantics.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// ParseExposition strictly parses a Prometheus text-format (v0.0.4)
// document.
func ParseExposition(data []byte) (*Parsed, error) {
	text := string(data)
	if text != "" && !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("exposition does not end in a newline")
	}
	p := &Parsed{}
	var cur *Family
	closed := map[string]bool{} // families that may not reappear
	series := map[string]bool{}

	startFamily := func(name string, line int) (*Family, error) {
		if cur != nil && cur.Name == name {
			return cur, nil
		}
		if closed[name] {
			return nil, fmt.Errorf("line %d: family %q reappears after another family began", line, name)
		}
		if cur != nil {
			closed[cur.Name] = true
		}
		f := &Family{Name: name}
		p.Families = append(p.Families, f)
		cur = f
		return f, nil
	}

	lines := strings.Split(text, "\n")
	for i, raw := range lines {
		line := i + 1
		if raw == "" {
			continue // final split remainder and blank lines
		}
		if strings.HasPrefix(raw, "#") {
			fields := strings.SplitN(raw, " ", 4)
			if len(fields) < 2 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return nil, fmt.Errorf("line %d: malformed HELP line", line)
				}
				f, err := startFamily(fields[2], line)
				if err != nil {
					return nil, err
				}
				if f.Help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for family %q", line, f.Name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: HELP for %q after its samples", line, f.Name)
				}
				help := ""
				if len(fields) == 4 {
					help = fields[3]
				}
				// Validate HELP escaping: only \\ and \n.
				for j := 0; j < len(help); j++ {
					if help[j] != '\\' {
						continue
					}
					j++
					if j >= len(help) || (help[j] != '\\' && help[j] != 'n') {
						return nil, fmt.Errorf("line %d: invalid escape in HELP text", line)
					}
				}
				f.Help = help
			case "TYPE":
				if len(fields) != 4 || !validMetricName(fields[2]) {
					return nil, fmt.Errorf("line %d: malformed TYPE line", line)
				}
				if !validTypes[fields[3]] {
					return nil, fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
				f, err := startFamily(fields[2], line)
				if err != nil {
					return nil, err
				}
				if f.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for family %q", line, f.Name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", line, f.Name)
				}
				f.Type = fields[3]
			default:
				// Plain comment.
			}
			continue
		}

		s, err := parseSample(raw, line)
		if err != nil {
			return nil, err
		}
		famName := "(none)"
		famType := ""
		if cur != nil {
			famName, famType = cur.Name, cur.Type
		}
		owner := familyOf(s.Name, famName, famType)
		if cur == nil || owner != cur.Name {
			// A sample opening a family with no preceding TYPE.
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE for its family", line, s.Name)
		}
		key := seriesKey(s)
		if series[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", line, key)
		}
		series[key] = true
		cur.Samples = append(cur.Samples, s)
	}

	for _, f := range p.Families {
		if f.Type == "" {
			return nil, fmt.Errorf("family %q has no TYPE line", f.Name)
		}
		if f.Help == "" {
			return nil, fmt.Errorf("family %q has no HELP line", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// checkHistogram enforces per-series histogram invariants: buckets
// grouped by their non-le label set must have strictly increasing le
// bounds, non-decreasing cumulative counts, a +Inf bucket, and a
// _count sample equal to the +Inf bucket.
func checkHistogram(f *Family) error {
	type group struct {
		lastLE   float64
		lastCum  float64
		infCount float64
		hasInf   bool
		buckets  int
	}
	groups := map[string]*group{}
	counts := map[string]float64{}
	sums := map[string]bool{}

	keyWithoutLE := func(s Sample) string {
		t := s
		t.Labels = nil
		for _, l := range s.Labels {
			if l.Name != "le" {
				t.Labels = append(t.Labels, l)
			}
		}
		t.Name = ""
		return seriesKey(t)
	}

	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			leStr, ok := s.Get("le")
			if !ok {
				return fmt.Errorf("family %q: bucket sample without le label", f.Name)
			}
			k := keyWithoutLE(s)
			g := groups[k]
			if g == nil {
				g = &group{lastLE: math.Inf(-1), lastCum: -1}
				groups[k] = g
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				return fmt.Errorf("family %q: invalid le value %q", f.Name, leStr)
			}
			if le <= g.lastLE {
				return fmt.Errorf("family %q: bucket bounds not increasing (%v after %v)", f.Name, le, g.lastLE)
			}
			if s.Value < g.lastCum {
				return fmt.Errorf("family %q: bucket counts not cumulative", f.Name)
			}
			g.lastLE, g.lastCum = le, s.Value
			g.buckets++
			if math.IsInf(le, 1) {
				g.hasInf, g.infCount = true, s.Value
			}
		case f.Name + "_count":
			counts[keyWithoutLE(s)] = s.Value
		case f.Name + "_sum":
			sums[keyWithoutLE(s)] = true
		default:
			return fmt.Errorf("family %q: unexpected sample name %q in histogram", f.Name, s.Name)
		}
	}
	for k, g := range groups {
		if !g.hasInf {
			return fmt.Errorf("family %q: series %s has no +Inf bucket", f.Name, k)
		}
		if c, ok := counts[k]; ok && c != g.infCount {
			return fmt.Errorf("family %q: _count %v != +Inf bucket %v", f.Name, c, g.infCount)
		}
		if !sums[k] {
			return fmt.Errorf("family %q: series %s has no _sum sample", f.Name, k)
		}
	}
	return nil
}
