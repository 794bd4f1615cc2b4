package telemetry

import (
	"strings"
	"testing"
)

// validDoc is a hand-written document the strict parser must accept,
// covering labels, escapes, a timestamp, and a histogram.
const validDoc = `# HELP m_total requests
# TYPE m_total counter
m_total{path="/a",verdict="say \"hi\"\n"} 3
m_total{path="/b"} 4 1700000000
# HELP g a gauge
# TYPE g gauge
g -1.5e3
# HELP h_hist latency
# TYPE h_hist histogram
h_hist_bucket{le="0.1"} 1
h_hist_bucket{le="1"} 3
h_hist_bucket{le="+Inf"} 5
h_hist_sum 2.5
h_hist_count 5
`

func TestParseAcceptsValidDocument(t *testing.T) {
	p, err := ParseExposition([]byte(validDoc))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if len(p.Families) != 3 || p.Samples() != 8 {
		t.Fatalf("got %d families / %d samples, want 3 / 8", len(p.Families), p.Samples())
	}
	s := p.Family("m_total").Samples[0]
	if v, _ := s.Get("verdict"); v != "say \"hi\"\n" {
		t.Fatalf("label unescaping broken: %q", v)
	}
	if p.Family("h_hist").Type != "histogram" {
		t.Fatalf("histogram family type lost")
	}
}

// TestParseRejections walks the rejection matrix: each mutation of a
// valid document must fail with an error mentioning the violated rule.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name    string
		doc     string
		errWant string
	}{
		{"no trailing newline",
			"# HELP a b\n# TYPE a gauge\na 1", "newline"},
		{"sample without TYPE",
			"a 1\n", "no preceding TYPE"},
		{"HELP only, no TYPE",
			"# HELP a b\na 1\n", "no TYPE"},
		{"duplicate HELP",
			"# HELP a b\n# HELP a c\n# TYPE a gauge\na 1\n", "duplicate HELP"},
		{"duplicate TYPE",
			"# HELP a b\n# TYPE a gauge\n# TYPE a gauge\na 1\n", "duplicate TYPE"},
		{"TYPE after samples",
			"# HELP a b\n# TYPE a gauge\na 1\n# TYPE a gauge\n", "duplicate TYPE"},
		{"unknown type",
			"# HELP a b\n# TYPE a widget\na 1\n", "unknown metric type"},
		{"family reappears",
			"# HELP a b\n# TYPE a gauge\na 1\n# HELP b c\n# TYPE b gauge\nb 1\n# HELP a b\n# TYPE a gauge\n", "reappears"},
		{"interleaved sample",
			"# HELP a b\n# TYPE a gauge\na 1\n# HELP b c\n# TYPE b gauge\na 2\n", "no preceding TYPE"},
		{"duplicate series",
			"# HELP a b\n# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "duplicate series"},
		{"duplicate series reordered labels",
			"# HELP a b\n# TYPE a gauge\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n", "duplicate series"},
		{"invalid metric name",
			"# HELP a b\n# TYPE a gauge\n1a 1\n", "invalid metric name"},
		{"invalid label name",
			"# HELP a b\n# TYPE a gauge\na{1x=\"v\"} 1\n", "invalid label name"},
		{"reserved label name",
			"# HELP a b\n# TYPE a gauge\na{__x=\"v\"} 1\n", "invalid label name"},
		{"duplicate label",
			"# HELP a b\n# TYPE a gauge\na{x=\"1\",x=\"2\"} 1\n", "duplicate label"},
		{"bad escape",
			"# HELP a b\n# TYPE a gauge\na{x=\"\\t\"} 1\n", "invalid escape"},
		{"unterminated label value",
			"# HELP a b\n# TYPE a gauge\na{x=\"v} 1\n", "unterminated"},
		{"unquoted label value",
			"# HELP a b\n# TYPE a gauge\na{x=v} 1\n", "not quoted"},
		{"missing value",
			"# HELP a b\n# TYPE a gauge\na{x=\"v\"}\n", "value"},
		{"bad value",
			"# HELP a b\n# TYPE a gauge\na pots\n", "invalid sample value"},
		{"bad timestamp",
			"# HELP a b\n# TYPE a gauge\na 1 soon\n", "invalid timestamp"},
		{"bad HELP escape",
			"# HELP a oops \\q\n# TYPE a gauge\na 1\n", "invalid escape in HELP"},
		{"family without HELP",
			"# TYPE a gauge\na 1\n", "no HELP"},
		{"histogram bounds not increasing",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not increasing"},
		{"histogram not cumulative",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "not cumulative"},
		{"histogram missing +Inf",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "no +Inf"},
		{"histogram count mismatch",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n", "_count"},
		{"histogram missing sum",
			"# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n", "no _sum"},
		{"histogram bucket without le",
			"# HELP h x\n# TYPE h histogram\nh_bucket 3\nh_sum 1\nh_count 3\n", "without le"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseExposition([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted invalid document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

// TestParseHistogramPerSeries verifies the invariants are enforced per
// label set, not across the whole family: two interleaved-by-scope
// series each restart their cumulative run.
func TestParseHistogramPerSeries(t *testing.T) {
	doc := "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{s=\"a\",le=\"1\"} 5\nh_bucket{s=\"a\",le=\"+Inf\"} 9\n" +
		"h_bucket{s=\"b\",le=\"1\"} 1\nh_bucket{s=\"b\",le=\"+Inf\"} 2\n" +
		"h_sum{s=\"a\"} 1\nh_count{s=\"a\"} 9\n" +
		"h_sum{s=\"b\"} 1\nh_count{s=\"b\"} 2\n"
	if _, err := ParseExposition([]byte(doc)); err != nil {
		t.Fatalf("per-series histogram rejected: %v", err)
	}
}

// Family returns the named family, or nil.
func (p *Parsed) Family(name string) *Family {
	for _, f := range p.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}
