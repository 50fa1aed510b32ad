package prom

import (
	"bytes"
	"strings"
	"testing"
)

// TestRoundTrip: everything the renderer writes, the parser accepts, and
// the parsed values equal the live registry's.
func TestRoundTrip(t *testing.T) {
	r := buildReference()
	exp, err := Parse(bytes.NewReader(render(t, r)))
	if err != nil {
		t.Fatalf("Parse rejected our own output: %v", err)
	}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"test_jobs_total", map[string]string{"outcome": "done"}, 3},
		{"test_jobs_total", map[string]string{"outcome": "failed"}, 1},
		{"test_queue_depth", nil, 7},
		{"test_uptime_seconds", nil, 1.5},
		{"test_scrapes_total", nil, 2},
		{"test_run_seconds_bucket", map[string]string{"dataset": "d1", "index": "grid", "le": "0.5"}, 3},
		{"test_run_seconds_bucket", map[string]string{"dataset": "d1", "index": "grid", "le": "+Inf"}, 5},
		{"test_run_seconds_count", map[string]string{"dataset": "d1", "index": "grid"}, 5},
		{"test_run_seconds_count", map[string]string{"dataset": "d2", "index": "rtree"}, 1},
		{"test_escaping", map[string]string{"path": "a\"b\\c\nd"}, 1},
	}
	for _, c := range checks {
		if c.labels == nil {
			c.labels = map[string]string{}
		}
		got, ok := exp.Value(c.name, c.labels)
		if !ok {
			t.Errorf("%s%v: not found", c.name, c.labels)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
	if n := exp.Histograms(); n != 1 {
		t.Errorf("Histograms() = %d, want 1", n)
	}
	if f := exp.Families["test_run_seconds"]; f == nil || f.Type != "histogram" {
		t.Errorf("test_run_seconds family = %+v", f)
	}
	if f := exp.Families["test_jobs_total"]; f == nil || f.Help != "Jobs by outcome." {
		t.Errorf("HELP not carried through: %+v", f)
	}
}

// TestParseRejects: the promtool-style lint catches each class of
// malformed exposition.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name  string
		input string
		wantE string
	}{
		{"sample without TYPE", "foo 1\n", "before its # TYPE"},
		{"unknown type", "# TYPE foo wat\n", "unknown metric type"},
		{"duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\n", "duplicate TYPE"},
		{"TYPE after samples", "# TYPE foo counter\nfoo 1\n# TYPE foo gauge\n", "duplicate TYPE"},
		{"missing value", "# TYPE foo counter\nfoo\n", "malformed sample"},
		{"bad value", "# TYPE foo counter\nfoo abc\n", "bad value"},
		{"bad metric name", "# TYPE foo counter\n2foo 1\n", "invalid metric name"},
		{"unterminated labels", "# TYPE foo counter\nfoo{a=\"x 1\n", "unterminated"},
		{"label missing equals", "# TYPE foo counter\nfoo{a=\"x\" 1\n", "label without"},
		{"unquoted label value", "# TYPE foo counter\nfoo{a=x} 1\n", "not quoted"},
		{"bad escape", "# TYPE foo counter\nfoo{a=\"\\q\"} 1\n", "bad escape"},
		{"duplicate label", "# TYPE foo counter\nfoo{a=\"x\",a=\"y\"} 1\n", "duplicate label"},
		{"duplicate sample", "# TYPE foo counter\nfoo{a=\"x\"} 1\nfoo{a=\"x\"} 2\n", "duplicate sample"},
		{"bad timestamp", "# TYPE foo counter\nfoo 1 nope\n", "bad timestamp"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n", "without le"},
		{"stray histogram sample", "# TYPE h histogram\nh_other 1\n", "before its # TYPE"},
		{"missing +Inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"missing the +Inf"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"non-monotone buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"bucket counts decrease"},
		{"le not increasing",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"le bounds not increasing"},
		{"count disagrees with +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 7\n",
			"_count 7 != +Inf"},
		{"+Inf below last bucket",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
			"+Inf bucket 2 below"},
		{"bad le", "# TYPE h histogram\nh_bucket{le=\"abc\"} 1\nh_sum 1\nh_count 1\n", "bad le"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.input))
			if err == nil {
				t.Fatalf("accepted malformed input:\n%s", c.input)
			}
			if !strings.Contains(err.Error(), c.wantE) {
				t.Fatalf("error %q does not mention %q", err, c.wantE)
			}
		})
	}
}

// TestParseAccepts: valid shapes beyond our own renderer — timestamps,
// Inf/NaN values, untyped comments, blank lines, label whitespace.
func TestParseAccepts(t *testing.T) {
	in := `
# plain comment
# TYPE foo counter
# HELP foo A counter.
foo{a="x"} 1 1712000000000

# TYPE bar gauge
bar NaN
# TYPE baz gauge
baz +Inf
# TYPE h histogram
h_bucket{ le="1" } 1
h_bucket{le="+Inf"} 2
h_sum 3.5
h_count 2
`
	exp, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, ok := exp.Value("foo", map[string]string{"a": "x"}); !ok || v != 1 {
		t.Errorf("foo = %g ok=%v", v, ok)
	}
	if v, ok := exp.Value("h_sum", map[string]string{}); !ok || v != 3.5 {
		t.Errorf("h_sum = %g ok=%v", v, ok)
	}
}

// TestLintRules: each of TestLintScrape's rules rejects a scrape that
// breaks it, in the flag syntax CI passes through PROM_LINT.
func TestLintRules(t *testing.T) {
	const scrape = `# TYPE h_seconds histogram
h_seconds_bucket{dataset="d1",le="1"} 1
h_seconds_bucket{dataset="d1",le="+Inf"} 1
h_seconds_sum{dataset="d1"} 0.5
h_seconds_count{dataset="d1"} 1
# TYPE t_jobs_total counter
t_jobs_total{tenant="a"} 2
# TYPE t_idle_total counter
# TYPE u_total counter
u_total 1
`
	cases := []struct {
		lint, wantE string // wantE "" means the scrape passes
	}{
		{"", ""},
		{"-min-histograms 1 -require-labels dataset", ""},
		{"-require-family-labels t_:tenant -require-family-labels h_:dataset", ""},
		{"-min-histograms 2", "1 histogram families, want >= 2"},
		{"-require-labels dataset,index", `lacks required label "index"`},
		{"-require-family-labels u_:tenant", `lacks required label "tenant"`},
		{"-require-family-labels v_:tenant", "no family named v_* has samples"},
		{"-require-family-labels t_idle:tenant", "no family named t_idle* has samples"},
		{"-require-family-labels t_", "want PREFIX:LABEL"},
		{"-no-such-rule 1", "not defined"},
		{"extra", "unexpected argument"},
	}
	for _, c := range cases {
		err := func() error {
			rules, err := parseLintRules(strings.Fields(c.lint))
			if err != nil {
				return err
			}
			exp, err := Parse(strings.NewReader(scrape))
			if err != nil {
				t.Fatalf("fixture fails the parser: %v", err)
			}
			return rules.check(exp)
		}()
		switch {
		case c.wantE == "" && err != nil:
			t.Errorf("%q: %v", c.lint, err)
		case c.wantE != "" && (err == nil || !strings.Contains(err.Error(), c.wantE)):
			t.Errorf("%q: error %v, want one mentioning %q", c.lint, err, c.wantE)
		}
	}
}
