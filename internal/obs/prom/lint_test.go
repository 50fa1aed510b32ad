package prom

// This file is the package's test tooling: a strict parser of the text
// format (Parse) and the lint rules TestLintScrape applies to a saved
// /metrics scrape. The package_test files use the parser too.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Sample is one parsed time series sample.
type Sample struct {
	// Name is the full sample name (histogram children keep their
	// _bucket/_sum/_count suffix).
	Name string
	// Labels holds the label pairs, including le on _bucket samples.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParsedFamily is one metric family reconstructed from the text format.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | summary | untyped
	Samples []Sample
}

// Exposition is a parsed scrape: families keyed and ordered by name.
type Exposition struct {
	Families map[string]*ParsedFamily
	Order    []string
}

// Histograms counts the histogram-typed families.
func (e *Exposition) Histograms() int {
	n := 0
	for _, f := range e.Families {
		if f.Type == "histogram" {
			n++
		}
	}
	return n
}

// Value returns the value of the sample with the given full name and an
// exactly matching label set.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	fam, ok := e.Families[familyName(e, name)]
	if !ok {
		return 0, false
	}
	for _, s := range fam.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

func familyName(e *Exposition, sample string) string {
	if _, ok := e.Families[sample]; ok {
		return sample
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if _, ok := e.Families[base]; ok {
				return base
			}
		}
	}
	return sample
}

// Parse reads a Prometheus text-format exposition and validates it
// strictly — an in-tree promtool-style lint. It rejects:
//
//   - samples whose family has no preceding # TYPE line;
//   - malformed sample lines (bad names, unbalanced braces, bad escapes,
//     missing or unparsable values);
//   - duplicate samples (same name and label set);
//   - histograms missing the +Inf bucket, with non-monotone cumulative
//     bucket counts, with unparsable or non-increasing le bounds, or whose
//     _count disagrees with the +Inf bucket;
//   - duplicate # TYPE lines and unknown type names.
func Parse(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Families: map[string]*ParsedFamily{}}
	seen := map[string]bool{} // dedup key: name + sorted labels
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(exp, line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := exp.Families[familyName(exp, s.Name)]
		if fam == nil || fam.Type == "" {
			return nil, fmt.Errorf("line %d: sample %s before its # TYPE line", lineNo, s.Name)
		}
		if fam.Type == "histogram" {
			base := fam.Name
			if s.Name != base+"_bucket" && s.Name != base+"_sum" && s.Name != base+"_count" {
				return nil, fmt.Errorf("line %d: histogram %s has stray sample %s", lineNo, base, s.Name)
			}
			if s.Name == base+"_bucket" {
				if _, ok := s.Labels["le"]; !ok {
					return nil, fmt.Errorf("line %d: %s without le label", lineNo, s.Name)
				}
			}
		}
		key := sampleKey(s)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range exp.Order {
		fam := exp.Families[name]
		if fam.Type == "histogram" {
			if err := checkHistogram(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", name, err)
			}
		}
	}
	return exp, nil
}

func parseComment(exp *Exposition, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		f := getFamily(exp, fields[2])
		f.Help = help
	case "TYPE":
		if len(fields) != 4 || !validName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		f := getFamily(exp, fields[2])
		if f.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", fields[2])
		}
		f.Type = fields[3]
	}
	return nil
}

func getFamily(exp *Exposition, name string) *ParsedFamily {
	if f, ok := exp.Families[name]; ok {
		return f
	}
	f := &ParsedFamily{Name: name}
	exp.Families[name] = f
	exp.Order = append(exp.Order, name)
	return f
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	if rest == "" {
		return s, fmt.Errorf("sample %s has no value", s.Name)
	}
	// An optional timestamp may follow the value.
	valStr := rest
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		valStr = rest[:j]
		ts := strings.TrimSpace(rest[j:])
		if ts != "" {
			if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
				return s, fmt.Errorf("sample %s has a bad timestamp %q", s.Name, ts)
			}
		}
	}
	v, err := parseFloat(valStr)
	if err != nil {
		return s, fmt.Errorf("sample %s has a bad value %q", s.Name, valStr)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at in[0] == '{' and fills
// labels; it returns the index just past the closing brace.
func parseLabels(in string, labels map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ' ' || in[i] == '\t') {
			i++
		}
		if i >= len(in) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if in[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(in) && in[i] != '=' {
			i++
		}
		if i >= len(in) {
			return 0, fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(in[start:i])
		if !validLabelOrLe(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i++ // past '='
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("label %s value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return 0, fmt.Errorf("unterminated label value for %s", name)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(in) {
					return 0, fmt.Errorf("dangling escape in label %s", name)
				}
				switch in[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c in label %s", in[i], name)
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return 0, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		for i < len(in) && (in[i] == ' ' || in[i] == '\t') {
			i++
		}
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
}

func validLabelOrLe(s string) bool { return s == "le" || validLabel(s) }

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func sampleKey(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(s.Name)
	for _, k := range keys {
		sb.WriteByte('{')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(s.Labels[k])
		sb.WriteByte('}')
	}
	return sb.String()
}

// checkHistogram enforces the per-child histogram invariants: le bounds
// strictly increasing and parsable, cumulative counts non-decreasing, a
// +Inf bucket present, and _count equal to the +Inf bucket (when present).
func checkHistogram(fam *ParsedFamily) error {
	type childAgg struct {
		les      []float64
		counts   []float64
		inf      float64
		hasInf   bool
		count    float64
		hasCount bool
		hasSum   bool
	}
	children := map[string]*childAgg{}
	childOf := func(labels map[string]string) *childAgg {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(labels[k])
			sb.WriteByte(';')
		}
		c, ok := children[sb.String()]
		if !ok {
			c = &childAgg{}
			children[sb.String()] = c
		}
		return c
	}
	for _, s := range fam.Samples {
		c := childOf(s.Labels)
		switch s.Name {
		case fam.Name + "_bucket":
			le, err := parseFloat(s.Labels["le"])
			if err != nil {
				return fmt.Errorf("bad le %q", s.Labels["le"])
			}
			if math.IsInf(le, 1) {
				c.inf, c.hasInf = s.Value, true
			} else {
				c.les = append(c.les, le)
				c.counts = append(c.counts, s.Value)
			}
		case fam.Name + "_count":
			c.count, c.hasCount = s.Value, true
		case fam.Name + "_sum":
			c.hasSum = true
		}
	}
	for key, c := range children {
		if !c.hasInf {
			return fmt.Errorf("child {%s} missing the +Inf bucket", key)
		}
		if !c.hasSum {
			return fmt.Errorf("child {%s} missing _sum", key)
		}
		for i := 1; i < len(c.les); i++ {
			if c.les[i] <= c.les[i-1] {
				return fmt.Errorf("child {%s} le bounds not increasing (%g after %g)",
					key, c.les[i], c.les[i-1])
			}
			if c.counts[i] < c.counts[i-1] {
				return fmt.Errorf("child {%s} bucket counts decrease at le=%g (%g < %g)",
					key, c.les[i], c.counts[i], c.counts[i-1])
			}
		}
		if n := len(c.counts); n > 0 && c.inf < c.counts[n-1] {
			return fmt.Errorf("child {%s} +Inf bucket %g below le=%g bucket %g",
				key, c.inf, c.les[n-1], c.counts[n-1])
		}
		if c.hasCount && c.count != c.inf {
			return fmt.Errorf("child {%s} _count %g != +Inf bucket %g", key, c.count, c.inf)
		}
	}
	return nil
}

// lintRules are the requirements a scrape must meet beyond parsing, set in
// flag syntax:
//
//	-min-histograms N               at least N histogram families
//	-require-labels L,...           every histogram sample carries each label
//	-require-family-labels P:L,...  (repeatable) at least one family named P*
//	                                has samples, and every sample of every
//	                                such family carries each label
//
// -require-family-labels covers counters and gauges too: vdbscand's
// per-tenant accounting families are counters.
type lintRules struct {
	minHistograms int
	histLabels    []string
	families      []familyLabels
}

type familyLabels struct {
	prefix string
	labels []string
}

func parseLintRules(args []string) (lintRules, error) {
	var r lintRules
	fs := flag.NewFlagSet("PROM_LINT", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.IntVar(&r.minHistograms, "min-histograms", 0, "")
	fs.Func("require-labels", "", func(v string) error {
		r.histLabels = splitLabels(v)
		return nil
	})
	fs.Func("require-family-labels", "", func(v string) error {
		prefix, list, _ := strings.Cut(v, ":")
		req := familyLabels{strings.TrimSpace(prefix), splitLabels(list)}
		if req.prefix == "" || len(req.labels) == 0 {
			return fmt.Errorf("want PREFIX:LABEL[,LABEL...], got %q", v)
		}
		r.families = append(r.families, req)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return r, err
	}
	if fs.NArg() > 0 {
		return r, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return r, nil
}

func splitLabels(list string) []string {
	var out []string
	for _, l := range strings.Split(list, ",") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}

func (r lintRules) check(exp *Exposition) error {
	if n := exp.Histograms(); n < r.minHistograms {
		return fmt.Errorf("%d histogram families, want >= %d", n, r.minHistograms)
	}
	for _, name := range exp.Order {
		if fam := exp.Families[name]; fam.Type == "histogram" {
			if err := requireLabels(fam, r.histLabels); err != nil {
				return err
			}
		}
	}
	for _, req := range r.families {
		matched := 0
		for _, name := range exp.Order {
			fam := exp.Families[name]
			if !strings.HasPrefix(name, req.prefix) || len(fam.Samples) == 0 {
				continue
			}
			matched++
			if err := requireLabels(fam, req.labels); err != nil {
				return err
			}
		}
		if matched == 0 {
			return fmt.Errorf("no family named %s* has samples (required labels %s)",
				req.prefix, strings.Join(req.labels, ","))
		}
	}
	return nil
}

func requireLabels(fam *ParsedFamily, labels []string) error {
	for _, s := range fam.Samples {
		for _, l := range labels {
			if _, ok := s.Labels[l]; !ok {
				return fmt.Errorf("%s %s: sample %s with labels %v lacks required label %q",
					fam.Type, fam.Name, s.Name, s.Labels, l)
			}
		}
	}
	return nil
}

// TestLintScrape lints the scrape saved in the file PROM_SCRAPE names: it
// must parse under Parse and meet the lintRules PROM_LINT gives. It skips
// when PROM_SCRAPE is unset. CI runs it against the live daemon:
//
//	curl -sf localhost:8714/metrics > m.txt
//	PROM_SCRAPE=$PWD/m.txt PROM_LINT='-min-histograms 5 -require-labels dataset' \
//	    go test -count=1 -run TestLintScrape ./internal/obs/prom
func TestLintScrape(t *testing.T) {
	path := os.Getenv("PROM_SCRAPE")
	if path == "" {
		t.Skip("PROM_SCRAPE is unset; nothing to lint")
	}
	rules, err := parseLintRules(strings.Fields(os.Getenv("PROM_LINT")))
	if err != nil {
		t.Fatalf("PROM_LINT: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	exp, err := Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := rules.check(exp); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	samples := 0
	for _, fam := range exp.Families {
		samples += len(fam.Samples)
	}
	t.Logf("%s ok: %d families (%d histograms), %d samples",
		path, len(exp.Families), exp.Histograms(), samples)
}
