// Package prom is a dependency-free Prometheus exposition layer: labeled
// counter, gauge, and histogram families rendered in the Prometheus text
// format (version 0.0.4) with # HELP and # TYPE comments.
//
// The package exists because the serving plane's throughput claims are
// latency-distribution claims: whether variant-level parallelism keeps every
// core busy shows up in the *tails* of queue-wait and batch-run time, which
// monotonic counters cannot express. Histograms here are built for the
// service hot path:
//
//   - Observe is lock-free: a binary search over the fixed bucket bounds,
//     one atomic increment, and one CAS-loop float add for the sum. No
//     allocation, no mutex, no channel.
//   - Label lookup (Vec.With) takes a read lock on the children map and is
//     meant to be cached by callers on hot paths; families are expected to
//     have low label cardinality (datasets, index kinds, tiled on/off).
//   - Rendering walks a consistent snapshot under the registry lock;
//     cumulative bucket counts are computed at render time, so the
//     monotonicity invariant of the _bucket series holds by construction.
//
// The format contract (HELP/TYPE present, escaping, le ordering, _count ==
// +Inf bucket) is enforced by a strict parser in this package's tests,
// which CI also runs against the live /metrics output (TestLintScrape).
package prom

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType enumerates the exposition types this package renders.
type MetricType int

// Metric types, named as in the TYPE comment they render to.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

// String implements fmt.Stringer with the text-format spelling.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricType(%d)", int(t))
	}
}

// atomicFloat is a float64 with atomic Add/Set/Load via bit casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) {
	f.bits.Store(math.Float64bits(v))
}
func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Registry holds metric families in registration order and renders them.
// All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

// family is one named metric family: a fixed label-name schema and its
// children (one per distinct label-value tuple).
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	bounds []float64 // histogram upper bounds, sorted, +Inf implicit

	fn func() float64 // GaugeFunc callback (no children, no labels)

	mu       sync.RWMutex
	children map[string]*Metric
}

func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic("prom: invalid metric name " + strconv.Quote(f.name))
	}
	for _, l := range f.labels {
		if !validLabel(l) {
			panic("prom: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic("prom: duplicate metric name " + strconv.Quote(f.name))
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
	return f
}

// Counter registers a counter family with the given label names and returns
// its Vec. A counter only goes up (Add panics on negative deltas).
func (r *Registry) Counter(name, help string, labels ...string) *Vec {
	f := r.register(&family{name: name, help: help, typ: TypeCounter,
		labels: labels, children: map[string]*Metric{}})
	return &Vec{f: f}
}

// Gauge registers a gauge family (Set/Add/Sub allowed) and returns its Vec.
func (r *Registry) Gauge(name, help string, labels ...string) *Vec {
	f := r.register(&family{name: name, help: help, typ: TypeGauge,
		labels: labels, children: map[string]*Metric{}})
	return &Vec{f: f}
}

// Histogram registers a fixed-bucket histogram family. buckets are the
// upper bounds (le values) in strictly increasing order; the +Inf bucket is
// implicit. The slice is copied.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Vec {
	if len(buckets) == 0 {
		panic("prom: histogram " + name + " needs at least one bucket")
	}
	b := append([]float64(nil), buckets...)
	for i := range b {
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			panic("prom: histogram " + name + " has a non-finite bucket bound")
		}
		if i > 0 && b[i] <= b[i-1] {
			panic("prom: histogram " + name + " buckets not strictly increasing")
		}
	}
	f := r.register(&family{name: name, help: help, typ: TypeHistogram,
		labels: labels, bounds: b, children: map[string]*Metric{}})
	return &Vec{f: f}
}

// GaugeFunc registers an unlabeled gauge read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeGauge, fn: fn})
}

// Vec is the handle of one registered family; With resolves a child metric
// for a concrete label-value tuple.
type Vec struct{ f *family }

// With returns the child for the given label values (created on first use).
// The number of values must match the family's label names; hot paths
// should cache the returned *Metric rather than re-resolving per event.
func (v *Vec) With(values ...string) *Metric {
	f := v.f
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("prom: %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.children[key]; ok {
		return m
	}
	m = &Metric{f: f, labelValues: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		m.buckets = make([]atomic.Uint64, len(f.bounds)+1)
	}
	f.children[key] = m
	return m
}

// Metric is one child time series (a concrete label-value tuple).
type Metric struct {
	f           *family
	labelValues []string

	val     atomicFloat     // counter/gauge value, histogram sum
	buckets []atomic.Uint64 // histogram: per-bucket (non-cumulative), +Inf last
}

// Inc adds 1 to a counter or gauge.
func (m *Metric) Inc() { m.Add(1) }

// Add adds delta to a counter (delta must be >= 0) or gauge.
func (m *Metric) Add(delta float64) {
	switch m.f.typ {
	case TypeCounter:
		if delta < 0 {
			panic("prom: counter " + m.f.name + " decreased")
		}
	case TypeHistogram:
		panic("prom: Add on histogram " + m.f.name)
	}
	m.val.Add(delta)
}

// Set sets a gauge's value.
func (m *Metric) Set(v float64) {
	if m.f.typ != TypeGauge {
		panic("prom: Set on non-gauge " + m.f.name)
	}
	m.val.Store(v)
}

// Observe records one histogram observation: lock-free (one atomic bucket
// increment plus a CAS float add to the sum).
func (m *Metric) Observe(v float64) {
	if m.f.typ != TypeHistogram {
		panic("prom: Observe on non-histogram " + m.f.name)
	}
	// Binary search for the first bound >= v; misses land in +Inf.
	b := m.f.bounds
	i := sort.SearchFloat64s(b, v)
	// SearchFloat64s returns the first index with b[i] >= v, which is
	// exactly the le semantics (v <= bound); NaN observations land in +Inf.
	if math.IsNaN(v) {
		i = len(b)
	}
	m.buckets[i].Add(1)
	m.val.Add(v)
}

// Value returns the current counter/gauge value (histogram: the sum).
func (m *Metric) Value() float64 { return m.val.Load() }

// Count returns a histogram child's total observation count.
func (m *Metric) Count() uint64 {
	var n uint64
	for i := range m.buckets {
		n += m.buckets[i].Load()
	}
	return n
}

// ---- rendering ----------------------------------------------------------

// Write renders every registered family in the Prometheus text format.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	bw := &errWriter{w: w}
	for _, f := range fams {
		f.write(bw)
		if bw.err != nil {
			return bw.err
		}
	}
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}

func (f *family) write(w *errWriter) {
	if f.help != "" {
		w.printf("# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	w.printf("# TYPE %s %s\n", f.name, f.typ)
	if f.fn != nil {
		w.printf("%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	f.mu.RLock()
	children := make([]*Metric, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()
	for _, m := range children {
		switch f.typ {
		case TypeHistogram:
			m.writeHistogram(w)
		default:
			w.printf("%s%s %s\n", f.name, labelString(f.labels, m.labelValues, "", 0),
				formatValue(m.val.Load()))
		}
	}
}

func (m *Metric) writeHistogram(w *errWriter) {
	f := m.f
	// Snapshot buckets first, then the sum: a concurrent Observe between the
	// two can only make sum cover >= the counted observations, never fewer.
	counts := make([]uint64, len(m.buckets))
	for i := range m.buckets {
		counts[i] = m.buckets[i].Load()
	}
	sum := m.val.Load()
	var cum uint64
	for i, bound := range f.bounds {
		cum += counts[i]
		w.printf("%s_bucket%s %d\n", f.name,
			labelString(f.labels, m.labelValues, "le", bound), cum)
	}
	cum += counts[len(counts)-1]
	w.printf("%s_bucket%s %d\n", f.name,
		labelString(f.labels, m.labelValues, "le", math.Inf(1)), cum)
	w.printf("%s_sum%s %s\n", f.name,
		labelString(f.labels, m.labelValues, "", 0), formatValue(sum))
	w.printf("%s_count%s %d\n", f.name,
		labelString(f.labels, m.labelValues, "", 0), cum)
}

// labelString renders a {name="value",...} block, optionally appending an
// le label (leName != ""). Returns "" for an empty label set.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(leName)
		sb.WriteString(`="`)
		sb.WriteString(formatLe(le))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatValue renders a sample value: integral floats without an exponent
// (so counters read naturally), everything else in Go's shortest 'g' form,
// which the text format accepts.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 && !math.Signbit(v) || (v == math.Trunc(v) && v < 0 && v > -1e15) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket bound ("+Inf" for the overflow bucket).
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ---- bucket helpers -----------------------------------------------------

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor (> 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("prom: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default seconds scale for service latencies:
// 500µs to ~2 minutes, a factor ~2.5 apart.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}
