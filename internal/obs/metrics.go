// Package obs is GridSAT's dependency-free observability layer: atomic
// counters, gauges, and bounded histograms collected in a Registry with
// Prometheus text and JSON snapshot exposition, plus an HTTP
// introspection handler. Logs go through the standard library's log/slog.
//
// The paper's EveryWare instrumentation cost up to 50% of solver
// throughput, forcing timed experiments to run blind (§4.1). This package
// is the always-on replacement: metric handles are plain atomics that
// callers cache once and increment off the solver's hot path (the solver
// keeps plain Stats fields; clients ship their deltas in heartbeats and
// the master adds them here), so runs need not go blind.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram (Prometheus style):
// bucket i counts observations <= bounds[i], with an implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefaultLatencyBounds covers microseconds to minutes, for wall-clock
// latencies measured in seconds.
func DefaultLatencyBounds() []float64 {
	return []float64{1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 60, 300}
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type series struct {
	labels []Label
	metric any // *Counter, *Gauge, or *Histogram
}

// family groups every series of one metric name (same type and help).
type family struct {
	name   string
	help   string
	typ    metricType
	bounds []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series // keyed by rendered label set
}

// Registry holds named metric families. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use, but
// hot paths should call Counter/Gauge/Histogram once and cache the
// returned handle rather than looking it up per event.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter returns (creating if needed) the counter for name+labels.
// Panics if name is already registered as a different metric type.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getSeries(name, help, typeCounter, nil, labels)
	return s.metric.(*Counter)
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.getSeries(name, help, typeGauge, nil, labels)
	return s.metric.(*Gauge)
}

// Histogram returns (creating if needed) the histogram for name+labels.
// bounds must be sorted ascending; they are fixed by the first caller.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	s := r.getSeries(name, help, typeHistogram, bounds, labels)
	return s.metric.(*Histogram)
}

func (r *Registry) getSeries(name, help string, typ metricType, bounds []float64, labels []Label) *series {
	fam := r.getFamily(name, help, typ, bounds)
	key := labelKey(labels)
	fam.mu.RLock()
	s := fam.series[key]
	fam.mu.RUnlock()
	if s != nil {
		return s
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if s = fam.series[key]; s != nil {
		return s
	}
	s = &series{labels: sortedLabels(labels)}
	switch typ {
	case typeCounter:
		s.metric = &Counter{}
	case typeGauge:
		s.metric = &Gauge{}
	case typeHistogram:
		h := &Histogram{bounds: fam.bounds}
		h.counts = make([]atomic.Int64, len(fam.bounds)+1)
		s.metric = h
	}
	fam.series[key] = s
	return s
}

func (r *Registry) getFamily(name, help string, typ metricType, bounds []float64) *family {
	r.mu.RLock()
	fam := r.fams[name]
	r.mu.RUnlock()
	if fam == nil {
		r.mu.Lock()
		if fam = r.fams[name]; fam == nil {
			fam = &family{name: name, help: help, typ: typ, bounds: bounds,
				series: map[string]*series{}}
			r.fams[name] = fam
		}
		r.mu.Unlock()
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s",
			name, fam.typ, typ))
	}
	return fam
}

// families returns the families sorted by name (for exposition).
func (r *Registry) families() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// orderedSeries returns a family's series sorted by label key.
func (f *family) orderedSeries() []*series {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	f.mu.RUnlock()
	return out
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// labelKey renders labels in Prometheus form, sorted by key; empty labels
// render as "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
