// Package telemetry is Portus's dependency-free observability layer: a
// registry of atomic counters, scrape-time sampled gauges, and
// fixed-bucket latency histograms with quantile estimation, plus lightweight trace spans for
// the checkpoint/restore lifecycle and a ring buffer of recently
// completed traces.
//
// Everything is clock-agnostic: durations are observed as values the
// caller computed from its sim.Env clock, so simulated runs report
// virtual-time latencies and TCP deployments report wall-clock ones
// through the same instruments.
//
// The registry renders in the Prometheus text exposition format (served
// by the daemon's admin endpoint); ParseText reads the same format back,
// which is how portusctl renders live stats tables.
//
// Every exported number has exactly one accumulator. A counter or
// histogram is the accumulator; a gauge is never set by hand but
// sampled (GaugeFunc) from the state it reports, so it cannot drift
// from that state.
//
// All metric handles are nil-safe: methods on a nil *Counter or
// *Histogram are no-ops, so instrumented code paths need no "is
// telemetry enabled" branches.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metric is one exported series inside a family.
type metric interface {
	// writeSeries renders the series' sample lines. labels is the
	// pre-rendered label body ("" or `k="v",...`).
	writeSeries(w io.Writer, name, labels string)
}

func (c *Counter) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
}

// counterFunc samples an externally owned value at scrape time (e.g.
// the PMem device's flush counters, the scheduler's queue depth).
type counterFunc struct {
	fn func() float64
}

func (c counterFunc) writeSeries(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(c.fn()))
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, "+Inf"/"-Inf"/"NaN" spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// family is all series sharing one metric name.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          map[string]metric // keyed by rendered label body
	order           []string          // label bodies in registration order
}

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. The zero value is not usable;
// create one with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily returns (creating if needed) the family for name, checking
// the type is consistent across registrations.
func (r *Registry) getFamily(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s, was %s", name, typ, f.typ))
	}
	return f
}

// renderLabels produces the canonical label body: keys sorted, values
// escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// getOrCreate returns the series for labels inside f, creating it with
// mk on first use.
func (f *family) getOrCreate(labels []Label, mk func() metric) metric {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// Counter returns the counter for (name, labels), registering it on
// first use. Repeated calls with the same identity return the same
// handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, "counter")
	return f.getOrCreate(labels, func() metric { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is sampled from fn at
// scrape time — for cumulative values owned by another component.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, "counter")
	f.getOrCreate(labels, func() metric { return counterFunc{fn: fn} })
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time — for instantaneous values owned by another component (e.g. the
// scheduler's queue depth).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, "gauge")
	f.getOrCreate(labels, func() metric { return counterFunc{fn: fn} })
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (nil = DefLatencyBuckets). Bounds are fixed at
// first registration; later calls reuse the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.getFamily(name, help, "histogram")
	return f.getOrCreate(labels, func() metric { return newHistogram(bounds) }).(*Histogram)
}

// WritePrometheus renders every registered family in the text
// exposition format, families sorted by name, series in registration
// order. Each family's series list is copied under its lock and
// rendered after it: a func series samples state that has its own lock
// (the scheduler's), and that lock's holder may be registering a
// series in this same family, so sampling under the family lock could
// deadlock against it.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		series := make([]metric, len(keys))
		for i, key := range keys {
			series[i] = f.series[key]
		}
		f.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i, key := range keys {
			series[i].writeSeries(w, f.name, key)
		}
	}
}
