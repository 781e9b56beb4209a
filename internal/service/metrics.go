package service

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is a minimal hand-rolled metrics library — just enough for
// gpuscoutd's /metrics endpoint to speak the Prometheus text exposition
// format (v0.0.4) while keeping go.mod dependency-free. Instruments are
// registered once at service construction; observation paths are
// lock-free (counters, gauges) or take one short mutex (histograms).

// Label is one metric label pair.
type Label struct {
	Name, Value string
}

// Registry holds instrument families and renders them in registration
// order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string
	series          []renderer
}

type renderer interface {
	render(w io.Writer, name string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// familyFor finds or creates the family for name, enforcing that a
// metric name maps to exactly one type and help string.
func (r *Registry) familyFor(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("service: metric %s registered as both %s and %s", name, f.typ, typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) add(r *Registry, s renderer) {
	r.mu.Lock()
	f.series = append(f.series, s)
	r.mu.Unlock()
}

// WritePrometheus renders every registered instrument.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.render(w, f.name)
		}
	}
}

// --- Counter ---

// Counter is a monotonically increasing integer counter.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// NewCounter registers a counter series.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{labels: labelString(labels)}
	r.familyFor(name, help, "counter").add(r, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.v.Load())
}

// --- Gauge ---

// Gauge is a settable instantaneous value.
type Gauge struct {
	labels string
	bits   atomic.Uint64 // float64 bits
}

// NewGauge registers a gauge series.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{labels: labelString(labels)}
	r.familyFor(name, help, "gauge").add(r, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (use a negative delta to decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, g.labels, formatFloat(g.Value()))
}

// gaugeFunc samples its value at scrape time (queue depth, cache size).
type gaugeFunc struct {
	labels string
	fn     func() float64
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.familyFor(name, help, "gauge").add(r, &gaugeFunc{labels: labelString(labels), fn: fn})
}

func (g *gaugeFunc) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, g.labels, formatFloat(g.fn()))
}

// --- Histogram ---

// DefSecondsBuckets is the default latency bucket layout, in seconds.
var DefSecondsBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram observes values into cumulative buckets.
type Histogram struct {
	labels []Label
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []uint64  // per-bound (non-cumulative)
	inf    uint64
	sum    float64
	count  uint64
}

// NewHistogram registers a histogram series. bounds must be ascending;
// nil selects DefSecondsBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	h := &Histogram{
		labels: append([]Label(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)),
	}
	r.familyFor(name, help, "histogram").add(r, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

func (h *Histogram) render(w io.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			labelString(append(append([]Label(nil), h.labels...), Label{"le", formatFloat(b)})), cum)
	}
	cum += h.inf
	fmt.Fprintf(w, "%s_bucket%s %d\n", name,
		labelString(append(append([]Label(nil), h.labels...), Label{"le", "+Inf"})), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(h.labels), formatFloat(h.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(h.labels), h.count)
}

// --- rendering helpers ---

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	// %g keeps integers short ("3") and floats precise enough for scrapes.
	return fmt.Sprintf("%g", v)
}
