package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is a minimal hand-rolled metrics library — just enough for
// gpuscoutd's /metrics endpoint to speak the Prometheus text exposition
// format (v0.0.4) while keeping go.mod dependency-free. Instruments are
// registered once at service construction; observation paths are
// lock-free (counters) or take one short mutex (histograms).

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

// Instrument is one row of an instrument table: a plain counter stored
// through Counter, or a gauge whose value Read returns at scrape time.
type Instrument struct {
	Name, Help string
	Counter    **Counter
	Read       func() float64
}

// Register registers one family per row of an instrument table.
func (r *Registry) Register(table ...Instrument) {
	for _, in := range table {
		if in.Read != nil {
			r.NewGaugeFunc(in.Name, in.Help, in.Read)
		} else {
			*in.Counter = r.NewCounter(in.Name, in.Help)
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

// NewCounterVec registers one counter family with a series per value of
// its one label, each rendered from zero, keyed by value.
func (r *Registry) NewCounterVec(name, help, label string, values ...string) map[string]*Counter {
	vec := make(map[string]*Counter, len(values))
	for _, v := range values {
		vec[v] = r.NewCounter(name, help, Label{label, v})
	}
	return vec
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

// RegisterRuntimeGauges exposes Go runtime state, read on scrape only.
// Both gpuscoutd roles register it: a worker in New, the coordinator in
// cluster.New.
func RegisterRuntimeGauges(r *Registry) {
	read := func(name string) float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			return float64(s[0].Value.Uint64())
		}
		return s[0].Value.Float64()
	}
	r.NewGaugeFunc("gpuscoutd_go_goroutines", "Goroutines that currently exist.",
		func() float64 { return read("/sched/goroutines:goroutines") })
	r.NewGaugeFunc("gpuscoutd_go_heap_inuse_bytes", "Bytes in in-use heap spans: objects plus fragmentation.",
		func() float64 {
			return read("/memory/classes/heap/objects:bytes") + read("/memory/classes/heap/unused:bytes")
		})
	r.NewGaugeFunc("gpuscoutd_go_gc_cycles_total", "Completed GC cycles since the process started.",
		func() float64 { return read("/gc/cycles/total:gc-cycles") })
	r.NewGaugeFunc("gpuscoutd_go_gc_pause_seconds_total", "Wall time the GC has stopped the world (pause CPU time over GOMAXPROCS).",
		func() float64 { return read("/cpu/classes/gc/pause:cpu-seconds") / float64(runtime.GOMAXPROCS(0)) })
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
