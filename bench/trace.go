package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans live in the benchmark only:
// the program under test is timed from outside.
type span struct {
	name       string
	op         int // the traced op this span belongs to
	id, parent int // parent is -1 for a root span
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same pipeline code runs traced and untraced.
//
// The traced pass is sequential (one op at a time, every call on the
// calling goroutine), so the innermost open span is the parent of the next
// one and no locking is needed.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef closes the span it was returned for.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) begin(name string, op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, id: id, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return spanRef{t, id}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := time.Since(r.t.t0)
	r.t.spans[r.id].end = now
	for i := len(r.t.open) - 1; i >= 0; i-- {
		if r.t.open[i] == r.id {
			r.t.open = append(r.t.open[:i], r.t.open[i+1:]...)
			break
		}
	}
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) and the number of spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return
	}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for _, s := range t.spans {
		self[s.name] += s.end - s.start - children[s.id]
		count[s.name]++
	}
	return
}

// rootTime sums the duration of root spans: the traced wall covered by
// any span at all.
func (t *tracer) rootTime() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events; load in chrome://tracing or ui.perfetto.dev). Each op is its own
// track so its spans nest visibly.
func (t *tracer) writeChrome(path string, host hostRecord) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans := append([]span(nil), t.spans...)
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": host})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
