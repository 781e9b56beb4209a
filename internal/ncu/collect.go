package ncu

import (
	"encoding/json"
	"fmt"
	"sort"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
)

// siteCollect is the fault-injection site covering metric collection.
var siteCollect = faultinject.Register("ncu.collect")

// MetricSet is the outcome of one modeled ncu collection run.
type MetricSet struct {
	Kernel string
	// Values holds the computed metric values by name.
	Values map[string]float64
	// Passes is how many kernel replays the collection needed; ncu groups
	// metrics into hardware-counter passes and replays the kernel once
	// per pass.
	Passes int
	// OverheadCycles is the modeled wall cost of the collection in SM
	// cycles: the dominant contributor to GPUscout's overhead (Fig. 6).
	OverheadCycles float64
}

// Collector models the ncu CLI on one architecture.
type Collector struct {
	Arch gpu.Arch
}

// The replay cost structure of a collection run.
const (
	// metricsPerPass is how many metrics fit in one replay pass
	// (hardware counter multiplexing).
	metricsPerPass = 8
	// replayFactor is the slowdown of one profiled replay relative to the
	// bare kernel (serialization, cache-control, counter readout).
	replayFactor = 5
	// fixedCyclesPerPass models per-pass setup/teardown (~3 ms at V100
	// clocks).
	fixedCyclesPerPass = 4e6
)

// Collect computes the named metrics for a finished launch. It fails on
// unknown metric names and on architectures ncu does not support
// (Pascal and older — the situation GPUscout's --dry-run exists for).
func (c Collector) Collect(ctx Context, names []string) (*MetricSet, error) {
	if err := faultinject.Hit(siteCollect); err != nil {
		return nil, fmt.Errorf("ncu: %w", err)
	}
	if !c.Arch.SupportsNCU() {
		return nil, fmt.Errorf("ncu: architecture %s (%s) is not supported by Nsight Compute; use the static (dry-run) analysis", c.Arch.Name, c.Arch.SM)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("ncu: no metrics requested")
	}
	seen := map[string]bool{}
	ms := &MetricSet{Kernel: ctx.Kernel.Name, Values: map[string]float64{}}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		v, err := Value(n, ctx)
		if err != nil {
			return nil, err
		}
		ms.Values[n] = v
	}
	uniq := len(ms.Values)
	ms.Passes = (uniq + metricsPerPass - 1) / metricsPerPass
	ms.OverheadCycles = float64(ms.Passes) * (ctx.Result.Cycles*replayFactor + fixedCyclesPerPass)
	return ms, nil
}

// Get returns a collected value, with presence indication.
func (ms *MetricSet) Get(name string) (float64, bool) {
	v, ok := ms.Values[name]
	return v, ok
}

// SortedNames lists the collected metric names, sorted.
func (ms *MetricSet) SortedNames() []string {
	out := make([]string, 0, len(ms.Values))
	for n := range ms.Values {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MarshalJSON is the set's wire form: its value map. The rest stays in
// memory; a report carries the collection's cost in its overhead block.
func (ms *MetricSet) MarshalJSON() ([]byte, error) { return json.Marshal(ms.Values) }

// UnmarshalJSON reads the wire form back.
func (ms *MetricSet) UnmarshalJSON(data []byte) error { return json.Unmarshal(data, &ms.Values) }
