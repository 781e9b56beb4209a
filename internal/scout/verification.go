package scout

import "fmt"

// Verdict is the outcome of counterfactually verifying a recommendation:
// the paired optimized kernel was actually re-executed, so the verdict is
// a measurement, not an estimate (contrast GPA's projected speedups).
type Verdict string

const (
	// VerdictConfirmed: the optimized variant ran measurably faster.
	VerdictConfirmed Verdict = "confirmed"
	// VerdictNeutral: the change made no measurable difference (within
	// the ±2% noise band), like the paper's "+0.3%" __restrict__ result
	// on Jacobi (§5.2).
	VerdictNeutral Verdict = "neutral"
	// VerdictRefuted: the "fix" regressed — e.g. shared-memory staging
	// whose halo overhead is not amortized at a small problem size.
	VerdictRefuted Verdict = "refuted"
)

// MetricDelta is one ncu metric measured before (on the analyzed kernel)
// and after (on the optimized variant).
type MetricDelta struct {
	Name   string  `json:"name"`
	Before float64 `json:"before"`
	After  float64 `json:"after"`
}

// Delta returns the relative change in percent (0 when Before is 0).
func (d MetricDelta) Delta() float64 {
	if d.Before == 0 {
		return 0
	}
	return 100 * (d.After - d.Before) / d.Before
}

// StallDelta is one stall reason's share of kernel stalls before/after.
type StallDelta struct {
	Stall  string  `json:"stall"`
	Before float64 `json:"before"` // share of stall samples, 0..1
	After  float64 `json:"after"`
}

// Verification is the counterfactual evidence attached to a finding: the
// advisor mapped the recommendation to its optimized workload variant,
// re-ran it under the same sim.Config, and recorded what changed.
type Verification struct {
	// Workload is the baseline workload the report analyzed.
	Workload string `json:"workload"`
	// Fixed is the optimized variant that implements the recommendation.
	Fixed string `json:"fixed"`
	// Change summarizes the source-level difference between the two.
	Change string `json:"change,omitempty"`
	// BaselineCycles and FixedCycles are the measured kernel durations.
	BaselineCycles float64 `json:"baseline_cycles"`
	FixedCycles    float64 `json:"fixed_cycles"`
	// Speedup is BaselineCycles / FixedCycles (>1 = the fix helped).
	Speedup float64 `json:"speedup"`
	// Verdict grades the measurement.
	Verdict Verdict `json:"verdict"`
	// StallDeltas covers the finding's relevant stall reasons.
	StallDeltas []StallDelta `json:"stall_deltas,omitempty"`
	// MetricDeltas covers the finding's relevant and caution metrics
	// that changed.
	MetricDeltas []MetricDelta `json:"metric_deltas,omitempty"`
}

// Grade converts a measured speedup into a verdict. The ±2% band absorbs
// simulation-placement noise so tiny shifts read as "neutral".
func Grade(speedup float64) Verdict {
	switch {
	case speedup >= 1.02:
		return VerdictConfirmed
	case speedup <= 0.98:
		return VerdictRefuted
	default:
		return VerdictNeutral
	}
}

// Summary is the one-line form used in reports and logs.
func (v *Verification) Summary() string {
	return fmt.Sprintf("%s: %s -> %s runs %.2fx (%s -> %s cycles)",
		v.Verdict, v.Workload, v.Fixed, v.Speedup,
		humanCycles(v.BaselineCycles), humanCycles(v.FixedCycles))
}

func humanCycles(c float64) string {
	switch {
	case c >= 1e6:
		return fmt.Sprintf("%.3gM", c/1e6)
	case c >= 1e3:
		return fmt.Sprintf("%.3gk", c/1e3)
	default:
		return fmt.Sprintf("%.0f", c)
	}
}
