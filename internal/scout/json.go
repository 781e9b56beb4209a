package scout

import (
	"encoding/json"

	"gpuscout/internal/sim"
)

// JSONReport is the machine-readable form of a Report: everything a
// frontend (the paper's planned visualization, Fig. 7) needs, without the
// internal simulator state.
type JSONReport struct {
	Kernel   string    `json:"kernel"`
	Arch     string    `json:"arch"`
	DryRun   bool      `json:"dry_run"`
	Findings []Finding `json:"findings"`

	// Degradations lists what this report lost to stage failures; absent
	// on a clean run.
	Degradations []Degradation `json:"degradations,omitempty"`

	// Dynamic data (omitted on dry runs).
	KernelCycles float64            `json:"kernel_cycles,omitempty"`
	Occupancy    float64            `json:"achieved_occupancy,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	StallShares  map[string]float64 `json:"stall_shares,omitempty"`
	HottestLines []JSONLineHeat     `json:"hottest_lines,omitempty"`

	OverheadCycles *JSONOverhead `json:"overhead_cycles,omitempty"`

	// Sensitivity is the kernel-wide perturbation sweep (present when the
	// advisor ran one).
	Sensitivity *Sensitivity `json:"sensitivity,omitempty"`
}

// JSONLineHeat mirrors LineHeat.
type JSONLineHeat struct {
	Line     int     `json:"line"`
	Source   string  `json:"source,omitempty"`
	Share    float64 `json:"share"`
	TopStall string  `json:"top_stall"`
}

// JSONOverhead is the modeled part of the Fig. 6 accounting. The host
// time of the static analysis is a wall-clock measurement and stays out
// of the document, whose bytes are a function of the request alone.
type JSONOverhead struct {
	Sampling float64 `json:"sampling"`
	Metrics  float64 `json:"metrics"`
}

// ToJSON converts the report to its serializable form. The view shares
// the report's findings and sensitivity; it does not copy them.
func (r *Report) ToJSON() *JSONReport {
	out := &JSONReport{
		Kernel:       r.Kernel,
		Arch:         r.Arch,
		DryRun:       r.DryRun,
		Findings:     r.Findings,
		Degradations: r.Degradations,
	}
	if r.DryRun {
		return out
	}
	out.KernelCycles = r.KernelCycles
	if r.Result != nil {
		out.Occupancy = r.Result.AchievedOccupancy
		out.StallShares = map[string]float64{}
		for s := sim.Stall(0); s < sim.NumStalls; s++ {
			if s == sim.StallSelected {
				continue
			}
			if share := r.Result.StallShare(s); share > 0 {
				out.StallShares[s.String()] = share
			}
		}
	}
	if r.Metrics != nil {
		out.Metrics = r.Metrics.Values
	}
	for _, h := range r.HottestLines(10) {
		out.HottestLines = append(out.HottestLines, JSONLineHeat{
			Line: h.Line, Source: h.Source, Share: h.Share, TopStall: h.TopStall.String(),
		})
	}
	out.OverheadCycles = &JSONOverhead{
		Sampling: r.OverheadSamplingCycles,
		Metrics:  r.OverheadMetricsCycles,
	}
	out.Sensitivity = r.Sensitivity
	return out
}

// MarshalJSON lets a Report be encoded directly.
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(r.ToJSON(), "", "  ")
}
