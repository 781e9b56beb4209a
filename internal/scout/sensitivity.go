package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
)

// NeutralSensitivity is the relief band below which no resource is named
// dominant: a perturbation must buy at least 2% — the same noise band the
// counterfactual verifier uses (Grade) — before the sweep attributes the
// bottleneck to its resource.
const NeutralSensitivity = 1.02

// ResourceDelta is one run of the sensitivity matrix: the kernel
// re-simulated with a single hardware resource scaled, and how its cycle
// count moved.
type ResourceDelta struct {
	// Resource and Direction identify the perturbation (gpu.Perturbation).
	Resource  string  `json:"resource"`
	Direction string  `json:"direction"`
	Factor    float64 `json:"factor"`
	// Cycles is the perturbed run's kernel duration.
	Cycles float64 `json:"cycles"`
	// Delta is Cycles - baseline (positive = the perturbation hurt).
	Delta float64 `json:"delta"`
	// Helps records whether this direction relieves the resource.
	Helps bool `json:"helps"`
}

// Relief returns baseline/Cycles — the speedup the perturbation bought
// (>1 = the kernel ran faster under it).
func (d ResourceDelta) Relief(baseline float64) float64 {
	if d.Cycles <= 0 {
		return 0
	}
	return baseline / d.Cycles
}

// Sensitivity is the result of a microarchitectural sensitivity sweep
// (Pompougnac et al.): the kernel re-simulated under each perturbation of
// the gpu.Perturbations matrix. The resource whose *helping* direction
// moves cycles most is the dominant bottleneck; if no helping perturbation
// clears the neutral band, the kernel is not bound by any swept resource.
type Sensitivity struct {
	// BaselineCycles is the unperturbed kernel duration.
	BaselineCycles float64 `json:"baseline_cycles"`
	// Deltas lists every perturbation run in matrix order.
	Deltas []ResourceDelta `json:"deltas"`
	// Dominant names the bottleneck resource ("" when nothing clears the
	// neutral band).
	Dominant string `json:"dominant,omitempty"`
	// DominantRelief is the speedup the dominant resource's helping
	// perturbation bought (1 when Dominant is "").
	DominantRelief float64 `json:"dominant_relief,omitempty"`
}

// Rank recomputes Dominant/DominantRelief from Deltas: the helping
// perturbation with the largest relief, ties broken by matrix order. The
// advisor calls it after filling Deltas; FilterFor calls it on the
// filtered view.
func (s *Sensitivity) Rank() {
	s.Dominant, s.DominantRelief = "", 1
	best := 0.0
	for _, d := range s.Deltas {
		if !d.Helps {
			continue
		}
		if r := d.Relief(s.BaselineCycles); r > best {
			best = r
			if r >= NeutralSensitivity {
				s.Dominant, s.DominantRelief = d.Resource, r
			}
		}
	}
}

// FilterFor returns the per-finding view of the sweep: only the resources
// the finding's analysis can plausibly be bound by, with the dominant
// resource recomputed among them. A vectorization finding never blames
// shared-memory banks, and a bank-conflict finding never blames DRAM.
func (s *Sensitivity) FilterFor(analysis string) *Sensitivity {
	if s == nil {
		return nil
	}
	desc, known := detectors[analysis]
	if !known { // an analysis the core does not know keeps every resource
		desc.Resources = gpu.ResourceNames()
	}
	keep := map[string]bool{}
	for _, r := range desc.Resources {
		keep[r] = true
	}
	out := &Sensitivity{BaselineCycles: s.BaselineCycles}
	for _, d := range s.Deltas {
		if keep[d.Resource] {
			out.Deltas = append(out.Deltas, d)
		}
	}
	out.Rank()
	return out
}

// Summary is the one-line dominant-resource statement for reports.
func (s *Sensitivity) Summary() string {
	if s.Dominant == "" {
		return fmt.Sprintf("no dominant resource: no perturbation relieves more than %.0f%% of cycles",
			100*(NeutralSensitivity-1))
	}
	return fmt.Sprintf("dominant resource: %s — relieving it runs the kernel %.2fx faster",
		s.Dominant, s.DominantRelief)
}

// SliceStep is one instruction on a rendered backward stall slice.
type SliceStep struct {
	PC    uint64 `json:"pc"`
	Line  int    `json:"line"`
	File  string `json:"file"`
	Depth int    `json:"depth"`         // def-use hops from the stalled instruction (0 = itself)
	Reg   string `json:"reg,omitempty"` // register whose definition pulled this step in ("" at root)
	SASS  string `json:"sass"`
}

// StallSlice is the LEO-style causal explanation of one high-stall PC:
// the ordered producer chain (program order) from address arithmetic
// through the load to the stalled consumer. The stall surfaces at the
// consumer; the cause is upstream.
type StallSlice struct {
	// PC/Line locate the stalled instruction the slice explains.
	PC   uint64 `json:"pc"`
	Line int    `json:"line"`
	// Stall names the dominant stall reason sampled at PC.
	Stall string `json:"stall"`
	// Samples counts the (non-bookkeeping) stall samples at PC.
	Samples float64 `json:"samples"`
	// Steps is the backward slice in program order; the stalled
	// instruction is the Depth-0 step.
	Steps []SliceStep `json:"steps"`
}
