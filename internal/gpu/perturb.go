package gpu

// Perturbation is one microarchitectural what-if: a single hardware
// resource scaled by a factor, leaving everything else untouched. The
// advisor's sensitivity analysis (following Pompougnac et al.: "from
// latency sensitivity to bug hunting") re-simulates an analyzed kernel
// under each perturbation and attributes the bottleneck to the resource
// whose movement moves cycles most — a bandwidth-bound kernel barely
// notices halved DRAM latency but slows almost linearly under halved
// bandwidth, and vice versa for a latency-bound one.
type Perturbation struct {
	// Resource names the scaled resource (see ResourceNames).
	Resource string
	// Direction is "up" (resource scaled by Factor > 1) or "down".
	Direction string
	// Factor is the multiplier applied to the resource.
	Factor float64
	// Helps reports whether this direction relieves the resource:
	// more capacity, bandwidth, banks, slots — or less latency. The
	// estimated-speedup ranking only extrapolates from helping runs.
	Helps bool
}

// Canonical resource names, in matrix order.
const (
	ResourceL1Capacity    = "l1_capacity"
	ResourceL2Capacity    = "l2_capacity"
	ResourceDRAMLatency   = "dram_latency"
	ResourceDRAMBandwidth = "dram_bandwidth"
	ResourceSharedBanks   = "shared_banks"
	ResourceIssueWidth    = "issue_width"
)

// ResourceNames lists every perturbed resource in matrix order.
func ResourceNames() []string {
	return []string{
		ResourceL1Capacity,
		ResourceL2Capacity,
		ResourceDRAMLatency,
		ResourceDRAMBandwidth,
		ResourceSharedBanks,
		ResourceIssueWidth,
	}
}

// ID is the stable identifier used in reports and JSON: "resource/dir".
func (p Perturbation) ID() string { return p.Resource + "/" + p.Direction }

// Apply returns a copy of arch with the perturbation applied. Integer
// resources are clamped to stay valid (at least one cache set, one bank,
// one scheduler); the simulator further clamps the scheduler count to
// its per-SM picker width.
//
// Invariant: a perturbation moves only fields the simulator reads and
// codegen does not, so one lowering of a kernel serves the whole matrix
// (the advisor's sweep relies on it; TestSweepLoweringReuse enforces
// it). A resource only codegen reads — ISA.Scoreboards, whose control
// info the simulator never consults — cannot move cycles and has no
// place here (TestEveryPerturbationMovesSomeKernel).
// Second rule: the proof that lets sim.Recording.Finish skip a replay
// must know every field a perturbation moves (it refuses all others).
func (p Perturbation) Apply(a Arch) Arch {
	switch p.Resource {
	case ResourceL1Capacity:
		a.L1Bytes = scaleInt(a.L1Bytes, p.Factor, a.L1LineBytes*a.L1Ways)
	case ResourceL2Capacity:
		a.L2Bytes = scaleInt(a.L2Bytes, p.Factor, a.L2LineBytes*a.L2Ways)
	case ResourceDRAMLatency:
		a.DRAMLatency = scaleInt(a.DRAMLatency, p.Factor, 1)
	case ResourceDRAMBandwidth:
		a.DRAMBWBytes *= p.Factor
	case ResourceSharedBanks:
		a.SharedBanks = scaleInt(a.SharedBanks, p.Factor, 1)
	case ResourceIssueWidth:
		a.NumSchedulers = scaleInt(a.NumSchedulers, p.Factor, 1)
		if a.NumSchedulers > 8 {
			a.NumSchedulers = 8 // simulator picker width
		}
	}
	return a
}

func scaleInt(v int, factor float64, min int) int {
	out := int(float64(v) * factor)
	if out < min {
		out = min
	}
	return out
}

// Perturbations returns the full sensitivity matrix in its fixed order:
// each resource scaled up and down by 2x. The order is part of the
// report contract — sweeps iterate it as given so rendered sensitivity
// blocks are byte-stable.
func Perturbations() []Perturbation {
	var out []Perturbation
	for _, r := range ResourceNames() {
		// For latency, "up" means more cycles, which hurts; for every
		// other resource "up" means more of it, which helps.
		upHelps := r != ResourceDRAMLatency
		out = append(out,
			Perturbation{Resource: r, Direction: "up", Factor: 2, Helps: upHelps},
			Perturbation{Resource: r, Direction: "down", Factor: 0.5, Helps: !upHelps},
		)
	}
	return out
}
