package gpu

import "testing"

// TestPerturbationMatrix checks the matrix shape: every resource appears
// in both directions, IDs are unique, and exactly one direction of each
// resource is marked as helping.
func TestPerturbationMatrix(t *testing.T) {
	ps := Perturbations()
	if want := 2 * len(ResourceNames()); len(ps) != want {
		t.Fatalf("matrix has %d entries, want %d", len(ps), want)
	}
	seen := map[string]bool{}
	helping := map[string]int{}
	for _, p := range ps {
		if seen[p.ID()] {
			t.Errorf("duplicate perturbation %s", p.ID())
		}
		seen[p.ID()] = true
		if p.Direction != "up" && p.Direction != "down" {
			t.Errorf("%s: bad direction %q", p.ID(), p.Direction)
		}
		if (p.Direction == "up") != (p.Factor > 1) {
			t.Errorf("%s: direction/factor mismatch (factor %g)", p.ID(), p.Factor)
		}
		if p.Helps {
			helping[p.Resource]++
		}
	}
	for _, r := range ResourceNames() {
		if helping[r] != 1 {
			t.Errorf("resource %s has %d helping directions, want 1", r, helping[r])
		}
	}
}

// TestPerturbationApply checks each resource actually moves, in the right
// direction, and that nothing else about the arch changes.
func TestPerturbationApply(t *testing.T) {
	base := V100()
	for _, p := range Perturbations() {
		a := p.Apply(base)
		read := func(arch Arch) float64 {
			switch p.Resource {
			case ResourceL1Capacity:
				return float64(arch.L1Bytes)
			case ResourceL2Capacity:
				return float64(arch.L2Bytes)
			case ResourceDRAMLatency:
				return float64(arch.DRAMLatency)
			case ResourceDRAMBandwidth:
				return arch.DRAMBWBytes
			case ResourceSharedBanks:
				return float64(arch.SharedBanks)
			case ResourceIssueWidth:
				return float64(arch.NumSchedulers)
			}
			t.Fatalf("unknown resource %s", p.Resource)
			return 0
		}
		before, after := read(base), read(a)
		if p.Factor > 1 && after <= before {
			t.Errorf("%s: %g -> %g did not grow", p.ID(), before, after)
		}
		if p.Factor < 1 && after >= before {
			t.Errorf("%s: %g -> %g did not shrink", p.ID(), before, after)
		}
		// Restore the one field and compare: nothing else may move.
		restored := a
		switch p.Resource {
		case ResourceL1Capacity:
			restored.L1Bytes = base.L1Bytes
		case ResourceL2Capacity:
			restored.L2Bytes = base.L2Bytes
		case ResourceDRAMLatency:
			restored.DRAMLatency = base.DRAMLatency
		case ResourceDRAMBandwidth:
			restored.DRAMBWBytes = base.DRAMBWBytes
		case ResourceSharedBanks:
			restored.SharedBanks = base.SharedBanks
		case ResourceIssueWidth:
			restored.NumSchedulers = base.NumSchedulers
		}
		if restored != base {
			t.Errorf("%s: perturbation touched more than its resource", p.ID())
		}
	}
}

// TestPerturbationClamps covers the integer floors: scaling tiny values
// down must not produce degenerate hardware.
func TestPerturbationClamps(t *testing.T) {
	a := V100()
	a.SharedBanks = 1
	a.NumSchedulers = 1
	down := Perturbation{Resource: ResourceSharedBanks, Direction: "down", Factor: 0.5}
	if got := down.Apply(a).SharedBanks; got != 1 {
		t.Errorf("banks clamped to %d, want 1", got)
	}
	up := Perturbation{Resource: ResourceIssueWidth, Direction: "up", Factor: 2}
	a.NumSchedulers = 8
	if got := up.Apply(a).NumSchedulers; got != 8 {
		t.Errorf("schedulers = %d, want picker-width clamp at 8", got)
	}
}
