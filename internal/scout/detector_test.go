package scout

import (
	"reflect"
	"sort"
	"testing"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/workloads"
)

// scanLoads is the reference the load index is compared against: the
// grouping loop VectorLoadAnalysis and TextureAnalysis each carried before
// the index existed (scan for LDG, key on base register + reaching
// definition, sort the keys by hand), parameterized by the filter that
// was the only difference between the two copies.
func scanLoads(v *KernelView, keep func(in *sass.Inst, mem sass.Operand, i int) bool) []LoadGroup {
	k := v.Kernel
	groups := map[[2]int64]*LoadGroup{}
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Op != sass.OpLDG {
			continue
		}
		mem, ok := in.MemOperand()
		if !ok || !keep(in, mem, i) {
			continue
		}
		key := [2]int64{int64(mem.Reg), int64(v.DefUse.LastDefBefore(mem.Reg, i))}
		g := groups[key]
		if g == nil {
			g = &LoadGroup{Base: mem.Reg, Def: int(key[1])}
			groups[key] = g
		}
		g.Idxs = append(g.Idxs, i)
		g.Offs = append(g.Offs, mem.Imm)
	}
	keys := make([][2]int64, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var out []LoadGroup
	for _, key := range keys {
		out = append(out, *groups[key])
	}
	return out
}

// TestLoadIndexMatchesScan: on every workload and both backends, the
// index NewKernelView builds once — and each filtered view a detector
// reads — equals an independent scan, with every group in program order.
func TestLoadIndexMatchesScan(t *testing.T) {
	names := workloads.Names()
	if len(names) != 23 {
		t.Errorf("%d workloads registered, want 23", len(names))
	}
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range names {
			w, err := workloads.BuildArch(name, 0, arch)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.SM, name, err)
			}
			v, err := NewKernelView(w.Kernel)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.SM, name, err)
			}
			for _, tc := range []struct {
				view string
				got  []LoadGroup
				keep func(in *sass.Inst, mem sass.Operand, i int) bool
			}{
				{"all loads (§4.3)", v.Loads,
					func(*sass.Inst, sass.Operand, int) bool { return true }},
				{"narrow loads (§4.1)", v.loadGroups(v.narrowLoad),
					func(in *sass.Inst, _ sass.Operand, _ int) bool { return !in.IsVectorized() && in.WidthBytes() == 4 }},
				{"read-only candidates (§4.5, §4.6)", v.loadGroups(v.readOnlyLoad),
					func(in *sass.Inst, mem sass.Operand, i int) bool {
						return !in.IsNC() && !v.DefUse.PointerStoredThroughAt(mem.Reg, i)
					}},
			} {
				if want := scanLoads(v, tc.keep); !reflect.DeepEqual(tc.got, want) {
					t.Errorf("%s/%s: %s = %+v, independent scan finds %+v", arch.SM, name, tc.view, tc.got, want)
				}
				for _, g := range tc.got {
					if !sort.IntsAreSorted(g.Idxs) || len(g.Idxs) == 0 || len(g.Offs) != len(g.Idxs) {
						t.Errorf("%s/%s: %s: group %s@%d malformed or out of program order: %v / %v",
							arch.SM, name, tc.view, g.Base, g.Def, g.Idxs, g.Offs)
					}
				}
			}
			// §4.5 merges a register's groups: adjacent in the index, and
			// concatenating them must stay in program order.
			var last sass.Reg
			var merged []int
			for n, g := range v.Loads {
				if n > 0 && g.Base != last {
					merged = merged[:0]
				}
				last, merged = g.Base, append(merged, g.Idxs...)
				if !sort.IntsAreSorted(merged) {
					t.Errorf("%s/%s: loads off %s leave program order when its groups are concatenated: %v",
						arch.SM, name, g.Base, merged)
				}
			}
		}
	}
}

// TestDetectorDescriptions: a detector's facts live on the detector.
// Every analysis has its fault site registered, and the resources its
// bottleneck class can be bound by are the ones the sensitivity.go
// name-switch returned at the commit before the switch was deleted (the
// table below is that switch, transcribed). The derived-metric formulas
// and the LDGSTS note need no table here: the 94 golden reports, two of
// them cross-arch comparisons, pin their text byte for byte.
func TestDetectorDescriptions(t *testing.T) {
	recorded := map[string][]string{
		"vectorized_load":     {gpu.ResourceDRAMBandwidth, gpu.ResourceDRAMLatency, gpu.ResourceIssueWidth},
		"register_spilling":   {gpu.ResourceL1Capacity, gpu.ResourceL2Capacity, gpu.ResourceDRAMLatency},
		"shared_memory":       {gpu.ResourceDRAMLatency, gpu.ResourceDRAMBandwidth, gpu.ResourceL1Capacity, gpu.ResourceSharedBanks},
		"shared_atomics":      {gpu.ResourceDRAMLatency, gpu.ResourceL2Capacity, gpu.ResourceSharedBanks},
		"readonly_cache":      {gpu.ResourceL1Capacity, gpu.ResourceL2Capacity, gpu.ResourceDRAMLatency},
		"texture_memory":      {gpu.ResourceL1Capacity, gpu.ResourceL2Capacity, gpu.ResourceDRAMLatency},
		"datatype_conversion": {gpu.ResourceIssueWidth},
		"bank_conflicts":      {gpu.ResourceSharedBanks},
	}
	known := map[string]bool{}
	for _, r := range gpu.ResourceNames() {
		known[r] = true
	}
	sites := map[string]bool{}
	for _, s := range faultinject.Sites() {
		sites[s] = true
	}
	// A sweep that moved every resource, so FilterFor's output shows
	// exactly which ones a name keeps.
	full := &Sensitivity{BaselineCycles: 100}
	for _, r := range gpu.ResourceNames() {
		full.Deltas = append(full.Deltas, ResourceDelta{Resource: r, Cycles: 90, Helps: true})
	}
	kept := func(analysis string) []string {
		var out []string
		for _, d := range full.FilterFor(analysis).Deltas {
			out = append(out, d.Resource)
		}
		return out
	}
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		analyses := AllAnalysesFor(arch)
		if len(analyses) != len(recorded) {
			t.Errorf("%s: %d analyses, %d recorded", arch.SM, len(analyses), len(recorded))
		}
		for _, a := range analyses {
			if !sites[DetectorSite(a.Name())] {
				t.Errorf("%s: fault site %s not registered", arch.SM, DetectorSite(a.Name()))
			}
			want, ok := recorded[a.Name()]
			if !ok {
				t.Errorf("%s: analysis %s has no recorded resource list", arch.SM, a.Name())
				continue
			}
			if got := a.Describe().Resources; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s resources = %v, recorded %v", arch.SM, a.Name(), got, want)
			}
			for _, r := range a.Describe().Resources {
				if !known[r] {
					t.Errorf("%s: %s names resource %q, not one of gpu.ResourceNames()", arch.SM, a.Name(), r)
				}
			}
			// FilterFor keeps matrix order, not the detector's.
			got, wantSet := kept(a.Name()), append([]string(nil), want...)
			sort.Strings(got)
			sort.Strings(wantSet)
			if !reflect.DeepEqual(got, wantSet) {
				t.Errorf("%s: FilterFor(%s) keeps %v, want %v", arch.SM, a.Name(), got, wantSet)
			}
		}
	}
	if got := kept("no_such_analysis"); !reflect.DeepEqual(got, gpu.ResourceNames()) {
		t.Errorf("unknown analysis keeps %v, want every resource %v", got, gpu.ResourceNames())
	}
}
