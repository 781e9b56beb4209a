package workloads

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// TestNamesSortedAndStable pins the registry's determinism contract: the
// table is strictly sorted by name — which is what lets lookup search it
// and makes every name unique — Names is that order, and each call hands
// out an independent copy.
func TestNamesSortedAndStable(t *testing.T) {
	got := Names()
	if len(got) == 0 || len(got) != len(registry) {
		t.Fatalf("Names() has %d entries, the registry %d", len(got), len(registry))
	}
	for i, e := range registry {
		if got[i] != e.name {
			t.Errorf("Names()[%d] = %q, the registry's row is %q", i, got[i], e.name)
		}
		if i > 0 && registry[i-1].name >= e.name {
			t.Errorf("registry row %d %q does not sort after %q: names must be unique and in order", i, e.name, registry[i-1].name)
		}
		if row, _, err := lookup(e.name, 0); err != nil || row.name != e.name || row.variant != e.variant {
			t.Errorf("lookup(%q) = row %q/%q, %v", e.name, row.name, row.variant, err)
		}
	}
	// Mutating the returned slice must not corrupt the registry.
	got[0] = "zzz_mutated"
	if again := Names(); again[0] == "zzz_mutated" {
		t.Error("Names() returns a shared slice; mutation leaked into the registry")
	}
}

// TestScaleIsBuildsFirstHalf: Scale answers, without lowering, exactly
// what BuildArch would — the same error text for an unknown name, a scale
// over the bound and a scale the tiling refuses, and otherwise the scale
// the build runs at (0 and the family default are one build).
func TestScaleIsBuildsFirstHalf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale int
	}{
		{"no_such_workload", 0}, {"", 64}, {"zz_past_the_last_row", 1},
		{"sgemm_shared", 96}, {"transpose_naive", 33}, {"jacobi_naive", 8},
		{"reduction_atomic", maxScale + 1}, {"mixbench_sp_naive", 4294967298},
	} {
		_, buildErr := Build(tc.name, tc.scale)
		_, err := Scale(tc.name, tc.scale)
		if err == nil || buildErr == nil || err.Error() != buildErr.Error() {
			t.Errorf("Scale(%q, %d) = %v, Build says %v", tc.name, tc.scale, err, buildErr)
		}
	}
	for _, e := range registry {
		def, err := Scale(e.name, 0)
		if err != nil || def != e.scale.def {
			t.Errorf("Scale(%s, 0) = %d, %v; want the family default %d", e.name, def, err, e.scale.def)
		}
		if again, err := Scale(e.name, def); err != nil || again != def {
			t.Errorf("Scale(%s, %d) = %d, %v; the default scale must resolve to itself", e.name, def, again, err)
		}
	}
}

// TestBuildUnknownNamesRegistry checks the error path mentions the sorted
// registry listing (the message users see from the CLI).
func TestBuildUnknownNamesRegistry(t *testing.T) {
	_, err := Build("no_such_workload", 0)
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	names := Names()
	if !sort.StringsAreSorted(names) || !strings.Contains(err.Error(), fmt.Sprint(names)) {
		t.Errorf("error %q does not list the sorted registry %v", err, names)
	}
}

// TestScaleBound: every kernel parameter and loop bound is 32 bits wide
// and every footprint is int arithmetic, so a scale past maxScale is a
// build error naming the bound — it used to run as scale mod 2^32 under
// the requested scale's label (mixbench), overflow the footprint and
// panic in make (histogram), or reach Alloc as 0 bytes (sgemm).
func TestScaleBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale int
	}{
		{"mixbench_sp_naive", 4294967298},
		{"mixbench_sp_naive", 9000000000000000000},
		{"histogram_global", 140737488355329},
		{"sgemm_naive", 4294967296},
		{"reduction_atomic", maxScale + 1},
	} {
		_, err := Build(tc.name, tc.scale)
		if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), fmt.Sprint(maxScale)) {
			t.Errorf("Build(%s, %d): err = %v, want the scale bound named", tc.name, tc.scale, err)
		}
	}
	if _, err := Build("spill_pressure", maxScale); err != nil {
		t.Errorf("Build(spill_pressure, maxScale): %v", err)
	}
}

// TestScaleGrid runs every workload over a grid of scales: either the
// build is refused with an error naming the workload and the multiple its
// tiling needs, or the launch verifies against the host reference.
func TestScaleGrid(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, scale := range []int{1, 2, 3, 16, 17, 32, 48, 64, 96} {
				w, err := Build(name, scale)
				if err != nil {
					if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "not a multiple of") {
						t.Errorf("@%d: build error %q does not name the workload and the multiple", scale, err)
					}
					continue
				}
				if _, err := Execute(w, sim.NewDevice(gpu.V100()), sim.Config{SampleSMs: 1}); err != nil {
					t.Errorf("@%d: %v", scale, err)
				}
			}
		})
	}
}

// TestPrepareWithinHostBound: sim.MaxDeviceBytes does not bite anywhere
// near the scales in use (the largest launch any test, benchmark request,
// example or experiment prepares is 10 MiB; sgemm at 2048 needs 48), and
// a scale past it fails at the first allocation with the bound named.
func TestPrepareWithinHostBound(t *testing.T) {
	for scale, wantErr := range map[int]bool{2048: false, 8192: true} {
		w, err := Build("sgemm_naive", scale)
		if err != nil {
			t.Fatalf("Build(sgemm_naive, %d): %v", scale, err)
		}
		_, err = w.Prepare(sim.NewDevice(gpu.V100()))
		if wantErr && (err == nil || !strings.Contains(err.Error(), "at most 128 MiB per device")) {
			t.Errorf("Prepare at scale %d: err = %v, want the host bound", scale, err)
		}
		if !wantErr && err != nil {
			t.Errorf("Prepare at scale %d: %v", scale, err)
		}
	}
}

// TestWarmLaunchAllocsBounded holds sim.TestLaunchAllocsBounded's budget
// on real kernels: a warm launch of an issue-bound, a memory-bound and a
// stall-bound workload (bench/'s sim_large rows) allocates for launch
// setup only. Measured 426-468 across the three; the per-warp and
// per-instruction heap traffic the arena removed was 43k-298k.
func TestWarmLaunchAllocsBounded(t *testing.T) {
	const maxAllocs = 5000
	for _, tc := range []struct {
		name  string
		scale int
	}{{"sgemm_naive", 192}, {"jacobi_naive", 512}, {"mixbench_sp_naive", 1}} {
		w, err := Build(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		dev := sim.NewDevice(gpu.V100())
		run, err := w.Prepare(dev)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun's own warm-up call settles device pages and pools.
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := sim.Launch(dev, run.Spec, sim.Config{SampleSMs: 8, Workers: 1}); err != nil {
				t.Fatalf("%s: Launch: %v", tc.name, err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s@%d: warm Launch allocated %.0f times, want <= %d", tc.name, tc.scale, allocs, maxAllocs)
		}
		t.Logf("%s@%d: %.0f allocs per warm launch", tc.name, tc.scale, allocs)
	}
}

// TestEveryAcceptedScaleIsRead audits the scale rules for the class of
// bug reduction_* had: a scale accepted but not read. Two accepted scales
// of a family must give two launches — a different kernel, grid or
// parameter words — unless the rule says the family is fixed, in which
// case they must give one.
func TestEveryAcceptedScaleIsRead(t *testing.T) {
	launchOf := func(name string, scale int) string {
		w, err := Build(name, scale)
		if err != nil {
			t.Fatalf("Build(%s, %d): %v", name, scale, err)
		}
		run, err := w.Prepare(sim.NewDevice(gpu.V100()))
		if err != nil {
			t.Fatalf("Prepare(%s@%d): %v", name, scale, err)
		}
		return fmt.Sprint(sass.Print(w.Kernel), run.Spec.Grid, run.Spec.Block, run.Spec.Params)
	}
	for _, e := range registry {
		other := e.scale.def + e.scale.multiple
		same := launchOf(e.name, e.scale.def) == launchOf(e.name, other)
		if same != e.scale.fixed {
			t.Errorf("%s: scales %d and %d give the same launch: %v, the rule's fixed: %v",
				e.name, e.scale.def, other, same, e.scale.fixed)
		}
	}
}
