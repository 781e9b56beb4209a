package sim

import (
	"context"
	"testing"

	"gpuscout/internal/gpu"
)

// TestMSHRTrackerZeroAllocBounded locks in the two resource properties
// of the MSHR admission path: a warm admit+push never touches the heap,
// and the tracker holds at most capacity entries however far the miss
// stream overruns it (the unbounded ring it replaced held 2 047 entries
// on mixbench_sp_naive at capacity 112).
func TestMSHRTrackerZeroAllocBounded(t *testing.T) {
	const capacity = 112
	m := &mshrTracker{capacity: capacity}
	now := 0.0
	step := func() {
		now++
		start := m.admit(now)
		m.push(start + 400)
	}
	for i := 0; i < 100000; i++ {
		step()
	}
	if n := m.n; n > capacity {
		t.Errorf("tracker holds %d entries after 100000 pushes, want <= %d", n, capacity)
	}
	if c := cap(m.ring); c > 2*capacity {
		t.Errorf("tracker backing array grew to %d, want <= %d", c, 2*capacity)
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("warm admit+push allocated %v times per run, want 0", allocs)
	}
}

// TestLaunchAllocsBounded asserts that a full Launch of a small workload
// stays under a fixed allocation budget. The remaining allocations are
// launch setup — per-SM arena backing slices, the engine's precomputed
// tables, each SM's counters and the merged ones — not
// per-cycle or per-instruction churn; the budget is far below the tens of
// thousands of allocations the pre-arena simulator performed for the same
// workload, and holding it constant keeps per-warp state and counters from
// quietly migrating back onto the hot path.
func TestLaunchAllocsBounded(t *testing.T) {
	k := vecAddKernel(t)
	dev := NewDevice(gpu.V100())
	const n = 1024
	a := dev.MustAlloc(4 * n)
	b := dev.MustAlloc(4 * n)
	c := dev.MustAlloc(4 * n)
	spec := LaunchSpec{
		Kernel: k,
		Grid:   D1(n / 128),
		Block:  D1(128),
		Params: []uint64{a.Addr, b.Addr, c.Addr, n},
	}
	cfg := Config{SampleSMs: 1, Workers: 1}
	launch := func() {
		if _, err := Launch(dev, spec, cfg); err != nil {
			t.Fatalf("Launch: %v", err)
		}
	}

	launch() // warm-up: device memory pages and pool state settle

	allocs := testing.AllocsPerRun(5, launch)
	// Measured 91 allocs per warm Launch for this workload (go1.24); the
	// bound, about twice that, leaves slack for toolchain variation while
	// still catching any reintroduction of per-warp or per-instruction
	// heap traffic.
	const maxAllocs = 190
	if allocs > maxAllocs {
		t.Errorf("warm Launch allocated %v times per run, want <= %d", allocs, maxAllocs)
	}
	t.Logf("warm Launch: %.0f allocs per run", allocs)
}

// TestFinishAllocsBounded: Recording.Finish allocates nothing where
// inert's proof holds — the recorded caches' fit is kept at seal, the
// perturbed one's and the bank conflicts are counted on the stack — and a
// fixed number of times where it replays: the engine, the SM's caches,
// bandwidth slices, MSHR rings, arena and bare counters, none per
// scheduler round or instruction. A stride kernel over global and over
// shared memory, one block each, runs every perturbation cell.
func TestFinishAllocsBounded(t *testing.T) {
	// Measured 27 allocations per replay (go1.24; 26 for the shared
	// kernel, which never pushes an MSHR); the cap leaves slack for
	// toolchain variation, far below one per round.
	const maxReplayAllocs = 40
	ctx := context.Background()
	for _, shared := range []bool{false, true} {
		rec := recordStride(t, 256, 2, shared)
		for _, p := range gpu.Perturbations() {
			arch := p.Apply(gpu.V100())
			var replayed bool
			allocs := testing.AllocsPerRun(5, func() {
				var err error
				if _, replayed, err = rec.Finish(ctx, arch, 0); err != nil {
					t.Fatal(err)
				}
			})
			if !replayed && allocs != 0 || allocs > maxReplayAllocs {
				t.Errorf("shared=%v, %s: Finish (replayed %v) allocated %v times per call, want 0 when proved and <= %d when replayed",
					shared, p.ID(), replayed, allocs, maxReplayAllocs)
			}
		}
	}
}
