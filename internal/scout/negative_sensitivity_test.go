package scout_test

import (
	"context"
	"testing"

	"gpuscout/internal/advisor"
	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// TestSweepNeutralOnOptimizedVariants is the sensitivity analogue of
// TestDetectorsSilentOnOptimizedVariants: after applying a recommended
// fix, re-simulating the fixed kernel under the perturbation matrix must
// show no dominant sensitivity on the resource class that fix relieved —
// relieving shared-memory banks further cannot speed up a kernel whose
// bank conflicts are already padded away. The check is scoped to the
// fix's own resources, not the whole matrix: an optimized kernel is still
// a real kernel and legitimately remains sensitive to resources the fix
// never touched (a vectorized mixbench saturates DRAM bandwidth harder,
// not less).
func TestSweepNeutralOnOptimizedVariants(t *testing.T) {
	cases := []struct {
		workload string
		scale    int
		// relieved lists the resources the workload's fix addressed; the
		// sweep's helping-direction relief on each must stay inside the
		// neutral band.
		relieved []string
	}{
		{"transpose_padded", 64, []string{gpu.ResourceSharedBanks}},
		{"spill_relief", 0, []string{gpu.ResourceL1Capacity, gpu.ResourceL2Capacity}},
		{"mixbench_sp_vec4", 4, []string{gpu.ResourceIssueWidth}},
		{"mixbench_int_vec4", 4, []string{gpu.ResourceIssueWidth}},
		{"jacobi_texture", 128, []string{gpu.ResourceL1Capacity}},
		{"jacobi_restrict", 128, []string{gpu.ResourceL1Capacity}},
		{"jacobi_shared", 128, []string{gpu.ResourceSharedBanks}},
		{"sgemm_shared", 64, []string{gpu.ResourceSharedBanks}},
		{"histogram_shared", 4, []string{gpu.ResourceSharedBanks}},
		{"reduction_shfl", 0, []string{gpu.ResourceSharedBanks}},
	}
	for _, arch := range negativeArches() {
		for _, tc := range cases {
			t.Run(arch.SM+"/"+tc.workload, func(t *testing.T) {
				cfg := sim.Config{SampleSMs: 1}
				w, err := workloads.BuildArch(tc.workload, tc.scale, arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				run := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
					return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), c)
				}
				rep, err := scout.AnalyzeContext(context.Background(), arch, w.Kernel, run,
					scout.Options{Sim: cfg})
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				s, err := advisor.Sweep(context.Background(), rep, tc.workload, tc.scale, arch, cfg)
				if err != nil {
					t.Fatalf("Sweep: %v", err)
				}
				sub := &scout.Sensitivity{BaselineCycles: s.BaselineCycles}
				want := map[string]bool{}
				for _, r := range tc.relieved {
					want[r] = true
				}
				for _, d := range s.Deltas {
					if want[d.Resource] {
						sub.Deltas = append(sub.Deltas, d)
					}
				}
				if len(sub.Deltas) != 2*len(tc.relieved) {
					t.Fatalf("sweep covered %d deltas on %v, want %d",
						len(sub.Deltas), tc.relieved, 2*len(tc.relieved))
				}
				sub.Rank()
				if sub.Dominant != "" {
					t.Errorf("%s is still sensitive to %s after its fix (relief %.4f, neutral band %.2f)",
						tc.workload, sub.Dominant, sub.DominantRelief, scout.NeutralSensitivity)
				}
			})
		}
	}
}
