package scout_test

import (
	"context"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/workloads"
)

// TestDetectorsSilentOnOptimizedVariants is the negative half of the §5
// case studies: after applying the recommended fix, the detector that
// recommended it must stop firing (or drop to informational). A detector
// that still flags its own fix would send users in circles.
func TestDetectorsSilentOnOptimizedVariants(t *testing.T) {
	cases := []struct {
		workload string
		analysis string
		// allowInfo permits an informational-severity residue: the
		// shared-atomics detector reports "atomics now in shared memory"
		// as INFO on the fixed kernels, which is the desired outcome, not
		// a recommendation to change anything.
		allowInfo bool
	}{
		{"mixbench_sp_vec4", "vectorized_load", false},
		{"mixbench_int_vec4", "vectorized_load", false},
		{"mixbench_dp_vec4", "vectorized_load", false},
		{"jacobi_shared", "shared_memory", false},
		{"jacobi_restrict", "readonly_cache", false},
		{"jacobi_texture", "texture_memory", false},
		{"sgemm_restrict", "readonly_cache", false},
		{"sgemm_shared", "shared_memory", false},
		{"spill_relief", "register_spilling", false},
		{"transpose_padded", "bank_conflicts", false},
		{"histogram_shared", "shared_atomics", true},
		{"reduction_shfl", "shared_atomics", true},
	}
	for _, arch := range negativeArches() {
		for _, tc := range cases {
			t.Run(arch.SM+"/"+tc.workload+"/"+tc.analysis, func(t *testing.T) {
				w, err := workloads.BuildArch(tc.workload, 0, arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				rep, err := scout.AnalyzeContext(context.Background(), arch, w.Kernel, nil, scout.Options{DryRun: true})
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				for i := range rep.Findings {
					f := &rep.Findings[i]
					if f.Analysis != tc.analysis {
						continue
					}
					if tc.allowInfo && f.Severity == scout.SeverityInfo {
						continue
					}
					t.Errorf("%s still fires on %s: [%s] %s",
						tc.analysis, tc.workload, f.Severity, f.Title)
				}
			})
		}
	}
}

// negativeArches lists the backends the negative/positive control suites
// run on: a fixed kernel must stay fixed — and a broken one broken — on
// every supported lowering, not just Volta.
func negativeArches() []gpu.Arch {
	return []gpu.Arch{gpu.V100(), gpu.A100()}
}

// TestDetectorsFireOnBaselines is the matching positive control: the same
// detectors do fire on the naive variants, so the silence above means
// "fixed", not "detector broken".
func TestDetectorsFireOnBaselines(t *testing.T) {
	cases := []struct {
		workload string
		analysis string
		scale    int
	}{
		{"mixbench_sp_naive", "vectorized_load", 0},
		{"jacobi_naive", "shared_memory", 0},
		{"jacobi_naive", "texture_memory", 0},
		{"sgemm_naive", "readonly_cache", 0},
		{"sgemm_naive", "shared_memory", 0},
		{"spill_pressure", "register_spilling", 0},
		{"transpose_shared", "bank_conflicts", 0},
		{"histogram_global", "shared_atomics", 0},
		{"reduction_atomic", "shared_atomics", 0},
	}
	for _, arch := range negativeArches() {
		for _, tc := range cases {
			t.Run(arch.SM+"/"+tc.workload+"/"+tc.analysis, func(t *testing.T) {
				w, err := workloads.BuildArch(tc.workload, tc.scale, arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				rep, err := scout.AnalyzeContext(context.Background(), arch, w.Kernel, nil, scout.Options{DryRun: true})
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				for i := range rep.Findings {
					if rep.Findings[i].Analysis == tc.analysis {
						return
					}
				}
				t.Errorf("%s does not fire on baseline %s", tc.analysis, tc.workload)
			})
		}
	}
}
