package workloads

import (
	"strings"
	"testing"

	"gpuscout/internal/gpu"
)

// benchScales is a copy of bench/corpus.go's table: the scale each
// family is requested at by the repository benchmark. It must be kept
// equal to that table by hand, because bench is a separate module that
// imports this one and cannot be imported from here.
var benchScales = map[string]int{
	"histogram": 4, "jacobi": 256, "mixbench": 1, "reduction": 0,
	"sgemm": 128, "spill": 8, "transpose": 128,
}

// BenchmarkBuild times BuildArch over the benchmark's corpus: every
// registered workload on sm_70 and sm_80 at its bench scale (46 builds
// per op), the lowering every cold request and verify variant pays.
func BenchmarkBuild(b *testing.B) {
	archs := []gpu.Arch{gpu.V100(), gpu.A100()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range Names() {
			family, _, _ := strings.Cut(name, "_")
			for _, arch := range archs {
				if _, err := BuildArch(name, benchScales[family], arch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
