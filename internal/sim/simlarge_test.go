package sim_test

import (
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// BenchmarkSimLarge times the live simulator on the benchmark's sim_large
// launches (bench/workloads.go): V100, Workers 1, 8 sampled SMs, one
// issue-bound, one memory-bound and one stall-bound kernel at bench scale.
// An iteration prepares a fresh device per kernel and times the three
// launches; the per-launch work — simulated cycles, warp instructions and
// L1TEX sectors walked — is reported beside ns/op, so a change that does
// the same work faster shows equal counts. It is a profiling tool (add
// -cpuprofile), not the place a speedup is claimed: that is bench/run.sh.
func BenchmarkSimLarge(b *testing.B) {
	arch := gpu.V100()
	var ws []*workloads.Workload
	for _, k := range []struct {
		name  string
		scale int
	}{{"sgemm_naive", 192}, {"jacobi_naive", 1024}, {"mixbench_sp_naive", 1}} {
		w, err := workloads.BuildArch(k.name, k.scale, arch)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	cfg := sim.Config{Workers: 1, SampleSMs: 8}
	var cycles float64
	var insts, sectors uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			b.StopTimer()
			dev := sim.NewDevice(arch)
			run, err := w.Prepare(dev)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := sim.Launch(dev, run.Spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			c := res.Counters
			cycles += res.Cycles
			insts += c.WarpInsts
			sectors += c.GlobalLdSectors + c.GlobalStSectors + c.LocalLdSectors + c.LocalStSectors + c.TexSectors + c.AsyncCopySectors
		}
	}
	launches := float64(b.N * len(ws))
	b.ReportMetric(cycles/launches, "cycles/launch")
	b.ReportMetric(float64(insts)/launches, "warp_insts/launch")
	b.ReportMetric(float64(sectors)/launches, "sectors/launch")
}
