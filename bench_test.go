// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each bench runs the corresponding experiment and reports
// the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the §5 numbers alongside the harness cost. Scales are
// reduced versus the paper's V100 runs (the substrate is a simulator);
// EXPERIMENTS.md records the full-scale paper-vs-measured comparison.
package gpuscout_test

import (
	"testing"

	"gpuscout"
	"gpuscout/internal/experiments"
	"gpuscout/internal/sim"
)

var benchCfg = sim.Config{SampleSMs: 1}

// run executes a workload once and returns its cycle count.
func runCycles(b *testing.B, name string, scale int) float64 {
	b.Helper()
	w, err := gpuscout.BuildWorkload(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	res, err := gpuscout.RunWorkload(w, gpuscout.V100(), benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}

// BenchmarkFig2_SpillReport regenerates the Fig. 2 sample output (the
// register-spilling report with warp stalls and metric analysis).
func BenchmarkFig2_SpillReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		text, err := experiments.Fig2Report()
		if err != nil {
			b.Fatal(err)
		}
		if len(text) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig5_MixbenchReport regenerates the Fig. 5 tool output for the
// naive Mixbench kernel.
func BenchmarkFig5_MixbenchReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		text, err := experiments.Fig5Report()
		if err != nil {
			b.Fatal(err)
		}
		if len(text) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTableMixbench regenerates the §5.1 vectorization results.
// Paper: 3.77x (SP), 3.86x (DP), 4.44x (int) at 96 compute iterations.
func BenchmarkTableMixbench(b *testing.B) {
	const iters = 24 // per-iteration effect identical to the paper's 96
	for _, tc := range []struct{ naive, vec, metric string }{
		{"mixbench_sp_naive", "mixbench_sp_vec4", "sp_speedup_x"},
		{"mixbench_dp_naive", "mixbench_dp_vec4", "dp_speedup_x"},
		{"mixbench_int_naive", "mixbench_int_vec4", "int_speedup_x"},
	} {
		b.Run(tc.naive, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				n := runCycles(b, tc.naive, iters)
				v := runCycles(b, tc.vec, iters)
				speedup = n / v
			}
			b.ReportMetric(speedup, tc.metric)
		})
	}
}

// BenchmarkTableJacobi regenerates the §5.2 heat-transfer results.
// Paper: texture +61.1% throughput, tex_throttle 0% -> 24.65%,
// __restrict__ +0.3%.
func BenchmarkTableJacobi(b *testing.B) {
	const size = 512
	var texSpeedup, restrictSpeedup float64
	for i := 0; i < b.N; i++ {
		n := runCycles(b, "jacobi_naive", size)
		texSpeedup = n / runCycles(b, "jacobi_texture", size)
		restrictSpeedup = n / runCycles(b, "jacobi_restrict", size)
	}
	b.ReportMetric(texSpeedup, "texture_speedup_x")
	b.ReportMetric(restrictSpeedup, "restrict_speedup_x")
}

// BenchmarkTableSGEMM regenerates the §5.3 SGEMM results.
// Paper: shared tiling 54x (at 10240^2), vectorized tile loads +8.5%,
// registers 25 -> 72.
func BenchmarkTableSGEMM(b *testing.B) {
	const n = 256
	var sharedSpeedup, vecGain float64
	for i := 0; i < b.N; i++ {
		naive := runCycles(b, "sgemm_naive", n)
		shared := runCycles(b, "sgemm_shared", n)
		vec := runCycles(b, "sgemm_shared_vec", n)
		sharedSpeedup = naive / shared
		vecGain = shared / vec
	}
	b.ReportMetric(sharedSpeedup, "shared_speedup_x")
	b.ReportMetric(vecGain, "vec_gain_x")
}

// BenchmarkFig6_Overhead regenerates the Fig. 6 overhead analysis on a
// reduced SGEMM sweep. Paper shape: metric collection dominates and the
// total overhead factor is large (28x at 8192^2).
func BenchmarkFig6_Overhead(b *testing.B) {
	var series *experiments.Fig6Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig6Overhead([]int{64, 128, 256}, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := series.Points[len(series.Points)-1]
	b.ReportMetric(last.OverheadX, "overhead_x")
	b.ReportMetric(last.MetricShare*100, "metric_share_pct")
}

// BenchmarkFig7_Compare regenerates the Fig. 7 metrics-comparison view
// for the mixbench naive -> vec4 change.
func BenchmarkFig7_Compare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		text, err := experiments.CompareDemo()
		if err != nil {
			b.Fatal(err)
		}
		if len(text) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkParallelLaunch measures the parallel per-SM simulation against
// its sequential reference. Workers is left at 0 so the effective
// parallelism tracks GOMAXPROCS — run with -cpu 1,2,4 to compare:
//
//	go test -bench=BenchmarkParallelLaunch -cpu 1,4 -benchtime=3x
//
// The per-launch sm_speedup_x metric reports the simulator's own
// aggregate-SM-time / wall-time ratio; cmd/benchgate consumes the ns/op
// series to gate regressions in CI. Prepare runs once outside the timed
// loop (host-side buffer setup and verification are not what this
// benchmark measures), and SampleSMs is 8 so there are enough
// independent SMs to spread across 4 workers.
func BenchmarkParallelLaunch(b *testing.B) {
	for _, wl := range []struct {
		name  string
		scale int
	}{
		{"sgemm_naive", 192},
		{"jacobi_naive", 512},
		// The stall-bound row: its miss stream runs ~17x ahead of the LSU
		// MSHRs, which the two rows above (issue- and memory-bound) hide.
		{"mixbench_sp_naive", 1},
	} {
		b.Run(wl.name, func(b *testing.B) {
			w, err := gpuscout.BuildWorkload(wl.name, wl.scale)
			if err != nil {
				b.Fatal(err)
			}
			dev := gpuscout.NewDevice(gpuscout.V100())
			run, err := w.Prepare(dev)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Config{SampleSMs: 8}
			var speedup float64
			b.ReportAllocs() // benchgate gates allocs/op alongside ns/op
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := gpuscout.Launch(dev, run.Spec, cfg)
				if err != nil {
					b.Fatal(err)
				}
				speedup = res.Host.Speedup()
			}
			b.ReportMetric(speedup, "sm_speedup_x")
		})
	}
}

// BenchmarkDryRun measures the static-only analysis path (§3.1): the SASS
// pillar alone, independent of kernel execution time — the flat line of
// Fig. 6.
func BenchmarkDryRun(b *testing.B) {
	w, err := gpuscout.BuildWorkload("sgemm_naive", 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpuscout.DryRun(gpuscout.V100(), w.Kernel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulation throughput (warp
// instructions per second of host time) on the shared-memory SGEMM.
func BenchmarkSimulator(b *testing.B) {
	w, err := gpuscout.BuildWorkload("sgemm_shared", 128)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gpuscout.RunWorkload(w, gpuscout.V100(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Counters.WarpInsts
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "warp_insts/s")
}

// BenchmarkAblation_MSHRs sweeps the LSU MSHR count and reports the
// Jacobi texture speedup at the V100 default — the knob behind §5.2.
func BenchmarkAblation_MSHRs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateMSHRs(512, []int{32, 112, 4096}, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SGEMMScale reports the tiling speedup growing with N
// (the trend toward the paper's 54x).
func BenchmarkAblation_SGEMMScale(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.SGEMMScaleSweep([]int{64, 128, 256}, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = tbl
		last = float64(len(tbl.Rows))
	}
	b.ReportMetric(last, "sizes")
}
