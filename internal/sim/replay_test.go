package sim_test

import (
	"context"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// benchScales are the benchmark's scales per family (bench/corpus.go),
// the second column of internal/workloads' replayScales.
var benchScales = map[string]int{
	"histogram": 4,
	"jacobi":    256,
	"mixbench":  1,
	"reduction": 0,
	"sgemm":     128,
	"spill":     8,
	"transpose": 128,
}

// BenchmarkReplay times a sweep's replays alone: every workload on sm_70
// and sm_80 at the benchmark's scale (benchScales), recorded once with
// two sampled SMs; an iteration takes every perturbation cell's SMs as
// the sweep does: an SM proved its twin's (Recording.Twin) is skipped,
// every other one takes one Recording.Finish, so an SM whose part of the
// inert proof holds costs nothing and every other SM replays alone. rec_B
// is the recordings' bytes as the budget charges them; replayed_SMs/op
// counts the Finish calls that replayed and twin_SMs/op the SMs skipped,
// measures of the work that host noise does not move.
func BenchmarkReplay(b *testing.B) {
	ctx := context.Background()
	type cell struct {
		rec  *sim.Recording
		arch gpu.Arch
	}
	var cells []cell
	held := 0
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range workloads.Names() {
			w, err := workloads.BuildArch(name, benchScales[name[:strings.IndexByte(name, '_')]], arch)
			if err != nil {
				b.Fatal(err)
			}
			_, rec, err := workloads.RecordContext(ctx, w, sim.NewDevice(arch), sim.Config{SampleSMs: 2, Workers: 1})
			if err != nil || rec == nil {
				b.Fatalf("%s on %s: not recorded (%v)", name, arch.SM, err)
			}
			held += rec.Bytes()
			for _, p := range gpu.Perturbations() {
				cells = append(cells, cell{rec, p.Apply(arch)})
			}
		}
	}
	replays, twins := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			for sm := range c.rec.SMs() {
				if c.rec.Twin(c.arch, sm) != sm {
					twins++
					continue
				}
				_, replayed, err := c.rec.Finish(ctx, c.arch, sm)
				if err != nil {
					b.Fatal(err)
				}
				if replayed {
					replays++
				}
			}
		}
	}
	b.ReportMetric(float64(held), "rec_B")
	b.ReportMetric(float64(replays)/float64(b.N), "replayed_SMs/op")
	b.ReportMetric(float64(twins)/float64(b.N), "twin_SMs/op")
}
