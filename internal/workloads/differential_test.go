package workloads

import (
	"reflect"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// differentialScale picks a small problem size per workload so the full
// sweep stays fast while still spanning several SMs.
func differentialScale(name string) int {
	switch name {
	case "mixbench_sp_naive", "mixbench_sp_vec4", "mixbench_dp_naive",
		"mixbench_dp_vec4", "mixbench_int_naive", "mixbench_int_vec4":
		return 4
	case "jacobi_naive", "jacobi_texture", "jacobi_restrict", "jacobi_shared":
		return 128
	case "sgemm_naive", "sgemm_shared", "sgemm_shared_vec":
		return 64
	case "transpose_naive", "transpose_shared", "transpose_padded":
		return 64
	case "spill_pressure", "histogram_global", "histogram_shared":
		return 4
	}
	return 0
}

// TestPerturbedParallelDifferential extends the differential guarantee to
// the sensitivity sweep's perturbation matrix: a perturbed Arch is just
// another architecture, so every (workload, perturbation, arch) triple
// must also be bit-identical between Workers=1 and Workers=4 — otherwise
// a sweep's dominant resource could depend on the daemon's parallelism.
// One workload per family keeps the matrix affordable; the plain
// differential test still covers every workload on the stock config.
//
// Two what-ifs run here that the matrix no longer holds: scoreboard slots
// doubled and halved. Only codegen reads them (control info the simulator
// never consults), so they are the one case whose lowering differs from
// stock, and they carry the reason the axis left the matrix as an
// assertion: their cycles must equal the stock arch's. If that ever
// fails, the simulator has started reading control info and the axis
// means something again.
func TestPerturbedParallelDifferential(t *testing.T) {
	type whatIf struct {
		id    string
		apply func(gpu.Arch) gpu.Arch
	}
	var whatIfs []whatIf
	for _, p := range gpu.Perturbations() {
		whatIfs = append(whatIfs, whatIf{p.ID(), p.Apply})
	}
	codegenOnly := len(whatIfs)
	whatIfs = append(whatIfs,
		whatIf{"scoreboards/up", func(a gpu.Arch) gpu.Arch { a.ISA.Scoreboards *= 2; return a }},
		whatIf{"scoreboards/down", func(a gpu.Arch) gpu.Arch { a.ISA.Scoreboards /= 2; return a }})
	reps := []string{
		"mixbench_sp_naive", "jacobi_naive", "sgemm_naive",
		"transpose_shared", "spill_pressure", "histogram_shared",
		"reduction_atomic",
	}
	cfg := sim.Config{SampleSMs: 4}
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range reps {
			for i, p := range whatIfs {
				i, p := i, p
				t.Run(arch.SM+"/"+name+"/"+p.id, func(t *testing.T) {
					run := func(pa gpu.Arch, workers int) (*sim.Result, []byte) {
						w, err := BuildArch(name, differentialScale(name), pa)
						if err != nil {
							t.Fatalf("BuildArch: %v", err)
						}
						dev := sim.NewDevice(pa)
						c := cfg
						c.Workers = workers
						res, err := Execute(w, dev, c)
						if err != nil {
							t.Fatalf("Execute(Workers=%d): %v", workers, err)
						}
						return res, dev.MemorySnapshot()
					}
					seqRes, seqMem := run(p.apply(arch), 1)
					parRes, parMem := run(p.apply(arch), 4)
					seqRes.Host, parRes.Host = sim.HostStats{}, sim.HostStats{}
					if !reflect.DeepEqual(seqRes, parRes) {
						t.Errorf("Result differs between Workers=1 and Workers=4 under %s:\nseq: %+v\npar: %+v",
							p.id, seqRes, parRes)
					}
					if !reflect.DeepEqual(seqMem, parMem) {
						t.Errorf("device memory differs between Workers=1 and Workers=4 under %s", p.id)
					}
					if i >= codegenOnly {
						if stock, _ := run(arch, 1); stock.Cycles != seqRes.Cycles {
							t.Errorf("%s moved cycles %g -> %g: the simulator now reads control info", p.id, stock.Cycles, seqRes.Cycles)
						}
					}
				})
			}
		}
	}
}

// TestParallelDifferential is the acceptance proof for parallel
// simulation: every registered workload, run with Workers=1 and
// Workers=4 on fresh devices, must produce a bit-identical Result
// (HostStats excepted — wall time is genuinely nondeterministic) and
// byte-identical device memory. Any divergence means per-SM state
// leaked, the merge order drifted, or an atomic lost an update.
func TestParallelDifferential(t *testing.T) {
	cfg := sim.Config{SampleSMs: 4}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) (*sim.Result, []byte) {
				w, err := Build(name, differentialScale(name))
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				dev := sim.NewDevice(gpu.V100())
				c := cfg
				c.Workers = workers
				res, err := Execute(w, dev, c)
				if err != nil {
					t.Fatalf("Execute(Workers=%d): %v", workers, err)
				}
				return res, dev.MemorySnapshot()
			}
			seqRes, seqMem := run(1)
			parRes, parMem := run(4)
			if seqRes.Host.Workers != 1 || parRes.Host.Workers < 1 {
				t.Errorf("Host.Workers = %d/%d, want 1 and >=1",
					seqRes.Host.Workers, parRes.Host.Workers)
			}
			seqRes.Host, parRes.Host = sim.HostStats{}, sim.HostStats{}
			if !reflect.DeepEqual(seqRes, parRes) {
				t.Errorf("Result differs between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", seqRes, parRes)
			}
			if !reflect.DeepEqual(seqMem, parMem) {
				i := 0
				for i < len(seqMem) && i < len(parMem) && seqMem[i] == parMem[i] {
					i++
				}
				t.Errorf("device memory differs between Workers=1 and Workers=4 (first divergence at byte %d of %d)", i, len(seqMem))
			}
		})
	}
}
