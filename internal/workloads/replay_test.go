package workloads

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// replayScales are the two scales per family the replay differential runs
// at: the advisor goldens' and the benchmark's (bench/corpus.go).
var replayScales = map[string][2]int{
	"histogram": {4, 4},
	"jacobi":    {128, 256},
	"mixbench":  {8, 1},
	"reduction": {0, 0},
	"sgemm":     {64, 128},
	"spill":     {8, 8},
	"transpose": {64, 128},
}

// forEachLaunch runs body as one parallel subtest, named arch/name@scale,
// per launch of the replay population: every workload on both
// architectures at the golden and the benchmark scale. It returns how
// many subtests it declared, -run filtering aside.
func forEachLaunch(t *testing.T, body func(t *testing.T, arch gpu.Arch, name string, scale int)) int {
	cases := 0
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range Names() {
			scales := replayScales[name[:strings.IndexByte(name, '_')]]
			for i, scale := range scales {
				if i == 1 && scale == scales[0] {
					continue
				}
				cases++
				t.Run(fmt.Sprintf("%s/%s@%d", arch.SM, name, scale), func(t *testing.T) {
					t.Parallel()
					body(t, arch, name, scale)
				})
			}
		}
	}
	return cases
}

// reexecution is one launch executed afresh under every perturbation at
// four sampled SMs: each perturbation's SMFinish, by Perturbation.ID.
// Which blocks SM i runs under which warp IDs, and its L1, L2 slice and
// DRAM share, do not depend on how many SMs are sampled, so neither does
// its finish, and one execution serves a recording of two SMs and one of
// four. The two tests below share it, so a launch executes once per
// perturbation however many of them check it.
type reexecution struct {
	once   sync.Once
	finish map[string][]float64
	err    error
}

var reexecutions sync.Map // arch/name@scale → *reexecution

func reexecuted(w *Workload, arch gpu.Arch, name string, scale int) (map[string][]float64, error) {
	v, _ := reexecutions.LoadOrStore(fmt.Sprintf("%s/%s@%d", arch.SM, name, scale), &reexecution{})
	r := v.(*reexecution)
	r.once.Do(func() {
		r.finish = map[string][]float64{}
		for _, p := range gpu.Perturbations() {
			res, err := Execute(w, sim.NewDevice(p.Apply(arch)), sim.Config{SampleSMs: 4, Workers: 1})
			if err != nil {
				r.err = fmt.Errorf("%s: execute: %w", p.ID(), err)
				return
			}
			r.finish[p.ID()] = res.SMFinish
		}
	})
	return r.finish, r.err
}

// checkFinishes records the launch under cfg and sim.WithRecorded, whose
// hook must hand out each SM's part once, before Record returns; then,
// under every perturbation, requires each SM's Recording.Finish to be the
// re-execution's SMFinish bit for bit, wherever Finish did not replay the
// recorded finish, and wherever Recording.Twin names another SM that SM's
// re-executed finish. It returns, by perturbation ID, how many SMs' part
// of inert's proof held, and how many SM-cells Twin proved.
func checkFinishes(t *testing.T, arch gpu.Arch, name string, scale int, cfg sim.Config) (proved map[string]int, twins int) {
	proved = map[string]int{}
	ctx := context.Background()
	w, err := BuildArch(name, scale, arch)
	if err != nil {
		t.Fatal(err)
	}
	var hmu sync.Mutex
	handed := map[int]*sim.Recording{}
	hook := sim.WithRecorded(ctx, func(rec *sim.Recording, i int) {
		hmu.Lock()
		defer hmu.Unlock()
		if handed[i] != nil {
			t.Errorf("SM %d handed out twice", i)
		}
		handed[i] = rec
	})
	res, rec, err := RecordContext(hook, w, sim.NewDevice(arch), cfg)
	if err != nil || rec == nil {
		t.Fatalf("not recorded (%v); every named build is replayable", err)
	}
	for i := range rec.SMs() {
		if handed[i] != rec {
			t.Errorf("SM %d of %d was not handed out before Record returned", i, rec.SMs())
		}
	}
	want, err := reexecuted(w, arch, name, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gpu.Perturbations() {
		pa, finish := p.Apply(arch), want[p.ID()]
		if rec.SMs() > len(finish) {
			t.Fatalf("%s: the recording holds %d SMs, the execution ran %d", p.ID(), rec.SMs(), len(finish))
		}
		for i := range rec.SMs() {
			got, replayed, err := rec.Finish(ctx, pa, i)
			if err != nil {
				t.Fatalf("%s: SM %d: %v", p.ID(), i, err)
			}
			if math.Float64bits(got) != math.Float64bits(finish[i]) {
				t.Errorf("%s: SM %d finishes at %v, its re-execution at %v", p.ID(), i, got, finish[i])
			}
			if tw := rec.Twin(pa, i); tw != i {
				twins++
				if math.Float64bits(finish[tw]) != math.Float64bits(finish[i]) {
					t.Errorf("%s: SM %d is proved SM %d's twin, but re-executes to %v, not %v", p.ID(), i, tw, finish[i], finish[tw])
				}
			}
			if replayed {
				continue
			}
			if math.Float64bits(got) != math.Float64bits(res.SMFinish[i]) {
				t.Errorf("%s: SM %d proved at %v, recorded at %v", p.ID(), i, got, res.SMFinish[i])
			}
			proved[p.ID()]++
		}
	}
	return proved, twins
}

// TestReplayMatchesResimulation is the proof that a sweep cell may be
// replayed SM by SM: for every workload, both architectures, the golden
// and the benchmark scale, a recording made with two sampled SMs on one
// worker, under every one of the twelve perturbations, finishes each SM
// (Recording.Finish) at the cycle that preparing a fresh device and
// executing the kernel under that perturbation does, bit for bit. Every
// named build must be replayable; there is no exception to list.
//
// It is also the oracle of inert, Finish's proof: an SM the proof covers
// must finish where it was recorded — a mismatch is a wrong proof — and
// when every subtest ran, each cell the proof covers (l1_capacity,
// l2_capacity, shared_banks, up and down) must have been proved on some
// SM, so a proof that never says yes fails too. The same holds for Twin's
// proof: some SM-cell must have been proved a twin.
func TestReplayMatchesResimulation(t *testing.T) {
	var mu sync.Mutex
	proved := map[string]int{}
	cases, ran, twins := 0, 0, 0
	t.Cleanup(func() {
		t.Logf("%d of %d cases ran; SMs proved inert per cell: %v; twin SM-cells: %d", ran, cases, proved, twins)
		if ran < cases {
			return
		}
		if twins == 0 {
			t.Error("no SM is ever proved a twin")
		}
		for _, p := range gpu.Perturbations() {
			if r := p.Resource; (r == gpu.ResourceL1Capacity || r == gpu.ResourceL2Capacity || r == gpu.ResourceSharedBanks) && proved[p.ID()] == 0 {
				t.Errorf("%s is never proved inert", p.ID())
			}
		}
	})
	cases = forEachLaunch(t, func(t *testing.T, arch gpu.Arch, name string, scale int) {
		mu.Lock()
		ran++
		mu.Unlock()
		got, n := checkFinishes(t, arch, name, scale, sim.Config{SampleSMs: 2, Workers: 1})
		mu.Lock()
		defer mu.Unlock()
		twins += n
		for id, n := range got {
			proved[id] += n
		}
	})
}

// TestFinishMatchesReplay is TestReplayMatchesResimulation's check on a
// recording made by two recorders at once — four sampled SMs on two
// workers, each SM's part handed out while the other worker still
// records — over the same population: each SM's Finish under every
// perturbation is the re-execution's SMFinish bit for bit, the recorded
// finish wherever Finish did not replay, and a proved twin's re-executed
// finish.
func TestFinishMatchesReplay(t *testing.T) {
	forEachLaunch(t, func(t *testing.T, arch gpu.Arch, name string, scale int) {
		checkFinishes(t, arch, name, scale, sim.Config{SampleSMs: 4, Workers: 2})
	})
}
