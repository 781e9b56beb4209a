package workloads

import (
	"context"
	"fmt"
	"math"
	"reflect"
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

// bitDiff compares two values of the simulator's result types bit for bit
// — floats by math.Float64bits, maps by key and entry — and returns the
// path of the first difference, or "".
func bitDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Ptr:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side"
			}
			return ""
		}
		return bitDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d != %d elements", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d != %d keys", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			other := b.MapIndex(it.Key())
			if !other.IsValid() {
				return fmt.Sprintf("%s[%v]: missing on one side", path, it.Key())
			}
			if d := bitDiff(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), other); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

// sameResult is bitDiff over two Results, Host (wall time) excepted.
func sameResult(a, b *sim.Result) string {
	x, y := *a, *b
	x.Host, y.Host = sim.HostStats{}, sim.HostStats{}
	return bitDiff("Result", reflect.ValueOf(x), reflect.ValueOf(y))
}

// TestReplayMatchesResimulation is the proof that a sweep cell may be a
// replay: for every workload, both architectures, the golden and the
// benchmark scale, a recording made with Workers 1 and with Workers 4
// (two sampled SMs, so two recorders and two replayers run at once),
// replayed under each of the twelve perturbations, returns the Result —
// cycles, per-SM finish times, every counter and stall integral — that
// preparing a fresh device and executing the kernel under that
// perturbation does; and replayed under the recorded arch, the recorded
// run's own. Every named build must be replayable; there is no exception
// to list.
//
// It is also the oracle of Recording.Inert: a cell the recording proves
// inert must replay bit for bit as the recorded arch does — a mismatch is
// a wrong proof — and when every subtest ran, each cell the proof covers
// (l1_capacity, l2_capacity, shared_banks, up and down) must have been
// proved somewhere, so a proof that never says yes fails too.
func TestReplayMatchesResimulation(t *testing.T) {
	ctx := context.Background()
	perts := gpu.Perturbations()
	var mu sync.Mutex
	proved := map[string]int{}
	cases, ran := 0, 0
	t.Cleanup(func() {
		t.Logf("%d of %d cases ran; cells proved inert: %v", ran, cases, proved)
		if ran < cases {
			return
		}
		for _, p := range perts {
			if r := p.Resource; (r == gpu.ResourceL1Capacity || r == gpu.ResourceL2Capacity || r == gpu.ResourceSharedBanks) && proved[p.ID()] == 0 {
				t.Errorf("%s is never proved inert", p.ID())
			}
		}
	})
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
					mu.Lock()
					ran++
					mu.Unlock()
					w, err := BuildArch(name, scale, arch)
					if err != nil {
						t.Fatal(err)
					}
					var recs [2]*sim.Recording
					var sames [2]*sim.Result
					for i, workers := range []int{1, 4} {
						cfg := sim.Config{SampleSMs: 2, Workers: workers}
						res, rec, err := RecordContext(ctx, w, sim.NewDevice(arch), cfg)
						if err != nil {
							t.Fatalf("record (Workers=%d): %v", workers, err)
						}
						if rec == nil {
							t.Fatalf("Workers=%d: the launch was not recorded; every named build is replayable", workers)
						}
						same, err := rec.Replay(ctx, arch)
						if err != nil {
							t.Fatalf("replay on the recorded arch (Workers=%d): %v", workers, err)
						}
						if d := sameResult(res, same); d != "" {
							t.Errorf("Workers=%d: replay on the recorded arch differs from the recorded run: %s", workers, d)
						}
						recs[i], sames[i] = rec, same
					}
					for _, p := range perts {
						pa := p.Apply(arch)
						want, err := Execute(w, sim.NewDevice(pa), sim.Config{SampleSMs: 2, Workers: 1})
						if err != nil {
							t.Fatalf("%s: execute: %v", p.ID(), err)
						}
						for i, rec := range recs {
							got, err := rec.Replay(ctx, pa)
							if err != nil {
								t.Fatalf("%s: replay: %v", p.ID(), err)
							}
							if d := sameResult(want, got); d != "" {
								t.Errorf("%s: replay of recording %d differs from re-execution: %s", p.ID(), i, d)
							}
							if !rec.Inert(pa) {
								continue
							}
							if d := sameResult(sames[i], got); d != "" {
								t.Errorf("%s: recording %d proves the cell inert, but its replay moves: %s", p.ID(), i, d)
							}
							if i == 0 {
								mu.Lock()
								proved[p.ID()]++
								mu.Unlock()
							}
						}
					}
				})
			}
		}
	}
}
