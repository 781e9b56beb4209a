package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// simLargeScales are the bench's sim_large kernels at their bench scales
// (bench/workloads.go), pinned at the bench's SampleSMs 8.
var simLargeScales = []struct {
	name  string
	scale int
}{{"sgemm_naive", 192}, {"jacobi_naive", 1024}, {"mixbench_sp_naive", 1}}

// resultDigest hashes what a launch measured: Cycles, SMFinish and every
// number in Counters, walked by reflection in field order so a new field
// cannot be left out, each as its exact bits.
func resultDigest(t *testing.T, res *sim.Result) string {
	var buf []byte
	word := func(f float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)) }
	word(res.Cycles)
	for _, f := range res.SMFinish {
		word(f)
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			buf = binary.LittleEndian.AppendUint64(buf, v.Uint())
		case reflect.Float64:
			word(v.Float())
		case reflect.Array, reflect.Slice:
			for j := 0; j < v.Len(); j++ {
				walk(fmt.Sprintf("%s[%d]", path, j), v.Index(j))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		default:
			t.Fatalf("%s has unhandled kind %s — extend resultDigest", path, v.Kind())
		}
	}
	walk("Counters", reflect.ValueOf(res.Counters).Elem())
	s := sha256.Sum256(buf)
	return hex.EncodeToString(s[:])
}

// TestLaunchResultsPinned is the whole-Result oracle of a timing refactor:
// for every workload at its pinnedScales launch scale (SampleSMs 4) and
// the sim_large kernels at their bench scales (SampleSMs 8), on sm_70 and
// sm_80, the digest of Cycles, SMFinish and every counter and stall float
// must equal the committed testdata/results.txt bit for bit. Regenerate it
// (-update) only in a change that means to move the timing model.
func TestLaunchResultsPinned(t *testing.T) {
	type launch struct {
		name        string
		scale, smps int
	}
	var launches []launch
	for _, name := range Names() {
		family, _, _ := strings.Cut(name, "_")
		launches = append(launches, launch{name, pinnedScales[family].launch, 4})
	}
	for _, k := range simLargeScales {
		launches = append(launches, launch{k.name, k.scale, 8})
	}
	var got strings.Builder
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, l := range launches {
			w, err := BuildArch(l.name, l.scale, arch)
			if err != nil {
				t.Fatalf("BuildArch(%s, %d, %s): %v", l.name, l.scale, arch.SM, err)
			}
			dev := sim.NewDevice(arch)
			run, err := w.Prepare(dev)
			if err != nil {
				t.Fatalf("Prepare(%s@%d, %s): %v", l.name, l.scale, arch.SM, err)
			}
			res, err := sim.Launch(dev, run.Spec, sim.Config{SampleSMs: l.smps})
			if err != nil {
				t.Fatalf("Launch(%s@%d, %s): %v", l.name, l.scale, arch.SM, err)
			}
			fmt.Fprintf(&got, "%s %s %d sms=%d %s\n", l.name, arch.SM, l.scale, l.smps, resultDigest(t, res))
		}
	}

	path := filepath.Join("testdata", "results.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(data), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d launches, %s has %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("launch result moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
