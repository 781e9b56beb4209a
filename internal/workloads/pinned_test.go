package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/pinned.json and testdata/results.txt")

// pinnedScales lists, per family, every distinct scale the rest of the
// tree builds at — 0 (the default), advisor's goldenScales (also what
// TestSweepLoweringReuse uses) and bench/corpus.go's benchScales — and
// the one small accepted scale at which the launch and the device image
// are pinned.
var pinnedScales = map[string]struct {
	builds []int
	launch int
}{
	"histogram": {[]int{0, 4}, 2},
	"jacobi":    {[]int{0, 128, 256}, 32},
	"mixbench":  {[]int{0, 8, 1}, 1},
	"reduction": {[]int{0}, 0},
	"sgemm":     {[]int{0, 64, 128}, 64},
	"spill":     {[]int{0, 8}, 2},
	"transpose": {[]int{0, 64, 128}, 32},
}

type pinnedBuild struct {
	Workload    string `json:"workload"`
	Arch        string `json:"arch"`
	Scale       int    `json:"scale"`
	Name        string `json:"name"`
	Description string `json:"description"`
	SASS        string `json:"sass_sha256"`
	NumRegs     int    `json:"num_regs"`
	SharedBytes int    `json:"shared_bytes"`
	LocalBytes  int    `json:"local_bytes"`
}

type pinnedLaunch struct {
	Workload string   `json:"workload"`
	Arch     string   `json:"arch"`
	Scale    int      `json:"scale"`
	Grid     sim.Dim3 `json:"grid"`
	Block    sim.Dim3 `json:"block"`
	Params   []uint64 `json:"params"`
	Prepared string   `json:"prepared_sha256"`
	Final    string   `json:"final_sha256"`
	Cycles   float64  `json:"cycles"`
}

type pinnedTable struct {
	Builds   []pinnedBuild  `json:"builds"`
	Launches []pinnedLaunch `json:"launches"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestWorkloadsPinned fails when a model kernel or its launch moves
// without anyone saying so: for every registered name on sm_70 and sm_80
// it compares the lowered SASS, the workload's identity and the kernel's
// resources at every scale in use, and — at one small scale — the launch
// spec, the device image after Prepare and after a verified launch, and
// the cycle count, against the committed testdata/pinned.json.
//
// Regenerate the table (-update) only in a change that means to move a
// kernel or a launch, and say so in that change; never in a refactor,
// whose oracle it is.
func TestWorkloadsPinned(t *testing.T) {
	var got pinnedTable
	for _, name := range Names() {
		family, _, _ := strings.Cut(name, "_")
		scales, ok := pinnedScales[family]
		if !ok {
			t.Fatalf("no pinned scales for workload family %q (add it to pinnedScales)", family)
		}
		for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
			for _, scale := range scales.builds {
				w, err := BuildArch(name, scale, arch)
				if err != nil {
					t.Fatalf("BuildArch(%s, %d, %s): %v", name, scale, arch.SM, err)
				}
				got.Builds = append(got.Builds, pinnedBuild{
					Workload: name, Arch: arch.SM, Scale: scale,
					Name: w.Name, Description: w.Description,
					SASS:    sha([]byte(sass.Print(w.Kernel))),
					NumRegs: w.Kernel.NumRegs, SharedBytes: w.Kernel.SharedBytes, LocalBytes: w.Kernel.LocalBytes,
				})
			}

			scale := scales.launch
			w, err := BuildArch(name, scale, arch)
			if err != nil {
				t.Fatalf("BuildArch(%s, %d, %s): %v", name, scale, arch.SM, err)
			}
			dev := sim.NewDevice(arch)
			run, err := w.Prepare(dev)
			if err != nil {
				t.Fatalf("Prepare(%s@%d, %s): %v", name, scale, arch.SM, err)
			}
			l := pinnedLaunch{
				Workload: name, Arch: arch.SM, Scale: scale,
				Grid: run.Spec.Grid, Block: run.Spec.Block, Params: run.Spec.Params,
				Prepared: sha(dev.MemorySnapshot()),
			}
			res, err := sim.Launch(dev, run.Spec, sim.Config{Workers: 1, SampleSMs: 1})
			if err != nil {
				t.Fatalf("Launch(%s@%d, %s): %v", name, scale, arch.SM, err)
			}
			if err := run.Verify(dev, res); err != nil {
				t.Fatalf("Verify(%s@%d, %s): %v", name, scale, arch.SM, err)
			}
			l.Final, l.Cycles = sha(dev.MemorySnapshot()), res.Cycles
			got.Launches = append(got.Launches, l)
		}
	}

	path := filepath.Join("testdata", "pinned.json")
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want pinnedTable
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got.Builds) != len(want.Builds) || len(got.Launches) != len(want.Launches) {
		t.Fatalf("table has %d builds and %d launches, %s has %d and %d",
			len(got.Builds), len(got.Launches), path, len(want.Builds), len(want.Launches))
	}
	for i := range got.Builds {
		if got.Builds[i] != want.Builds[i] {
			t.Errorf("build moved:\n got  %+v\n want %+v", got.Builds[i], want.Builds[i])
		}
	}
	for i := range got.Launches {
		if !reflect.DeepEqual(got.Launches[i], want.Launches[i]) {
			t.Errorf("launch moved:\n got  %+v\n want %+v", got.Launches[i], want.Launches[i])
		}
	}
}
