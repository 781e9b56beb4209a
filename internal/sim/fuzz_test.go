package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
)

// replay times the whole recorded launch on arch, every SM as one launch
// would, and returns the Result LaunchContext would on a device of that
// architecture: the whole-launch counterpart of Finish, built from the
// same engine.
func replay(rec *Recording, arch gpu.Arch) (*Result, error) {
	e, err := rec.replayOn(context.Background(), arch)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// FuzzLaunch feeds arbitrary SASS text through the parser and, when it
// parses and validates, launches one 128-thread block of it: Launch must
// return — a result or an error — and never panic, whatever the kernel.
// Four warps put two on one scheduler under issue_width/down, so the
// checks below see the greedy pick order, not one warp's lone issue.
// And whenever the launch succeeds and was recorded, replaying the
// recording must return the Result (wall time excepted) — cycles, every
// counter and stall integral — of the recorded launch on the same arch,
// and of a launch on a fresh device under every gpu.Perturbations cell:
// the record/replay seam loses nothing the timing model reads. Finish,
// which replays one SM without counting, must fail as that replay does
// or return its SMFinish bit for bit (the launch samples one SM). The
// committed seeds (testdata/fuzz/FuzzLaunch) are the disassembly of every
// registered workload on sm_70 and sm_80 plus the kernels that used to
// crash the executor (RZ as a register pair, a read beyond regs=, a
// missing operand or modifier).
//
// Parameter slots are filled the way kernel signatures usually run —
// pointers first, a small count last — so most seeds get past their bounds
// guard and execute their body against a real buffer.
func FuzzLaunch(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte) {
		k, err := sass.Parse(string(text))
		if err != nil || k.Validate() != nil {
			return
		}
		arch, err := gpu.ByName(k.Arch)
		if err != nil {
			arch = gpu.V100()
		}
		cfg := Config{SampleSMs: 1, Workers: 1, MaxCycles: 20000}
		launchOn := func(arch gpu.Arch, record bool) (*Result, *Recording, error) {
			dev := NewDevice(arch)
			buf := dev.MustAlloc(64 << 10)
			params := make([]uint64, max(1, min(16, (k.ConstBytes-sass.ParamBase)/8)))
			for i := range params {
				params[i] = buf.Addr
			}
			params[len(params)-1] = 64
			return launch(context.Background(), dev, LaunchSpec{Kernel: k, Grid: D1(1), Block: D1(128), Params: params}, cfg, record)
		}
		res, rec, err := launchOn(arch, true)
		if err != nil || rec == nil {
			return
		}
		check := func(cell string, want *Result, wantErr error, a gpu.Arch) {
			got, err := replay(rec, a)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: replay error %v, launch error %v", cell, err, wantErr)
			}
			cycles, _, ferr := rec.Finish(context.Background(), a, 0)
			if fmt.Sprint(ferr) != fmt.Sprint(err) {
				t.Fatalf("%s: Finish error %v, replay error %v", cell, ferr, err)
			}
			if err != nil {
				return
			}
			if math.Float64bits(cycles) != math.Float64bits(got.SMFinish[0]) {
				t.Errorf("%s: Finish returns %v cycles, the replay's SM finished at %v", cell, cycles, got.SMFinish[0])
			}
			want.Host, got.Host = HostStats{}, HostStats{}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: replay differs from the launch:\nlaunched: %+v\nreplayed: %+v", cell, want, got)
			}
		}
		check("recorded arch", res, nil, arch)
		for _, p := range gpu.Perturbations() {
			pa := p.Apply(arch)
			want, _, err := launchOn(pa, false)
			check(p.ID(), want, err, pa)
		}
	})
}
