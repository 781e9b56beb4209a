package sim

import (
	"context"
	"reflect"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
)

// FuzzLaunch feeds arbitrary SASS text through the parser and, when it
// parses and validates, launches one 32-thread block of it: Launch must
// return — a result or an error — and never panic, whatever the kernel.
// And whenever the launch succeeds and was recorded, replaying the
// recording on the same arch must return the same Result (wall time
// excepted): the record/replay seam loses nothing the timing model reads.
// The committed seeds (testdata/fuzz/FuzzLaunch) are the disassembly of
// every registered workload on sm_70 and sm_80 plus the kernels that used
// to crash the executor (RZ as a register pair, a read beyond regs=, a
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
		dev := NewDevice(arch)
		buf := dev.MustAlloc(64 << 10)
		params := make([]uint64, max(1, min(16, (k.ConstBytes-paramBase)/8)))
		for i := range params {
			params[i] = buf.Addr
		}
		params[len(params)-1] = 64
		res, rec, err := Record(context.Background(), dev, LaunchSpec{Kernel: k, Grid: D1(1), Block: D1(32), Params: params},
			Config{SampleSMs: 1, Workers: 1, MaxCycles: 20000})
		if err != nil || rec == nil {
			return
		}
		again, err := rec.Replay(context.Background(), arch)
		if err != nil {
			t.Fatalf("replay of a recorded launch: %v", err)
		}
		res.Host, again.Host = HostStats{}, HostStats{}
		if !reflect.DeepEqual(res, again) {
			t.Errorf("replay on the recorded arch differs from the recorded launch:\nrecorded: %+v\nreplayed: %+v", res, again)
		}
	})
}
