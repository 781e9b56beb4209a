package sim

import (
	"context"
	"strings"
	"testing"
	"unsafe"

	"gpuscout/internal/gpu"
)

// TestReplayRefusesOtherSectorSize: a recording keeps its global accesses
// as sectors of the recorded size, so Finish on another sector size
// cannot re-cut them and must say so.
func TestReplayRefusesOtherSectorSize(t *testing.T) {
	rec := recordStride(t, 64, 2, false)
	arch := gpu.V100()
	arch.L1SectorBytes = 64
	cycles, _, err := rec.Finish(context.Background(), arch, 0)
	if err == nil || !strings.Contains(err.Error(), "sector size") {
		t.Fatalf("Finish on %d-byte sectors of a recording cut at %d: %v cycles, error %v; want an error naming the sector size",
			arch.L1SectorBytes, gpu.V100().L1SectorBytes, cycles, err)
	}
}

// TestRecordingChargesCapacity: the budget charges what the streams hold
// on the heap — every slice's capacity — not what was appended to them.
func TestRecordingChargesCapacity(t *testing.T) {
	for _, shared := range []bool{false, true} {
		rec := recordStride(t, 1024, 3, shared)
		total := 0
		for i := range rec.sms {
			sm := &rec.sms[i]
			held := 0
			for _, ws := range sm.warps {
				held += cap(ws.insts)*int(unsafe.Sizeof(recInst{})) + cap(ws.mem)*int(unsafe.Sizeof(recMem{})) +
					cap(ws.words)*int(unsafe.Sizeof(uint64(0)))
			}
			if held == 0 || sm.bytes != held {
				t.Errorf("shared=%v, SM %d: charged %d bytes, its streams hold %d", shared, i, sm.bytes, held)
			}
			total += held
		}
		if rec.Bytes() != total {
			t.Errorf("shared=%v: Bytes() = %d, the SMs hold %d", shared, rec.Bytes(), total)
		}
	}
}
