package cupti

import (
	"reflect"
	"testing"
)

// TestDeterminism: two identical launches must produce byte-identical
// PC-sampling reports — the repository's determinism guarantee (no RNG in
// the simulator or the sampler), which EXPERIMENTS.md relies on.
func TestDeterminism(t *testing.T) {
	k1, res1 := sampleKernel(t)
	k2, res2 := sampleKernel(t)
	r1, err := Collect(k1, res1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Collect(k2, res2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("PC-sampling profiles differ between identical runs")
	}
	if res1.Cycles != res2.Cycles {
		t.Errorf("cycle counts differ: %v vs %v", res1.Cycles, res2.Cycles)
	}
}
