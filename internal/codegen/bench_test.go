package codegen

import (
	"math/rand"
	"testing"

	"gpuscout/internal/gpu"
)

// BenchmarkCompile times kasm building plus Compile. "synth" is one
// 130-operation kernel of bench/corpus.go's synthKernel shape, the
// kernels durable_write's set-up lowers 8 000 of; "pinned" is all of
// TestCompilePinned's population per op (loops, spill rounds, fusion).
// allocs/op is an exact work count for the seeds.
func BenchmarkCompile(b *testing.B) {
	b.Run("synth", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := genProgram(rand.New(rand.NewSource(46)), 46, 130, "sm_70", false, false)
			if _, err := Compile(p, Options{Arch: gpu.V100()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pinned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < pinnedPrograms; j++ {
				p, opts := pinnedCase(j)
				if _, err := Compile(p, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
