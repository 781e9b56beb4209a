package workloads

import (
	"fmt"
	"math"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// SGEMM (§5.3): C = alpha*A*B + beta*C.
//
//	naive      — each thread computes one dot product straight from
//	             global memory (the paper's starting point; 25 registers)
//	shared     — 16x16 tiles of A and B staged in shared memory (the
//	             paper's first fix: 54x)
//	shared_vec — tile loads vectorized with float4 (the second fix: +8.5%,
//	             at the cost of a large register-count increase)

const (
	sgemmTile  = 16
	sgemmTileK = 4 * sgemmTile // the shared variants stage 64-deep K tiles
)

var sgemmNaiveSource = []string{
	/* 1 */ `// naive SGEMM: C = alpha*A*B + beta*C`,
	/* 2 */ `__global__ void sgemm(int N, float alpha, const float* A, const float* B, float beta, float* C) {`,
	/* 3 */ `  int row = blockIdx.x * blockDim.x + threadIdx.x;  // thread x -> row: uncoalesced`,
	/* 4 */ `  int col = blockIdx.y * blockDim.y + threadIdx.y;`,
	/* 5 */ `  float acc = 0.0f;`,
	/* 6 */ `  for (int k = 0; k < N; k++)`,
	/* 7 */ `    acc += A[row*N + k] * B[k*N + col];`,
	/* 8 */ `  C[row*N + col] = alpha*acc + beta*C[row*N + col];`,
	/* 9 */ `}`,
}

var sgemmRestrictSource = []string{
	/* 1 */ `// naive SGEMM with read-only input pointers (the GPUscout fix)`,
	/* 2 */ `__global__ void sgemm_r(int N, float alpha, const float* __restrict__ A, const float* __restrict__ B, float beta, float* C) {`,
	/* 3 */ `  int row = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  int col = blockIdx.y * blockDim.y + threadIdx.y;`,
	/* 5 */ `  float acc = 0.0f;`,
	/* 6 */ `  for (int k = 0; k < N; k++)  // no-alias: nvcc unrolls x4 and batches the loads`,
	/* 7 */ `    acc += A[row*N + k] * B[k*N + col];  // LDG.E.NC via the read-only cache`,
	/* 8 */ `  C[row*N + col] = alpha*acc + beta*C[row*N + col];`,
	/* 9 */ `}`,
}

var sgemmSharedSource = []string{
	/* 1 */ `// tiled SGEMM with shared memory (16x64 K-tiles)`,
	/* 2 */ `__global__ void sgemm_shared(int N, float alpha, const float* A, const float* B, float beta, float* C) {`,
	/* 3 */ `  __shared__ float As[16][64], Bs[64][16];`,
	/* 4 */ `  int tx = threadIdx.x, ty = threadIdx.y;`,
	/* 5 */ `  int col = blockIdx.x*16 + tx, row = blockIdx.y*16 + ty;`,
	/* 6 */ `  float acc = 0.0f;`,
	/* 7 */ `  for (int kk = 0; kk < N; kk += 64) {`,
	/* 8 */ `    for (int i = 0; i < 4; i++) As[ty][tx+16*i] = A[row*N + kk + tx + 16*i];`,
	/* 9 */ `    for (int i = 0; i < 4; i++) Bs[ty+16*i][tx] = B[(kk+ty+16*i)*N + col];`,
	/* 10 */ `    __syncthreads();`,
	/* 11 */ `    for (int j = 0; j < 64; j++)`,
	/* 12 */ `      acc += As[ty][j] * Bs[j][tx];`,
	/* 13 */ `    __syncthreads();`,
	/* 14 */ `  }`,
	/* 15 */ `  C[row*N + col] = alpha*acc + beta*C[row*N + col];`,
	/* 16 */ `}`,
}

var sgemmSharedVecSource = []string{
	/* 1 */ `// tiled SGEMM (16x64 K-tiles), float4-vectorized tile loads`,
	/* 2 */ `__global__ void sgemm_shared_vec(int N, float alpha, const float* A, const float* B, float beta, float* C) {`,
	/* 3 */ `  __shared__ float As[16][64], Bs[64][16];`,
	/* 4 */ `  int tx = threadIdx.x, ty = threadIdx.y, lin = ty*16 + tx;`,
	/* 5 */ `  int col = blockIdx.x*16 + tx, row = blockIdx.y*16 + ty;`,
	/* 6 */ `  float acc = 0.0f;`,
	/* 7 */ `  for (int kk = 0; kk < N; kk += 64) {`,
	/* 8 */ `    *(float4*)&As[ty][tx*4] = *(const float4*)&A[row*N + kk + tx*4];`,
	/* 9 */ `    *(float4*)&Bs[lin/4][(lin%4)*4] = *(const float4*)&B[(kk + lin/4)*N + blockIdx.x*16 + (lin%4)*4];`,
	/* 10 */ `    __syncthreads();`,
	/* 11 */ `    for (int j = 0; j < 64; j++)`,
	/* 12 */ `      acc += As[ty][j] * Bs[j][tx];`,
	/* 13 */ `    __syncthreads();`,
	/* 14 */ `  }`,
	/* 15 */ `  C[row*N + col] = alpha*acc + beta*C[row*N + col];`,
	/* 16 */ `}`,
}

// N must be a multiple of the 16-wide output tile, and for the shared
// variants of their 64-deep K tile: a partial K tile would read past the
// matrix edge and compute wrong results.
var (
	sgemmScale      = scaleRule{means: "matrix dimension N", def: 256, multiple: sgemmTile}
	sgemmTiledScale = scaleRule{means: "matrix dimension N", def: 256, multiple: sgemmTileK}
)

// sgemmVariants: source file, its text, and the line of the epilogue.
var sgemmVariants = map[string]struct {
	file    string
	source  []string
	epiLine int
}{
	"naive":      {"sgemm.cu", sgemmNaiveSource, 8},
	"restrict":   {"sgemm_restrict.cu", sgemmRestrictSource, 8},
	"shared":     {"sgemm_shared.cu", sgemmSharedSource, 15},
	"shared_vec": {"sgemm_shared_vec.cu", sgemmSharedVecSource, 17},
}

// sgemm builds one §5.3 variant for N x N matrices.
func sgemm(name, variant string, n int, arch gpu.Arch) (*Workload, error) {
	// The naive and restrict variants share the one-dot-product-per-thread
	// structure; restrict only changes the load path (LDG.E.NC).
	naiveStyle := variant == "naive" || variant == "restrict"
	v := sgemmVariants[variant]
	b := kasm.NewBuilder("_Z5sgemm"+variant, arch.SM, v.file)
	b.SetSource(v.source)
	b.NumParams(6)

	// Common prologue: col, row, pointers, acc.
	lineCol, lineAcc := 3, 5
	if !naiveStyle {
		lineCol, lineAcc = 5, 6
	}
	b.Line(lineCol)
	tx := b.TidX()
	bx := b.CtaidX()
	ty := b.TidY()
	by := b.CtaidY()
	var row, col kasm.VReg
	if naiveStyle {
		// The paper's starting point maps threadIdx.x to the matrix ROW:
		// lanes of a warp read A (and write C) with stride N — the
		// uncoalesced pattern whose repair is worth 54x.
		row = b.IMad(kasm.VR(bx), kasm.VImm(sgemmTile), kasm.VR(tx))
		b.Line(4)
		col = b.IMad(kasm.VR(by), kasm.VImm(sgemmTile), kasm.VR(ty))
	} else {
		col = b.IMad(kasm.VR(bx), kasm.VImm(sgemmTile), kasm.VR(tx))
		row = b.IMad(kasm.VR(by), kasm.VImm(sgemmTile), kasm.VR(ty))
	}

	nReg := b.Param32(0)
	aPtr := b.ParamPtr(2)
	bPtr := b.ParamPtr(3)
	cPtr := b.ParamPtr(5)

	b.Line(lineAcc)
	acc := b.MovImmF32(0)

	if naiveStyle {
		nc := variant == "restrict"
		// aAddr = A + row*N*4 ; bAddr = B + col*4 ; step 4 and 4N.
		b.Line(6)
		rowN := b.IMul(kasm.VR(row), kasm.VR(nReg))
		aAddr := elemAddr(b, rowN, aPtr)
		bAddr := elemAddr(b, col, bPtr)
		strideB := b.Shl(kasm.VR(nReg), 2)
		k := b.MovImm(0)
		if !nc {
			b.LabelName("kloop")
			b.Line(7)
			av := b.Ldg(aAddr, 0, 4, false)
			bv := b.Ldg(bAddr, 0, 4, false)
			b.FFmaTo(kasm.VR(acc), kasm.VR(av), kasm.VR(bv), kasm.VR(acc))
			b.Line(6)
			b.IAddTo(kasm.VRElem(aAddr, 0), kasm.VRElem(aAddr, 0), kasm.VImm(4))
			b.IAddTo(kasm.VRElem(bAddr, 0), kasm.VRElem(bAddr, 0), kasm.VR(strideB))
			loopWhileLess(b, k, 1, kasm.VR(nReg), "kloop")
		} else {
			// __restrict__ guarantees A and B cannot alias the C store, so
			// ptxas unrolls the dot-product loop by 4 and batches the
			// LDG.E.NC loads before the FFMAs — each warp now has eight
			// reads in flight instead of two, which is where the measured
			// benefit on this latency-bound kernel comes from.
			const unroll = 4
			bAddrs := []kasm.VReg{bAddr}
			for i := 1; i < unroll; i++ {
				bAddrs = append(bAddrs, b.IMadWide(kasm.VR(strideB), kasm.VImm(int64(i)), bAddr))
			}
			strideB4 := b.Shl(kasm.VR(nReg), 4) // unroll*N*4 bytes
			b.LabelName("kloop")
			b.Line(7)
			var avs, bvs [unroll]kasm.VReg
			for i := 0; i < unroll; i++ {
				avs[i] = b.Ldg(aAddr, int64(4*i), 4, true)
			}
			for i := 0; i < unroll; i++ {
				bvs[i] = b.Ldg(bAddrs[i], 0, 4, true)
			}
			for i := 0; i < unroll; i++ {
				b.FFmaTo(kasm.VR(acc), kasm.VR(avs[i]), kasm.VR(bvs[i]), kasm.VR(acc))
			}
			b.Line(6)
			b.IAddTo(kasm.VRElem(aAddr, 0), kasm.VRElem(aAddr, 0), kasm.VImm(4*unroll))
			for i := 0; i < unroll; i++ {
				b.IAddTo(kasm.VRElem(bAddrs[i], 0), kasm.VRElem(bAddrs[i], 0), kasm.VR(strideB4))
			}
			loopWhileLess(b, k, unroll, kasm.VR(nReg), "kloop")
		}

	} else {
		vec := variant == "shared_vec"
		const tileK = sgemmTileK
		asBase := b.AllocShared(sgemmTile * tileK * 4) // As[16][64]
		bsBase := b.AllocShared(tileK * sgemmTile * 4) // Bs[64][16]

		b.Line(7)
		rowN := b.IMul(kasm.VR(row), kasm.VR(nReg))
		// Unused, and not removable: it is the SHF.L R13, R9, 0x4 at 0x00f0
		// of the pinned sgemm_shared kernels, and the virtual register it
		// takes numbers every one after it.
		b.Shl(kasm.VR(nReg), 4)
		strideTile := b.Shl(kasm.VR(nReg), 8)  // tileK*N*4 = 64*N*4 bytes
		strideRow16 := b.Shl(kasm.VR(nReg), 6) // 16 rows of B = 16*N*4 bytes

		var aAddr kasm.VReg    // A tile base for this thread
		var bAddrs []kasm.VReg // B tile bases (scalar: 4 row groups; vec: 1)
		var shA, shAStore, shBStore kasm.VReg
		if !vec {
			// Scalar: thread loads As[ty][tx+16i] and Bs[ty+16i][tx].
			aLin := b.IAdd(kasm.VR(rowN), kasm.VR(tx))
			aAddr = elemAddr(b, aLin, aPtr)
			tyN := b.IMul(kasm.VR(ty), kasm.VR(nReg))
			bLin := b.IAdd(kasm.VR(tyN), kasm.VR(col))
			b0 := elemAddr(b, bLin, bPtr)
			bAddrs = append(bAddrs, b0)
			for i := 1; i < 4; i++ {
				bAddrs = append(bAddrs, b.IMadWide(kasm.VR(strideRow16), kasm.VImm(int64(i)), b0))
			}
			shAStore = b.IMad(kasm.VR(ty), kasm.VImm(tileK*4), kasm.VR(b.Shl(kasm.VR(tx), 2)))
			shBStore = b.IMad(kasm.VR(ty), kasm.VImm(sgemmTile*4), kasm.VR(b.Shl(kasm.VR(tx), 2)))
		} else {
			// Vectorized: thread loads As[ty][tx*4..] and Bs row lin/4,
			// column group lin%4, each as one float4.
			aLin := b.IAdd(kasm.VR(rowN), kasm.VR(b.Shl(kasm.VR(tx), 2)))
			aAddr = elemAddr(b, aLin, aPtr)
			lin := b.IMad(kasm.VR(ty), kasm.VImm(sgemmTile), kasm.VR(tx))
			bRow := b.Shr(kasm.VR(lin), 2)
			colGrp := b.And(kasm.VR(lin), kasm.VImm(3))
			colBase := b.IMad(kasm.VR(bx), kasm.VImm(sgemmTile), kasm.VR(b.Shl(kasm.VR(colGrp), 2)))
			bRowN := b.IMul(kasm.VR(bRow), kasm.VR(nReg))
			bLin := b.IAdd(kasm.VR(bRowN), kasm.VR(colBase))
			bAddrs = append(bAddrs, elemAddr(b, bLin, bPtr))
			shAStore = b.IMad(kasm.VR(ty), kasm.VImm(tileK*4), kasm.VR(b.Shl(kasm.VR(tx), 4)))
			shBStore = b.IMad(kasm.VR(bRow), kasm.VImm(sgemmTile*4), kasm.VR(b.Shl(kasm.VR(colGrp), 4)))
		}
		shA = b.IMul(kasm.VR(ty), kasm.VImm(tileK*4)) // As row base for compute
		shBLd := b.Shl(kasm.VR(tx), 2)                // Bs[j][tx]

		kk := b.MovImm(0)
		b.LabelName("kkloop")
		if !vec {
			// Issue all global loads first (overlapping their latency),
			// then drain into the tiles.
			b.Line(8)
			var avs, bvs []kasm.VReg
			for i := 0; i < 4; i++ {
				avs = append(avs, b.Ldg(aAddr, int64(16*4*i), 4, false))
			}
			b.Line(9)
			for i := 0; i < 4; i++ {
				bvs = append(bvs, b.Ldg(bAddrs[i], 0, 4, false))
			}
			b.Line(8)
			for i := 0; i < 4; i++ {
				b.Sts(shAStore, asBase+int64(16*4*i), avs[i], 4)
			}
			b.Line(9)
			for i := 0; i < 4; i++ {
				b.Sts(shBStore, bsBase+int64(16*sgemmTile*4*i), bvs[i], 4)
			}
		} else {
			b.Line(8)
			aq := b.Ldg(aAddr, 0, 16, false)
			b.Line(9)
			bq := b.Ldg(bAddrs[0], 0, 16, false)
			b.Line(8)
			b.Sts(shAStore, asBase, aq, 16)
			b.Line(9)
			b.Sts(shBStore, bsBase, bq, 16)
		}
		b.Line(10)
		b.Bar()
		b.Line(12)
		for j := 0; j < tileK; j++ {
			av := b.Lds(shA, asBase+int64(j*4), 4)
			bvv := b.Lds(shBLd, bsBase+int64(j*sgemmTile*4), 4)
			b.FFmaTo(kasm.VR(acc), kasm.VR(av), kasm.VR(bvv), kasm.VR(acc))
		}
		b.Line(7)
		b.IAddTo(kasm.VRElem(aAddr, 0), kasm.VRElem(aAddr, 0), kasm.VImm(tileK*4))
		for _, ba := range bAddrs {
			b.IAddTo(kasm.VRElem(ba, 0), kasm.VRElem(ba, 0), kasm.VR(strideTile))
		}
		b.Line(13)
		b.Bar()
		loopWhileLess(b, kk, tileK, kasm.VR(nReg), "kkloop")
	}

	// Epilogue: C[row*N+col] = alpha*acc + beta*C[...].
	b.Line(v.epiLine)
	alpha := b.Param32(1)
	beta := b.Param32(4)
	cLin := b.IMad(kasm.VR(row), kasm.VR(nReg), kasm.VR(col))
	cAddr := elemAddr(b, cLin, cPtr)
	cOld := b.Ldg(cAddr, 0, 4, false)
	resv := b.FMul(kasm.VR(alpha), kasm.VR(acc))
	b.FFmaTo(kasm.VR(resv), kasm.VR(beta), kasm.VR(cOld), kasm.VR(resv))
	b.Stg(cAddr, 0, resv, 4)
	b.Exit()

	const alphaV, betaV = float32(1.0), float32(0.5)
	return compile(b, codegen.Options{Arch: arch}, name, fmt.Sprintf("SGEMM %s, %dx%d matrices", variant, n, n), launch{
		grid:  sim.D2(n/sgemmTile, n/sgemmTile),
		block: sim.D2(sgemmTile, sgemmTile),
		bufs:  []buffer{{4 * n * n, sgemmA}, {4 * n * n, sgemmB}, {4 * n * n, sgemmC}},
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{
				uint64(uint32(n)),
				uint64(math.Float32bits(alphaV)),
				bufs[0].Addr, bufs[1].Addr,
				uint64(math.Float32bits(betaV)),
				bufs[2].Addr,
			}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			return sgemmVerify(dev, bufs[2], n, alphaV, betaV, naiveStyle, res)
		},
	})
}

// The inputs: A, B and the C that beta scales.
func sgemmA(i int) float32 { return float32((i*7)%23) * 0.05 }
func sgemmB(i int) float32 { return float32((i*13)%19) * 0.03 }
func sgemmC(i int) float32 { return float32(i%11) * 0.1 }

// sgemmVerify checks simulated blocks (capped for large N), reading back
// only their 16x16 tiles of c.
func sgemmVerify(dev *sim.Device, c sim.Buffer, n int, alpha, beta float32, naive bool, res *sim.Result) error {
	gridX := n / sgemmTile
	checked := 0
	for blin := 0; blin < gridX*gridX && checked < 4; blin++ {
		if !res.BlockRan(blin) {
			continue
		}
		checked++
		// Either mapping puts a block's cells in 16 rows of 16 columns.
		rows, cols := (blin/gridX)*sgemmTile, (blin%gridX)*sgemmTile
		if naive {
			rows, cols = cols, rows
		}
		for row := rows; row < rows+sgemmTile; row++ {
			got, err := dev.ReadF32(sim.Buffer{Addr: c.Addr + uint64(4*(row*n+cols)), Size: 4 * sgemmTile}, sgemmTile)
			if err != nil {
				return err
			}
			for col := cols; col < cols+sgemmTile; col++ {
				var acc float32
				for k := 0; k < n; k++ {
					acc += sgemmA(row*n+k) * sgemmB(k*n+col)
				}
				want := alpha*acc + beta*sgemmC(row*n+col)
				if g := got[col-cols]; !almostEqual(float64(g), float64(want), 1e-3) {
					return fmt.Errorf("C[%d,%d] = %v, want %v", row, col, g, want)
				}
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("no simulated block to verify")
	}
	return nil
}
