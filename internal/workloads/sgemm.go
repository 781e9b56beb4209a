package workloads

import (
	"fmt"
	"math"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
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

// SGEMMVariant selects the §5.3 kernel version.
type SGEMMVariant int

const (
	SGEMMNaive SGEMMVariant = iota
	SGEMMRestrict
	SGEMMShared
	SGEMMSharedVec
)

func (v SGEMMVariant) String() string {
	switch v {
	case SGEMMNaive:
		return "naive"
	case SGEMMRestrict:
		return "restrict"
	case SGEMMShared:
		return "shared"
	default:
		return "shared_vec"
	}
}

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

// SGEMM builds one §5.3 variant for N x N matrices (scale = N; <= 0
// selects 256). N must be a multiple of the 16-wide output tile, and for
// the shared variants of their 64-deep K tile: a partial K tile would
// read past the matrix edge and compute wrong results.
func SGEMM(variant SGEMMVariant, n int, arch gpu.Arch) (*Workload, error) {
	if n <= 0 {
		n = 256
	}
	if n%sgemmTile != 0 {
		return nil, fmt.Errorf("workloads: sgemm N=%d not a multiple of %d", n, sgemmTile)
	}

	// The naive and restrict variants share the one-dot-product-per-thread
	// structure; restrict only changes the load path (LDG.E.NC).
	naiveStyle := variant == SGEMMNaive || variant == SGEMMRestrict
	if !naiveStyle && n%sgemmTileK != 0 {
		return nil, fmt.Errorf("workloads: sgemm_%s N=%d not a multiple of its %d-deep K tile", variant, n, sgemmTileK)
	}

	var file string
	var source []string
	switch variant {
	case SGEMMNaive:
		file, source = "sgemm.cu", sgemmNaiveSource
	case SGEMMRestrict:
		file, source = "sgemm_restrict.cu", sgemmRestrictSource
	case SGEMMShared:
		file, source = "sgemm_shared.cu", sgemmSharedSource
	default:
		file, source = "sgemm_shared_vec.cu", sgemmSharedVecSource
	}
	b := kasm.NewBuilder("_Z5sgemm"+variant.String(), arch.SM, file)
	b.SetSource(source)
	b.NumParams(6)

	// Common prologue: col, row, pointers, acc.
	lineCol, lineRow := 3, 4
	if !naiveStyle {
		lineCol, lineRow = 5, 5
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
		b.Line(lineRow)
		col = b.IMad(kasm.VR(by), kasm.VImm(sgemmTile), kasm.VR(ty))
	} else {
		col = b.IMad(kasm.VR(bx), kasm.VImm(sgemmTile), kasm.VR(tx))
		b.Line(lineRow)
		row = b.IMad(kasm.VR(by), kasm.VImm(sgemmTile), kasm.VR(ty))
	}

	nReg := b.Param32(0)
	aPtr := b.ParamPtr(2)
	bPtr := b.ParamPtr(3)
	cPtr := b.ParamPtr(5)

	accLine := 5
	if !naiveStyle {
		accLine = 6
	}
	b.Line(accLine)
	acc := b.MovImmF32(0)

	switch variant {
	case SGEMMNaive, SGEMMRestrict:
		nc := variant == SGEMMRestrict
		// aAddr = A + row*N*4 ; bAddr = B + col*4 ; step 4 and 4N.
		b.Line(6)
		rowN := b.IMul(kasm.VR(row), kasm.VR(nReg))
		aOff := b.Shl(kasm.VR(rowN), 2)
		aAddr := b.IMadWide(kasm.VR(aOff), kasm.VImm(1), aPtr)
		bOff := b.Shl(kasm.VR(col), 2)
		bAddr := b.IMadWide(kasm.VR(bOff), kasm.VImm(1), bPtr)
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
			b.IAddTo(kasm.VR(k), kasm.VR(k), kasm.VImm(1))
			p := b.ISetp("LT", kasm.VR(k), kasm.VR(nReg))
			b.BraIf(p, false, "kloop")
			b.FreePred(p)
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
			b.IAddTo(kasm.VR(k), kasm.VR(k), kasm.VImm(unroll))
			p := b.ISetp("LT", kasm.VR(k), kasm.VR(nReg))
			b.BraIf(p, false, "kloop")
			b.FreePred(p)
		}

	case SGEMMShared, SGEMMSharedVec:
		vec := variant == SGEMMSharedVec
		const tileK = sgemmTileK
		asBase := b.AllocShared(sgemmTile * tileK * 4) // As[16][64]
		bsBase := b.AllocShared(tileK * sgemmTile * 4) // Bs[64][16]
		loadLineA, loadLineB := 8, 9
		innerLine, barLine := 12, 10
		if vec {
			innerLine = 12
		}

		b.Line(7)
		rowN := b.IMul(kasm.VR(row), kasm.VR(nReg))
		stride4N := b.Shl(kasm.VR(nReg), 4) // 4*N floats = 16*N bytes per 16 rows? (16*N*4 computed below)
		_ = stride4N
		strideTile := b.Shl(kasm.VR(nReg), 8)  // tileK*N*4 = 64*N*4 bytes
		strideRow16 := b.Shl(kasm.VR(nReg), 6) // 16 rows of B = 16*N*4 bytes

		var aAddr kasm.VReg    // A tile base for this thread
		var bAddrs []kasm.VReg // B tile bases (scalar: 4 row groups; vec: 1)
		var shA, shAStore, shBStore kasm.VReg
		if !vec {
			// Scalar: thread loads As[ty][tx+16i] and Bs[ty+16i][tx].
			aLin := b.IAdd(kasm.VR(rowN), kasm.VR(tx))
			aOff := b.Shl(kasm.VR(aLin), 2)
			aAddr = b.IMadWide(kasm.VR(aOff), kasm.VImm(1), aPtr)
			tyN := b.IMul(kasm.VR(ty), kasm.VR(nReg))
			bLin := b.IAdd(kasm.VR(tyN), kasm.VR(col))
			bOff := b.Shl(kasm.VR(bLin), 2)
			b0 := b.IMadWide(kasm.VR(bOff), kasm.VImm(1), bPtr)
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
			aOff := b.Shl(kasm.VR(aLin), 2)
			aAddr = b.IMadWide(kasm.VR(aOff), kasm.VImm(1), aPtr)
			lin := b.IMad(kasm.VR(ty), kasm.VImm(sgemmTile), kasm.VR(tx))
			bRow := b.Shr(kasm.VR(lin), 2)
			colGrp := b.And(kasm.VR(lin), kasm.VImm(3))
			colBase := b.IMad(kasm.VR(bx), kasm.VImm(sgemmTile), kasm.VR(b.Shl(kasm.VR(colGrp), 2)))
			bRowN := b.IMul(kasm.VR(bRow), kasm.VR(nReg))
			bLin := b.IAdd(kasm.VR(bRowN), kasm.VR(colBase))
			bOff := b.Shl(kasm.VR(bLin), 2)
			bAddrs = append(bAddrs, b.IMadWide(kasm.VR(bOff), kasm.VImm(1), bPtr))
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
			b.Line(loadLineA)
			var avs, bvs []kasm.VReg
			for i := 0; i < 4; i++ {
				avs = append(avs, b.Ldg(aAddr, int64(16*4*i), 4, false))
			}
			b.Line(loadLineB)
			for i := 0; i < 4; i++ {
				bvs = append(bvs, b.Ldg(bAddrs[i], 0, 4, false))
			}
			b.Line(loadLineA)
			for i := 0; i < 4; i++ {
				b.Sts(shAStore, asBase+int64(16*4*i), avs[i], 4)
			}
			b.Line(loadLineB)
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
		b.Line(barLine)
		b.Bar()
		b.Line(innerLine)
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
		b.Line(barLine + 3)
		b.Bar()
		b.IAddTo(kasm.VR(kk), kasm.VR(kk), kasm.VImm(tileK))
		p := b.ISetp("LT", kasm.VR(kk), kasm.VR(nReg))
		b.BraIf(p, false, "kkloop")
		b.FreePred(p)
	}

	// Epilogue: C[row*N+col] = alpha*acc + beta*C[...].
	epiLine := 8
	if variant == SGEMMShared {
		epiLine = 15
	} else if variant == SGEMMSharedVec {
		epiLine = 17
	}
	b.Line(epiLine)
	alpha := b.Param32(1)
	beta := b.Param32(4)
	cLin := b.IMad(kasm.VR(row), kasm.VR(nReg), kasm.VR(col))
	cOff := b.Shl(kasm.VR(cLin), 2)
	cAddr := b.IMadWide(kasm.VR(cOff), kasm.VImm(1), cPtr)
	cOld := b.Ldg(cAddr, 0, 4, false)
	resv := b.FMul(kasm.VR(alpha), kasm.VR(acc))
	b.FFmaTo(kasm.VR(resv), kasm.VR(beta), kasm.VR(cOld), kasm.VR(resv))
	b.Stg(cAddr, 0, resv, 4)
	b.Exit()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	k, err := codegen.Compile(prog, codegen.Options{Arch: arch})
	if err != nil {
		return nil, err
	}

	const alphaV, betaV = float32(1.0), float32(0.5)
	w := &Workload{
		Name:        "sgemm_" + variant.String(),
		Description: fmt.Sprintf("SGEMM %s, %dx%d matrices", variant, n, n),
		Kernel:      k,
		Prepare: func(dev *sim.Device) (*Run, error) {
			bytes := 4 * n * n
			aBuf, err := dev.Alloc(bytes)
			if err != nil {
				return nil, err
			}
			bBuf, err := dev.Alloc(bytes)
			if err != nil {
				return nil, err
			}
			cBuf, err := dev.Alloc(bytes)
			if err != nil {
				return nil, err
			}
			aH := make([]float32, n*n)
			bH := make([]float32, n*n)
			cH := make([]float32, n*n)
			for i := range aH {
				aH[i] = float32((i*7)%23) * 0.05
				bH[i] = float32((i*13)%19) * 0.03
				cH[i] = float32(i%11) * 0.1
			}
			if err := dev.WriteF32(aBuf, aH); err != nil {
				return nil, err
			}
			if err := dev.WriteF32(bBuf, bH); err != nil {
				return nil, err
			}
			if err := dev.WriteF32(cBuf, cH); err != nil {
				return nil, err
			}
			spec := sim.LaunchSpec{
				Kernel: k,
				Grid:   sim.D2(n/sgemmTile, n/sgemmTile),
				Block:  sim.D2(sgemmTile, sgemmTile),
				Params: []uint64{
					uint64(uint32(n)),
					uint64(math.Float32bits(alphaV)),
					aBuf.Addr, bBuf.Addr,
					uint64(math.Float32bits(betaV)),
					cBuf.Addr,
				},
			}
			verify := func(dev *sim.Device, res *sim.Result) error {
				got, err := dev.ReadF32(cBuf, n*n)
				if err != nil {
					return err
				}
				return sgemmVerify(aH, bH, cH, got, n, alphaV, betaV, naiveStyle, res)
			}
			return &Run{Spec: spec, Verify: verify}, nil
		},
	}
	return w, nil
}

// sgemmVerify checks simulated blocks (capped for large N).
func sgemmVerify(aH, bH, cH, got []float32, n int, alpha, beta float32, naive bool, res *sim.Result) error {
	gridX := n / sgemmTile
	checked := 0
	for blin := 0; blin < gridX*gridX && checked < 4; blin++ {
		if !res.BlockRan(blin) {
			continue
		}
		checked++
		bx, by := blin%gridX, blin/gridX
		for ty := 0; ty < sgemmTile; ty++ {
			for tx := 0; tx < sgemmTile; tx++ {
				row, col := by*sgemmTile+ty, bx*sgemmTile+tx
				if naive {
					row, col = bx*sgemmTile+tx, by*sgemmTile+ty
				}
				var acc float32
				for k := 0; k < n; k++ {
					acc += aH[row*n+k] * bH[k*n+col]
				}
				want := alpha*acc + beta*cH[row*n+col]
				g := got[row*n+col]
				if !almostEqual(float64(g), float64(want), 1e-3) {
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

func init() {
	register("sgemm_naive", func(scale int, arch gpu.Arch) (*Workload, error) { return SGEMM(SGEMMNaive, scale, arch) })
	register("sgemm_restrict", func(scale int, arch gpu.Arch) (*Workload, error) { return SGEMM(SGEMMRestrict, scale, arch) })
	register("sgemm_shared", func(scale int, arch gpu.Arch) (*Workload, error) { return SGEMM(SGEMMShared, scale, arch) })
	register("sgemm_shared_vec", func(scale int, arch gpu.Arch) (*Workload, error) { return SGEMM(SGEMMSharedVec, scale, arch) })
}

// Compile-time checks that variants stay registered in sass terms.
var _ = sass.OpLDS
