package workloads

import (
	"fmt"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// Transpose demonstrates the §4.3 bank-conflict metric — the
// "# shared load transactions / # shared load accesses" ratio GPUscout
// computes because ncu does not expose n-way conflicts directly:
//
//	naive  — direct out[x][y] = in[y][x]: uncoalesced global stores
//	shared — staged through a 32x32 shared tile; the column-wise tile
//	         read hits ONE bank for all 32 lanes: a 32-way conflict
//	         (ratio 32.0)
//	padded — the classic fix, a 33-float row pitch: conflict-free
//	         (ratio 1.0)
const (
	transTile = 32
	transRows = 8 // block is 32 x 8; each thread moves 4 elements
)

// transposeVariants: the mangled kernel name and the source text.
var transposeVariants = map[string]struct {
	mangled string
	source  []string
}{
	"naive": {"_Z9transposePKfPfi", []string{
		/* 1 */ `// naive transpose: out[x][y] = in[y][x]`,
		/* 2 */ `__global__ void transpose(const float* in, float* out, int N) {`,
		/* 3 */ `  int x = blockIdx.x*32 + threadIdx.x;`,
		/* 4 */ `  int y = blockIdx.y*32 + threadIdx.y;`,
		/* 5 */ `  for (int i = 0; i < 32; i += 8)`,
		/* 6 */ `    out[x*N + (y+i)] = in[(y+i)*N + x];  // strided stores`,
		/* 7 */ `}`,
	}},
	"shared": {"_Z11transpose_sPKfPfi", []string{
		/* 1 */ `// tiled transpose, unpadded tile: 32-way bank conflicts`,
		/* 2 */ `__global__ void transpose_s(const float* in, float* out, int N) {`,
		/* 3 */ `  __shared__ float tile[32][32];`,
		/* 4 */ `  int x = blockIdx.x*32 + threadIdx.x, y = blockIdx.y*32 + threadIdx.y;`,
		/* 5 */ `  for (int i = 0; i < 32; i += 8)`,
		/* 6 */ `    tile[threadIdx.y+i][threadIdx.x] = in[(y+i)*N + x];`,
		/* 7 */ `  __syncthreads();`,
		/* 8 */ `  int tx = blockIdx.y*32 + threadIdx.x, ty = blockIdx.x*32 + threadIdx.y;`,
		/* 9 */ `  for (int i = 0; i < 32; i += 8)`,
		/* 10 */ `    out[(ty+i)*N + tx] = tile[threadIdx.x][threadIdx.y+i];  // column read`,
		/* 11 */ `}`,
	}},
	"padded": {"_Z11transpose_pPKfPfi", []string{
		/* 1 */ `// tiled transpose, padded tile: conflict-free`,
		/* 2 */ `__global__ void transpose_p(const float* in, float* out, int N) {`,
		/* 3 */ `  __shared__ float tile[32][33];  // +1 padding column`,
		/* 4 */ `  int x = blockIdx.x*32 + threadIdx.x, y = blockIdx.y*32 + threadIdx.y;`,
		/* 5 */ `  for (int i = 0; i < 32; i += 8)`,
		/* 6 */ `    tile[threadIdx.y+i][threadIdx.x] = in[(y+i)*N + x];`,
		/* 7 */ `  __syncthreads();`,
		/* 8 */ `  int tx = blockIdx.y*32 + threadIdx.x, ty = blockIdx.x*32 + threadIdx.y;`,
		/* 9 */ `  for (int i = 0; i < 32; i += 8)`,
		/* 10 */ `    out[(ty+i)*N + tx] = tile[threadIdx.x][threadIdx.y+i];`,
		/* 11 */ `}`,
	}},
}

var transposeScale = scaleRule{means: "matrix dimension N", def: 256, multiple: transTile}

// transpose builds one variant for an N x N float matrix.
func transpose(name, variant string, n int, arch gpu.Arch) (*Workload, error) {
	v := transposeVariants[variant]
	b := kasm.NewBuilder(v.mangled, arch.SM, name+".cu")
	b.SetSource(v.source)
	b.NumParams(3)

	pitch := transTile // tile row pitch in floats
	if variant == "padded" {
		pitch = transTile + 1
	}

	b.Line(4)
	tx := b.TidX()
	ty := b.TidY()
	bx := b.CtaidX()
	by := b.CtaidY()
	x := b.IMad(kasm.VR(bx), kasm.VImm(transTile), kasm.VR(tx))
	y := b.IMad(kasm.VR(by), kasm.VImm(transTile), kasm.VR(ty))
	nReg := b.Param32(2)
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)

	// in address for element (y+i, x): base + i*8*N*4 per step.
	b.Line(6)
	yN := b.IMul(kasm.VR(y), kasm.VR(nReg))
	inLin := b.IAdd(kasm.VR(yN), kasm.VR(x))
	inAddr := elemAddr(b, inLin, in)
	strideIn := b.Shl(kasm.VR(nReg), 5) // 8 rows * N * 4 bytes

	switch variant {
	case "naive":
		// out address for (x, y): out + (x*N + y)*4; the +i steps are
		// immediate offsets (stride 8 floats).
		xN := b.IMul(kasm.VR(x), kasm.VR(nReg))
		outLin := b.IAdd(kasm.VR(xN), kasm.VR(y))
		outAddr := elemAddr(b, outLin, out)
		for step := 0; step < transTile/transRows; step++ {
			addr := inAddr
			if step > 0 {
				addr = b.IMadWide(kasm.VR(strideIn), kasm.VImm(int64(step)), inAddr)
			}
			v := b.Ldg(addr, 0, 4, false)
			b.Stg(outAddr, int64(step*transRows*4), v, 4)
		}

	default: // shared and padded
		tile := b.AllocShared(transTile * pitch * 4)
		// Store tile[ty+i][tx].
		stOff := b.IMad(kasm.VR(ty), kasm.VImm(int64(pitch*4)), kasm.VR(b.Shl(kasm.VR(tx), 2)))
		for step := 0; step < transTile/transRows; step++ {
			addr := inAddr
			if step > 0 {
				addr = b.IMadWide(kasm.VR(strideIn), kasm.VImm(int64(step)), inAddr)
			}
			v := b.Ldg(addr, 0, 4, false)
			b.Sts(stOff, tile+int64(step*transRows*pitch*4), v, 4)
		}
		b.Line(7)
		b.Bar()
		// Read tile[tx][ty+i] (the column read) and store coalesced to
		// out[(bx*32+ty+i)*N + by*32+tx].
		b.Line(10)
		ldOff := b.IMad(kasm.VR(tx), kasm.VImm(int64(pitch*4)), kasm.VR(b.Shl(kasm.VR(ty), 2)))
		otx := b.IMad(kasm.VR(by), kasm.VImm(transTile), kasm.VR(tx))
		oty := b.IMad(kasm.VR(bx), kasm.VImm(transTile), kasm.VR(ty))
		otyN := b.IMul(kasm.VR(oty), kasm.VR(nReg))
		oLin := b.IAdd(kasm.VR(otyN), kasm.VR(otx))
		outAddr := elemAddr(b, oLin, out)
		for step := 0; step < transTile/transRows; step++ {
			v := b.Lds(ldOff, tile+int64(step*transRows*4), 4)
			addr := outAddr
			if step > 0 {
				addr = b.IMadWide(kasm.VR(strideIn), kasm.VImm(int64(step)), outAddr)
			}
			b.Stg(addr, 0, v, 4)
		}
	}
	b.Exit()

	return compile(b, codegen.Options{Arch: arch}, name, fmt.Sprintf("%dx%d matrix transpose, %s variant", n, n, variant), launch{
		grid:  sim.D2(n/transTile, n/transTile),
		block: sim.D2(transTile, transRows),
		bufs:  []buffer{{4 * n * n, transInput}, {4 * n * n, nil}}, // in, out
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{bufs[0].Addr, bufs[1].Addr, uint64(uint32(n))}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			got, err := dev.ReadF32(bufs[1], n*n)
			if err != nil {
				return err
			}
			gridX := n / transTile
			for blin := 0; blin < gridX*gridX; blin++ {
				if !res.BlockRan(blin) {
					continue
				}
				bxi, byi := blin%gridX, blin/gridX
				for dy := 0; dy < transTile; dy++ {
					for dx := 0; dx < transTile; dx++ {
						xx, yy := bxi*transTile+dx, byi*transTile+dy
						if want := transInput(yy*n + xx); got[xx*n+yy] != want {
							return fmt.Errorf("out[%d][%d] = %v, want %v", xx, yy, got[xx*n+yy], want)
						}
					}
				}
			}
			return nil
		},
	})
}

func transInput(i int) float32 { return float32(i%1021) * 0.5 }
