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

// Jacobi (§5.2): one time step of the 2D heat-transfer stencil
//
//	T_new = T_old + k*(T_top + T_bottom + T_left + T_right - 4*T_old)
//
// plus a position-dependent source term that requires the six
// integer-to-float conversions the paper's §4.7 analysis reports as
// unavoidable.
//
// Variants:
//
//	naive    — five scalar global loads per point (spatially local:
//	           the §4.6 texture recommendation fires)
//	texture  — the loads replaced with tex2D() fetches (the paper's fix)
//	restrict — loads through the read-only cache (const __restrict__, §4.5)
//	shared   — 16x16 tile staged in shared memory, halo from global

const (
	jacobiBx = 16
	jacobiBy = 16
	jacobiK  = float32(0.2)
)

var jacobiSource = []string{
	/* 1 */ `// 2D heat transfer, one Jacobi iteration (isotropic material)`,
	/* 2 */ `__global__ void jacobi_step(const float* in, float* out, int W, int H, float k) {`,
	/* 3 */ `  int x = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  int y = blockIdx.y * blockDim.y + threadIdx.y;`,
	/* 5 */ `  if (x >= W || y >= H) return;`,
	/* 6 */ `  int xm = max(x-1, 0), xp = min(x+1, W-1);`,
	/* 7 */ `  int ym = max(y-1, 0), yp = min(y+1, H-1);`,
	/* 8 */ `  float told   = in[y*W + x];`,
	/* 9 */ `  float top    = in[ym*W + x], bottom = in[yp*W + x];`,
	/* 10 */ `  float left   = in[y*W + xm], right  = in[y*W + xp];`,
	/* 11 */ `  float sx = (float)x / (float)W, sy = (float)y / (float)H;`,
	/* 12 */ `  float src = 0.25f*(sx + sy + (float)xm/(float)W + (float)ym/(float)H);`,
	/* 13 */ `  out[y*W + x] = told + k*(top + bottom + left + right - 4.0f*told) + 1e-6f*src;`,
	/* 14 */ `}`,
}

var jacobiScale = scaleRule{means: "grid width and height", def: 512, multiple: jacobiBx}

// jacobi builds one §5.2 variant over a size x size grid.
func jacobi(name, variant string, size int, arch gpu.Arch) (*Workload, error) {
	W, H := size, size

	b := kasm.NewBuilder("_Z11jacobi_stepPKfPfiif", arch.SM, "jacobi.cu")
	b.SetSource(jacobiSource)
	b.NumParams(5)

	b.Line(3)
	tx := b.TidX()
	bx := b.CtaidX()
	x := b.IMad(kasm.VR(bx), kasm.VImm(jacobiBx), kasm.VR(tx))
	b.Line(4)
	ty := b.TidY()
	by := b.CtaidY()
	y := b.IMad(kasm.VR(by), kasm.VImm(jacobiBy), kasm.VR(ty))

	b.Line(5)
	wReg := b.Param32(2)
	hReg := b.Param32(3)
	pOut := b.ISetp("GE", kasm.VR(x), kasm.VR(wReg))
	b.ExitPred(pOut, false)
	b.FreePred(pOut)
	pOut2 := b.ISetp("GE", kasm.VR(y), kasm.VR(hReg))
	b.ExitPred(pOut2, false)
	b.FreePred(pOut2)

	b.Line(6)
	xm := b.IMax(kasm.VR(b.IAdd(kasm.VR(x), kasm.VImm(-1))), kasm.VImm(0))
	wm1 := b.IAdd(kasm.VR(wReg), kasm.VImm(-1))
	xp := b.IMin(kasm.VR(b.IAdd(kasm.VR(x), kasm.VImm(1))), kasm.VR(wm1))
	b.Line(7)
	ym := b.IMax(kasm.VR(b.IAdd(kasm.VR(y), kasm.VImm(-1))), kasm.VImm(0))
	hm1 := b.IAdd(kasm.VR(hReg), kasm.VImm(-1))
	yp := b.IMin(kasm.VR(b.IAdd(kasm.VR(y), kasm.VImm(1))), kasm.VR(hm1))

	in := b.ParamPtr(0)
	out := b.ParamPtr(1)

	// Byte offset helper: (row*W + col) * 4 from the input base.
	addrOf := func(row, col kasm.VReg) kasm.VReg {
		lin := b.IMad(kasm.VR(row), kasm.VR(wReg), kasm.VR(col))
		return elemAddr(b, lin, in)
	}

	var told, top, bottom, left, right kasm.VReg
	switch variant {
	case "texture":
		b.Line(8)
		told = b.Tex2D(0, kasm.VR(x), kasm.VR(y))
		b.Line(9)
		top = b.Tex2D(0, kasm.VR(x), kasm.VR(ym))
		bottom = b.Tex2D(0, kasm.VR(x), kasm.VR(yp))
		b.Line(10)
		left = b.Tex2D(0, kasm.VR(xm), kasm.VR(y))
		right = b.Tex2D(0, kasm.VR(xp), kasm.VR(y))

	case "shared":
		// Stage the block's 16x16 tile; halo cells come from global.
		sh := b.AllocShared(jacobiBx * jacobiBy * 4)
		b.Line(8)
		cAddr := addrOf(y, x)
		told = b.Ldg(cAddr, 0, 4, false)
		shOff := b.IMad(kasm.VR(ty), kasm.VImm(jacobiBx*4), kasm.VR(b.Shl(kasm.VR(tx), 2)))
		b.Sts(shOff, sh, told, 4)
		b.Bar()
		// Each neighbor: from the shared tile when the neighbor falls
		// inside this block, from global memory (the halo) otherwise.
		nbr := func(line int, p sass.Pred, shDelta int64, row, col kasm.VReg) kasm.VReg {
			b.Line(line)
			v := b.MovImmF32(0)
			gAddr := addrOf(row, col)
			b.WithPred(p, false, func() { b.LdsTo(v, shOff, sh+shDelta, 4) })
			b.WithPred(p, true, func() { b.LdgTo(v, gAddr, 0, 4, false) })
			return v
		}
		b.Line(9)
		pTop := b.ISetp("GT", kasm.VR(ty), kasm.VImm(0))
		top = nbr(9, pTop, -jacobiBx*4, ym, x)
		b.FreePred(pTop)
		pBot := b.ISetp("LT", kasm.VR(ty), kasm.VImm(jacobiBy-1))
		bottom = nbr(9, pBot, jacobiBx*4, yp, x)
		b.FreePred(pBot)
		b.Line(10)
		pLeft := b.ISetp("GT", kasm.VR(tx), kasm.VImm(0))
		left = nbr(10, pLeft, -4, y, xm)
		b.FreePred(pLeft)
		pRight := b.ISetp("LT", kasm.VR(tx), kasm.VImm(jacobiBx-1))
		right = nbr(10, pRight, 4, y, xp)
		b.FreePred(pRight)

	default: // naive and restrict
		nc := variant == "restrict"
		// Like nvcc's CSE, center/left/right share one base address with
		// constant +-4 byte displacements (cf. the paper's Listing 1) —
		// interior threads never clamp, and the boundary correction below
		// patches the rest.
		b.Line(8)
		cAddr := addrOf(y, x)
		told = b.Ldg(cAddr, 0, 4, nc)
		b.Line(9)
		top = b.Ldg(addrOf(ym, x), 0, 4, nc)
		bottom = b.Ldg(addrOf(yp, x), 0, 4, nc)
		b.Line(10)
		left = b.MovImmF32(0)
		right = b.MovImmF32(0)
		// Interior threads read [cAddr±4]; boundary threads read their
		// clamped neighbor through a separate address.
		pL := b.ISetp("EQ", kasm.VR(x), kasm.VImm(0))
		lAddr := addrOf(y, xm)
		b.WithPred(pL, true, func() { b.LdgTo(left, cAddr, -4, 4, nc) })
		b.WithPred(pL, false, func() { b.LdgTo(left, lAddr, 0, 4, nc) })
		b.FreePred(pL)
		pR := b.ISetp("EQ", kasm.VR(x), kasm.VR(wm1))
		rAddr := addrOf(y, xp)
		b.WithPred(pR, true, func() { b.LdgTo(right, cAddr, 4, 4, nc) })
		b.WithPred(pR, false, func() { b.LdgTo(right, rAddr, 0, 4, nc) })
		b.FreePred(pR)
	}

	// Source term: exactly six I2F conversions (§4.7: x, W, y, H, xm, ym).
	b.Line(11)
	fx := b.I2F(kasm.VR(x))
	fw := b.I2F(kasm.VR(wReg))
	rcpW := b.MufuRcp(kasm.VR(fw))
	sx := b.FMul(kasm.VR(fx), kasm.VR(rcpW))
	fy := b.I2F(kasm.VR(y))
	fh := b.I2F(kasm.VR(hReg))
	rcpH := b.MufuRcp(kasm.VR(fh))
	sy := b.FMul(kasm.VR(fy), kasm.VR(rcpH))
	b.Line(12)
	fxm := b.I2F(kasm.VR(xm))
	fym := b.I2F(kasm.VR(ym))
	sxm := b.FMul(kasm.VR(fxm), kasm.VR(rcpW))
	sym := b.FMul(kasm.VR(fym), kasm.VR(rcpH))
	srcSum := b.FAdd(kasm.VR(sx), kasm.VR(sy))
	b.FAddTo(kasm.VR(srcSum), kasm.VR(srcSum), kasm.VR(sxm))
	b.FAddTo(kasm.VR(srcSum), kasm.VR(srcSum), kasm.VR(sym))
	src := b.FMul(kasm.VR(srcSum), kasm.VImm(int64(math.Float32bits(0.25))))

	// Stencil combine.
	b.Line(13)
	kReg := b.Param32(4)
	sum := b.FAdd(kasm.VR(top), kasm.VR(bottom))
	b.FAddTo(kasm.VR(sum), kasm.VR(sum), kasm.VR(left))
	b.FAddTo(kasm.VR(sum), kasm.VR(sum), kasm.VR(right))
	b.FFmaTo(kasm.VR(sum), kasm.VR(told), kasm.VImm(int64(math.Float32bits(-4))), kasm.VR(sum))
	res := b.FFma(kasm.VR(kReg), kasm.VR(sum), kasm.VR(told))
	b.FFmaTo(kasm.VR(res), kasm.VR(src), kasm.VImm(int64(math.Float32bits(1e-6))), kasm.VR(res))
	oLin := b.IMad(kasm.VR(y), kasm.VR(wReg), kasm.VR(x))
	oAddr := elemAddr(b, oLin, out)
	b.Stg(oAddr, 0, res, 4)
	b.Exit()

	l := launch{
		grid:  sim.D2(W/jacobiBx, H/jacobiBy),
		block: sim.D2(jacobiBx, jacobiBy),
		bufs:  []buffer{{4 * W * H, jacobiInput}, {4 * W * H, nil}}, // in, out
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{
				bufs[0].Addr, bufs[1].Addr,
				uint64(uint32(W)), uint64(uint32(H)),
				uint64(math.Float32bits(jacobiK)),
			}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			return jacobiVerify(dev, bufs[1], W, H, res)
		},
	}
	if variant == "texture" {
		l.tex = [2]int{W, H}
	}
	desc := fmt.Sprintf("2D heat-transfer Jacobi step, %s variant, %dx%d grid", variant, W, H)
	return compile(b, codegen.Options{Arch: arch}, name, desc, l)
}

func jacobiInput(i int) float32 { return float32((i*31)%97) * 0.01 }

// jacobiRef computes the host reference for one cell.
func jacobiRef(W, H, x, y int) float32 {
	in := jacobiInput
	clampI := func(v, n int) int { return min(max(v, 0), n-1) }
	xm, xp := clampI(x-1, W), clampI(x+1, W)
	ym, yp := clampI(y-1, H), clampI(y+1, H)
	told := in(y*W + x)
	top, bottom := in(ym*W+x), in(yp*W+x)
	left, right := in(y*W+xm), in(y*W+xp)
	rcp := func(f float32) float32 { return 1 / f }
	sx := float32(x) * rcp(float32(W))
	sy := float32(y) * rcp(float32(H))
	sxm := float32(xm) * rcp(float32(W))
	sym := float32(ym) * rcp(float32(H))
	src := 0.25 * (sx + sy + sxm + sym)
	sum := top + bottom + left + right
	sum = told*(-4) + sum
	res := jacobiK*sum + told
	return src*1e-6 + res
}

// jacobiVerify checks the cells of the blocks SM sampling ran, reading
// back only their rows: a whole-grid read would copy W×H words, nearly all
// of them zeros no block wrote.
func jacobiVerify(dev *sim.Device, out sim.Buffer, W, H int, res *sim.Result) error {
	gridX := W / jacobiBx
	for _, blk := range res.RanBlocks(gridX * (H / jacobiBy)) {
		x0, y0 := blk%gridX*jacobiBx, blk/gridX*jacobiBy
		for y := y0; y < y0+jacobiBy; y++ {
			got, err := dev.ReadF32(sim.Buffer{Addr: out.Addr + uint64(4*(y*W+x0)), Size: 4 * jacobiBx}, jacobiBx)
			if err != nil {
				return err
			}
			for i, g := range got {
				if want := jacobiRef(W, H, x0+i, y); !almostEqual(float64(g), float64(want), 1e-4) {
					return fmt.Errorf("cell (%d,%d) = %v, want %v", x0+i, y, g, want)
				}
			}
		}
	}
	return nil
}
