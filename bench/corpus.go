package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"gpuscout/internal/codegen"
	"gpuscout/internal/cubin"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
	"gpuscout/internal/service"
	"gpuscout/internal/workloads"
)

// benchScales pins every workload family to the problem scale the
// benchmark requests it at. The table is part of the benchmark contract:
// changing a scale changes every number, so it is a benchmark change.
var benchScales = map[string]int{
	"histogram": 4,
	"jacobi":    256,
	"mixbench":  1,
	"reduction": 0, // fixed size
	"sgemm":     128,
	"spill":     8,
	"transpose": 128,
}

// benchSampleSMs is the sample_sms every daemon request carries.
const benchSampleSMs = 2

var benchArchs = []string{"sm_70", "sm_80"}

func family(name string) string {
	if i := strings.IndexByte(name, '_'); i >= 0 {
		return name[:i]
	}
	return name
}

// request is one generated daemon request plus what the response must
// say. The program under test only ever sees body.
type request struct {
	key    string // identity of the request variant; repeats must answer byte-identically
	body   []byte // marshaled service.AnalyzeRequest
	kernel string // kernel name the report must carry
	arch   string // arch tag the report must carry
	// req is body decoded again, which only the traced pass needs and only
	// for the requests it replays (see decoded): kept on all 8000 uploads it
	// would double the corpus, and the corpus is most of durable_write's
	// resident set already.
	req service.AnalyzeRequest
}

// decoded returns a copy of r with req filled in from body.
func (r *request) decoded() (*request, error) {
	c := *r
	if err := json.Unmarshal(r.body, &c.req); err != nil {
		return nil, fmt.Errorf("%s: %w", r.key, err)
	}
	return &c, nil
}

type variant struct {
	tag                         string
	slices, verify, sensitivity bool
}

var (
	variantPlain  = variant{tag: "plain"}
	variantSlices = variant{tag: "slices", slices: true}
	variantSwept  = variant{tag: "swept", slices: true, verify: true, sensitivity: true}
)

// corpusRequests builds the request for every (workload, arch, variant)
// combination, in the registry's sorted order. Building each workload once
// here is the "corpus build" part of set-up: it yields the kernel name the
// response checks compare against.
func corpusRequests(names []string, variants []variant) ([]*request, error) {
	var out []*request
	for _, name := range names {
		scale, ok := benchScales[family(name)]
		if !ok {
			return nil, fmt.Errorf("no bench scale for workload family %q", family(name))
		}
		for _, archName := range benchArchs {
			arch, err := gpu.ByName(archName)
			if err != nil {
				return nil, err
			}
			w, err := workloads.BuildArch(name, scale, arch)
			if err != nil {
				return nil, fmt.Errorf("build %s@%d/%s: %w", name, scale, archName, err)
			}
			for _, v := range variants {
				body, err := json.Marshal(service.AnalyzeRequest{
					Workload: name, Scale: scale, Arch: archName, SampleSMs: benchSampleSMs,
					StallSlices: v.slices, Verify: v.verify, Sensitivity: v.sensitivity,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, &request{
					key: name + "/" + archName + "/" + v.tag, body: body,
					kernel: w.Kernel.Name, arch: arch.SM,
				})
			}
		}
	}
	return out, nil
}

// sweptNames is the cold_swept population: every non-mixbench workload
// plus mixbench_sp_naive (one stall-bound kernel keeps the tail honest
// without the six mixbench variants owning the whole run).
func sweptNames() []string {
	var out []string
	for _, n := range workloads.Names() {
		if family(n) != "mixbench" || n == "mixbench_sp_naive" {
			out = append(out, n)
		}
	}
	return out
}

// shuffledPasses returns an op sequence made of `passes` seeded shuffles
// of [0,n): every pass carries each request exactly once, so the work in
// a whole pass does not depend on the seed — only its order does.
func shuffledPasses(seed int64, n, passes int) []int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, n*passes)
	for p := 0; p < passes; p++ {
		seq = append(seq, rng.Perm(n)...)
	}
	return seq
}

// zipfRankSeed fixes which request holds which popularity rank. It is
// deliberately not the run seed: report sizes differ 10x across the
// corpus, so letting the seed pick the hot keys would make every metric a
// function of the seed instead of the program.
const zipfRankSeed = 0x5EED

// zipfSequence draws `ops` indices into a corpus of n requests from
// Zipf(s=1.1): a few hot keys and a long tail, the shape of CI traffic
// re-analysing the same kernels.
func zipfSequence(seed int64, n, ops int) []int {
	rank := rand.New(rand.NewSource(zipfRankSeed)).Perm(n)
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(n-1))
	seq := make([]int, ops)
	for i := range seq {
		seq[i] = rank[z.Uint64()]
	}
	return seq
}

// sequenceHash fingerprints an op sequence over its requests' keys, for
// the "same seed, same inputs" check.
func sequenceHash(reqs []*request, seq []int) string {
	h := sha256.New()
	for _, i := range seq {
		h.Write([]byte(reqs[i].key))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// synthKernel builds one unique seeded kernel of roughly `size`
// instructions with kasm and lowers it with codegen: global loads of
// mixed width and cache policy, fp and integer arithmetic, conversions, a
// store. It is only ever analysed statically, so it need not compute
// anything meaningful — it has to give the parser, the kernel view and
// the detectors realistic work.
func synthKernel(rng *rand.Rand, idx, size int, arch gpu.Arch) (*sass.Kernel, error) {
	b := kasm.NewBuilder(fmt.Sprintf("_Z5synth%06dPKfPf", idx), arch.SM, "synth.cu")
	b.NumParams(2)
	b.Line(1)
	gid := b.IMad(kasm.VR(b.CtaidX()), kasm.VR(b.NTidX()), kasm.VR(b.TidX()))
	in, out := b.ParamPtr(0), b.ParamPtr(1)
	off := b.Shl(kasm.VR(gid), 2)
	src := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	dst := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	acc := b.Ldg(src, 0, 4, false)
	vals := []kasm.VReg{acc, b.MovImmF32(float32(idx%97) + 1)}
	pick := func() kasm.VOperand { return kasm.VR(vals[rng.Intn(len(vals))]) }
	push := func(v kasm.VReg) {
		// A bounded pool keeps register pressure (and so compile time)
		// flat regardless of kernel length.
		if len(vals) < 10 {
			vals = append(vals, v)
		} else {
			vals[2+rng.Intn(len(vals)-2)] = v
		}
	}
	for n := 0; n < size; n++ {
		b.Line(2 + n/4)
		switch rng.Intn(8) {
		case 0:
			push(b.Ldg(src, int64(4*rng.Intn(64)), 4, rng.Intn(2) == 0))
		case 1:
			q := b.Ldg(src, int64(16*rng.Intn(16)), 16, false)
			b.FFmaTo(kasm.VR(acc), kasm.VRElem(q, rng.Intn(4)), pick(), kasm.VR(acc))
		case 2, 3:
			b.FFmaTo(kasm.VR(acc), pick(), pick(), kasm.VR(acc))
		case 4:
			push(b.FMul(pick(), pick()))
		case 5:
			push(b.FAdd(pick(), pick()))
		case 6:
			push(b.I2F(kasm.VR(b.IAdd(kasm.VR(gid), kasm.VImm(int64(rng.Intn(1024)))))))
		case 7:
			push(b.I2F(kasm.VR(b.F2I(pick()))))
		}
	}
	b.Stg(dst, 0, acc, 4)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	return codegen.Compile(prog, codegen.Options{Arch: arch})
}

// uploadRequests generates n unique static uploads: even ops carry the
// kernel as SASS text, odd ops as cubin bytes, alternating sm_70/sm_80
// every two ops so both encodings meet both backends. Each kernel has its
// own generator, so kernel i is the same whatever n and workers are.
func uploadRequests(seed int64, n, workers int) ([]*request, error) {
	out := make([]*request, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				out[i], errs[w] = uploadRequest(seed, i)
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func uploadRequest(seed int64, i int) (*request, error) {
	rng := rand.New(rand.NewSource(seed<<20 + int64(i)))
	archName := benchArchs[(i/2)%len(benchArchs)]
	arch, err := gpu.ByName(archName)
	if err != nil {
		return nil, err
	}
	k, err := synthKernel(rng, i, 24+rng.Intn(200), arch)
	if err != nil {
		return nil, fmt.Errorf("synth kernel %d: %w", i, err)
	}
	req := service.AnalyzeRequest{Arch: archName}
	if i%2 == 0 {
		req.SASS = sass.Print(k)
	} else {
		bin := cubin.New(arch.SM)
		if err := bin.Add(k); err != nil {
			return nil, err
		}
		if req.Cubin, err = cubin.Encode(bin); err != nil {
			return nil, err
		}
	}
	body, err := json.Marshal(req)
	return &request{key: fmt.Sprintf("upload/%06d", i), body: body, kernel: k.Name, arch: arch.SM}, err
}
