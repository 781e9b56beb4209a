package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/memsys"
	"gpuscout/internal/sass"
)

// refSectorWalk is sectorWalk without line groups: every sector's L1 and
// L2 lookups one at a time, in sector order, each next to the sector's
// pipe, MSHR and bandwidth calls — the call sequence sectorWalk's doc
// comment requires.
func refSectorWalk(e *engine, sm *smState, write bool, sectors []uint64, pipe *memsys.Bandwidth, mshr *mshrTracker, baseLat float64, useL1 bool) (done, svcEnd float64, n, hits uint64) {
	done, svcEnd = sm.now, sm.now
	for _, s := range sectors {
		svc := pipe.Request(sm.now, e.arch.L1SectorBytes)
		svcEnd = max(svcEnd, svc)
		hit := useL1 && sm.l1.AccessSector(s)
		lat := baseLat
		if write {
			e.l2Access(sm, true, sm.l2.AccessSector(s))
		} else if !hit {
			start := mshr.admit(svc)
			lat += (start - svc) + e.l2Access(sm, false, sm.l2.AccessSector(s))
			mshr.push(svc + lat)
		}
		if hit {
			hits++
		}
		done = max(done, svc+lat)
	}
	return done, svcEnd, uint64(len(sectors)), hits
}

// TestSectorWalkMatchesPerSector runs sectorWalk and the per-sector walk
// side by side on two SMs with small caches, over random accesses: reads
// and writes, through the L1 or bypassing it, of distinct sectors from a
// few lines that share sets, often neighbouring lines, grouped by line or
// interleaved so a line recurs in later runs. Every access's four results must be bit-equal,
// and so must the counters, which carry every L1, L2 and DRAM outcome.
func TestSectorWalkMatchesPerSector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		arch.L1Bytes = arch.L1LineBytes * arch.L1Ways * 4               // four sets
		arch.L2Bytes = arch.NumSMs * arch.L2LineBytes * arch.L2Ways * 2 // two sets per slice
		e := &engine{arch: arch, program: program{kernel: &sass.Kernel{}, plans: []smPlan{{}}}}
		grouped, ref := e.newSM(0), e.newSM(0)
		lines := make([]uint64, 48) // in pairs of neighbours
		for i := 0; i < len(lines); i += 2 {
			lines[i] = uint64(rng.Intn(1 << 16))
			lines[i+1] = lines[i] + 1
		}
		perLine := arch.L1LineBytes / arch.L1SectorBytes
		for access := 0; access < 4000; access++ {
			var sectors []uint64
			first := rng.Intn(len(lines) - 3)
			for _, l := range []int{first, first + 1, rng.Intn(len(lines)), rng.Intn(len(lines))}[:1+rng.Intn(4)] {
				for _, s := range rng.Perm(perLine)[:1+rng.Intn(perLine)] {
					if s := lines[l]*uint64(arch.L1LineBytes) + uint64(s*arch.L1SectorBytes); !slices.Contains(sectors, s) {
						sectors = append(sectors, s)
					}
				}
			}
			if rng.Intn(2) == 0 {
				rng.Shuffle(len(sectors), func(i, j int) { sectors[i], sectors[j] = sectors[j], sectors[i] })
			}
			write, useL1 := rng.Intn(4) == 0, rng.Intn(8) != 0
			d, s, n, h := e.sectorWalk(grouped, write, sectors, grouped.lsu, &grouped.lsuMiss, 28, useL1)
			rd, rs, rn, rh := refSectorWalk(e, ref, write, sectors, ref.lsu, &ref.lsuMiss, 28, useL1)
			if math.Float64bits(d) != math.Float64bits(rd) || math.Float64bits(s) != math.Float64bits(rs) || n != rn || h != rh {
				t.Fatalf("%s access %d: sectorWalk = %v %v %d %d, per-sector walk %v %v %d %d", arch.SM, access, d, s, n, h, rd, rs, rn, rh)
			}
			if !reflect.DeepEqual(grouped.counters, ref.counters) {
				t.Fatalf("%s access %d: counters differ", arch.SM, access)
			}
			step := float64(rng.Intn(40))
			grouped.now += step
			ref.now += step
		}
	}
}
