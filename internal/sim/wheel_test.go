package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpuscout/internal/sass"
)

// TestSleepWheelMatchesHeap drives an SM's parked-warp sets — the timing
// wheel, the far heap and the class table — through random rounds and
// checks them against a sorted list of the sleeping warps' events. Each
// round advances now by a whole, fractional or long step, or to the next
// event as an idle round does, wakes what is due, and parks some awake
// warps at events that are fractional, tied, exactly on a tick, at the
// wheel's edge, far beyond it, or +Inf (those only a barrier release
// wakes, which the test does at random). The woken set must be exactly
// the reference's {event <= now}, nextEvent its minimum, and the class
// counts the parked warps per (instruction, reason).
func TestSleepWheelMatchesHeap(t *testing.T) {
	const insts = 6
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		warps := make([]warp, 1+rng.Intn(64))
		sm := &smState{counters: newCounters(insts)}
		sm.warpSets = warpSets{classAt: make([]int32, (insts+1)*int(NumStalls))}
		var asleep []*warp // the reference: parked warps with finite events
		for i := range warps {
			warps[i].gid = i
		}
		for round := 0; round < 300; round++ {
			sm.awake = sm.awake[:0]
			sm.wakeDue()
			var due []*warp
			asleep = slices.DeleteFunc(asleep, func(w *warp) bool {
				if w.cls.event <= sm.now {
					due = append(due, w)
					return true
				}
				return false
			})
			byGid := func(a, b *warp) int { return a.gid - b.gid }
			woken := slices.Clone(sm.awake)
			slices.SortFunc(woken, byGid)
			if slices.SortFunc(due, byGid); !slices.Equal(woken, due) {
				t.Fatalf("trial %d round %d (now %v): woke %d warps, want %d", trial, round, sm.now, len(woken), len(due))
			}
			// A barrier release wakes some +Inf sleepers directly.
			for i := range warps {
				if w := &warps[i]; w.parked && math.IsInf(w.cls.event, 1) && rng.Intn(3) == 0 {
					sm.wake(w)
				}
			}
			for i := range warps {
				w := &warps[i]
				if w.parked || rng.Intn(2) == 0 {
					continue
				}
				w.cls = wclass{event: sleepEvent(rng, sm.now), pc: uint64(rng.Intn(insts+2)) * sass.InstBytes, reason: Stall(rng.Intn(int(NumStalls)))}
				sm.park(w)
				if !math.IsInf(w.cls.event, 1) {
					asleep = append(asleep, w)
				}
			}
			checkClasses(t, sm, warps)
			want := math.Inf(1)
			for _, w := range asleep {
				want = min(want, w.cls.event)
			}
			next := sm.nextEvent()
			if math.Float64bits(next) != math.Float64bits(want) {
				t.Fatalf("trial %d round %d (now %v): next event %v, want %v", trial, round, sm.now, next, want)
			}
			switch step := rng.Intn(5); {
			case step == 0 && !math.IsInf(next, 1):
				sm.now += next - sm.now // an idle round
			case step == 1:
				sm.now += float64(rng.Intn(200))
			case step == 2:
				sm.now += 0.25 * float64(1+rng.Intn(8))
			default:
				sm.now++
			}
		}
	}
}

// sleepEvent draws a parked warp's event after now: an ALU-latency tick,
// a fractional one, one at the wheel's edge, one far past it, or +Inf.
func sleepEvent(rng *rand.Rand, now float64) float64 {
	switch rng.Intn(7) {
	case 0:
		return now + float64(1+rng.Intn(4))
	case 1:
		return now + 0.5*float64(1+rng.Intn(16))
	case 2:
		return math.Floor(now) + float64(wheelTicks-1+rng.Intn(3)) + 0.5*float64(rng.Intn(3))
	case 3:
		return now + float64(wheelTicks+rng.Intn(1000)) + rng.Float64()
	case 4:
		return math.Inf(1)
	case 5:
		return math.Ceil(now) + float64(rng.Intn(3))
	}
	return now + rng.Float64()*float64(2*wheelTicks)
}

// checkClasses requires sm's class table to count exactly its parked
// warps per (instruction, reason), and to index every class it holds.
func checkClasses(t *testing.T, sm *smState, warps []warp) {
	t.Helper()
	want := map[parkClass]int{}
	parked := 0
	for i := range warps {
		if w := &warps[i]; w.parked {
			want[parkClass{at: sm.counters.at(w.cls.pc), reason: w.cls.reason}]++
			parked++
		}
	}
	if parked != sm.parked || len(sm.classes) != len(want) {
		t.Fatalf("%d parked in %d classes, want %d in %d", sm.parked, len(sm.classes), parked, len(want))
	}
	for i, k := range sm.classes {
		if k.n != want[parkClass{at: k.at, reason: k.reason}] || int(sm.classAt[k.at*int(NumStalls)+int(k.reason)]) != i+1 {
			t.Fatalf("class %+v (index %d) does not match the parked warps", k, i)
		}
	}
}
