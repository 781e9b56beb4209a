package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refRing is the MSHR admission the simulator shipped before mshrTracker,
// kept as the oracle: the unbounded queueRing of pending completion times
// (which the issue queues still use), linearly compacted and
// quickselected on every admit. It is the definition of the model — "a
// full unit admits at the (n-capacity+1)-th smallest pending completion"
// — stated without the tracker's equivalence argument.
type refRing struct {
	queueRing
	scratch []float64
}

func (q *refRing) admit(now float64, capacity int) float64 {
	n := q.inflight(now)
	if n < capacity {
		return now
	}
	need := n - capacity + 1
	q.scratch = append(q.scratch[:0], q.times...)
	return kthSmallest(q.scratch, need-1)
}

// kthSmallest returns the k-th smallest value (0-based) of a, partially
// reordering it in place. Hoare-partition quickselect with
// median-of-three pivoting.
func kthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[lo]
}

// TestMSHRTrackerMatchesReference drives mshrTracker and the old ring
// with the same seeded streams of (non-decreasing now, latency) and
// requires every admit result to be bit-equal. Capacities are both
// architectures' LSU/TEX MSHR counts, the values experiments.AblateMSHRs
// sweeps, and small edge cases. Each stream mixes the simulator's own use
// (push the admitted start plus a latency), latencies from a small integer
// set so completion times tie, fractional bandwidth-style time steps,
// repeated now values, completions already in the past, and bursts that
// overfill the unit 20x.
//
// Non-decreasing now is the tracker's one precondition. Nothing here
// could catch the simulator violating it; that is pinned end to end by
// the suites that compare whole launches — the 92 golden reports
// (internal/scout), TestParallelDifferential and the perturbed
// Workers=1-vs-4 differential — which pass unmodified and byte-identical
// across the ring→heap→ordered-ring changes because every cycle count in them is a
// function of these admit results.
func TestMSHRTrackerMatchesReference(t *testing.T) {
	capacities := []int{1, 2, 7, 112, 144, 256, 320, 32, 64, 4096}
	for _, capacity := range capacities {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkMSHRStream(t, capacity, seed)
			}
		})
	}
}

func checkMSHRStream(t *testing.T, capacity int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(capacity)))
	ref := &refRing{}
	got := &mshrTracker{capacity: capacity}
	// The reference is O(pending) per admit and a burst leaves 20x
	// capacity pending, so above capacity 16 a burst checks every
	// (capacity/16)-th push, and the 4096 ablation point runs fewer rounds.
	admitEvery := 1
	if capacity > 16 {
		admitEvery = capacity / 16
	}
	rounds := 10
	if capacity > 512 {
		rounds = 2
	}
	tiedLat := []float64{28, 193, 193, 400, 593}

	now := 0.0
	step := 0
	admitBoth := func() float64 {
		want := ref.admit(now, capacity)
		have := got.admit(now)
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Fatalf("capacity %d seed %d step %d: admit(%v) = %v, reference %v (pending %d)",
				capacity, seed, step, now, have, want, len(ref.times))
		}
		return want
	}
	pushBoth := func(c float64) {
		ref.push(c)
		got.push(c)
	}

	for round := 0; round < rounds; round++ {
		// Steady phase: one miss per step, as memTiming issues them.
		for i := 0; i < 200; i++ {
			step++
			switch rng.Intn(4) {
			case 0: // same now again (several sectors admitted back to back)
			case 1:
				now += 0.25 * float64(1+rng.Intn(8))
			case 2:
				now += float64(rng.Intn(3))
			default:
				now += rng.Float64() * 50
			}
			start := admitBoth()
			var lat float64
			switch rng.Intn(4) {
			case 0:
				lat = rng.Float64() * 900
			case 1:
				lat = -rng.Float64() * 10 // already complete: never occupies a slot
			default:
				lat = tiedLat[rng.Intn(len(tiedLat))]
			}
			pushBoth(start + lat)
		}
		// Burst: overfill 20x at (nearly) one instant, long latencies with
		// many ties, so the pending set dwarfs the capacity.
		for i := 0; i < 20*capacity; i++ {
			step++
			if rng.Intn(16) == 0 {
				now += 0.5
			}
			c := now + 2000 + tiedLat[rng.Intn(len(tiedLat))] + float64(rng.Intn(32))
			if i%admitEvery == 0 {
				c += admitBoth() - now
			}
			pushBoth(c)
		}
		if got.n > capacity {
			t.Fatalf("capacity %d: tracker holds %d entries", capacity, got.n)
		}
		// Drain part of the backlog so the next round starts anywhere
		// between empty and overfull.
		now += float64(rng.Intn(3000))
	}
}

var mshrSink float64

// BenchmarkMSHRAdmit measures one admit+push with `depth` misses pending
// against the V100 LSU capacity. ns/op must be flat in depth: the tracker
// never looks at more than its capacity largest entries (the ring it
// replaced was linear in depth, twice, per miss).
func BenchmarkMSHRAdmit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
	}{{"64", 64}, {"1k", 1 << 10}, {"16k", 16 << 10}} {
		b.Run("depth="+bc.name, func(b *testing.B) {
			m := &mshrTracker{capacity: 112}
			now := 0.0
			// One miss per cycle, each outstanding for depth cycles: depth
			// entries are pending at every admit.
			lat := float64(bc.depth)
			for i := 0; i < 2*bc.depth; i++ {
				now++
				m.admit(now)
				m.push(now + lat)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				mshrSink = m.admit(now)
				m.push(now + lat)
			}
		})
	}
}
