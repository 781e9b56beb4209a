package main

// Reference time. The hosts this benchmark runs on are small shared
// virtual machines whose speed changes under the program, in stretches of
// seconds to minutes: ten identical 10-second runs of any workload spread
// 10-31 % in wall-clock throughput, whatever statistic a run reports,
// because whole runs fall into a slow or a fast stretch (README.md, "A/A
// evidence"). The slow stretches show in process CPU time exactly as in
// wall time, not as steal, and memory-bound code feels them where
// arithmetic does not: neighbours pressing on the shared cache and memory.
//
// So the benchmark times the host while it times the program. Every half
// second the closed loop drains (clients finish the op in flight and start
// no new one) and every client goroutine performs the same fixed
// computation, the reference work. A stretch of the run between two such
// slices is then scaled by how long the slices around it took: a second
// in which the reference work took 30 ms instead of its nominal 20 ms
// counts as two thirds of a reference second. ops_per_s and setup_s are in
// reference seconds; the host record says how far they were from wall
// seconds (host_speed), and the unscaled rate goes to standard error.
//
// The reference work is benchmark code: a change to the program cannot
// move it, so a ratio of program time to reference time moves only when
// the program does.

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// refNominal is what one piece of reference work takes on the reference
	// host at its usual speed; it only fixes the scale (reference seconds
	// are about wall seconds there).
	refNominal = 20 * time.Millisecond
	// refEvery is the stretch of loop between two slices: short against
	// the seconds a speed lasts, long against the 20 ms a slice costs and
	// against the op a draining client may have to wait for.
	refEvery = 500 * time.Millisecond

	refTableLen = 1 << 20 // uint32 entries: 4 MiB, larger than a core's private caches
	refWalkLen  = 140_000
	refSweeps   = 20
)

var (
	refOnce  sync.Once
	refTable []uint32
	refSink  atomic.Uint64 // keeps the compiler from dropping the work
)

// refInit builds the table as one random cycle (Sattolo), so a walk
// through it is a chain of dependent loads that no prefetcher follows.
func refInit() {
	refTable = make([]uint32, refTableLen)
	for i := range refTable {
		refTable[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(refTable) - 1; i > 0; i-- {
		j := rng.Intn(i)
		refTable[i], refTable[j] = refTable[j], refTable[i]
	}
}

// refWork performs the reference computation once and returns how long
// it took: a dependent walk through 4 MiB (memory latency) and passes over
// the whole table (bandwidth), about half the time each. Both halves live
// in the shared last-level cache and beyond, which is where the neighbours
// are felt: a pure arithmetic loop, tried as a third part, varied 2-4 %
// between runs whose throughput varied 10-30 % and only diluted the signal.
func refWork() time.Duration {
	refOnce.Do(refInit)
	t := time.Now()
	x, acc := uint32(0), uint64(0)
	for i := 0; i < refWalkLen; i++ {
		x = refTable[x]
		acc += uint64(x)
	}
	for r := 0; r < refSweeps; r++ {
		for _, v := range refTable {
			acc += uint64(v)
		}
	}
	d := time.Since(t)
	refSink.Add(acc)
	return d
}

// refSlice performs the reference work on n goroutines at once, as many
// as the run keeps processors busy, and returns the mean duration.
func refSlice(n int) time.Duration {
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range durs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			durs[i] = refWork()
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	return sum / time.Duration(n)
}

// refScale turns a wall duration into reference time given the slices
// taken just before and just after it.
func refScale(wall, before, after time.Duration) time.Duration {
	return time.Duration(float64(wall) * float64(2*refNominal) / float64(before+after))
}

// refClock maps instants on a loop's timeline to reference time. The
// timeline is the loop's active wall time: slices are taken out of it.
type refClock struct {
	n     int
	at    []time.Duration // instant of each slice on the timeline, ascending
	dur   []time.Duration // what the slice took
	base  []time.Duration // reference time at each slice, filled by seal
	speed float64         // reference time per wall time over the whole timeline
}

// slice takes one slice at instant `at` of the timeline and returns the
// wall time it cost, which the caller keeps out of the timeline.
func (c *refClock) slice(at time.Duration) time.Duration {
	t := time.Now()
	c.at, c.dur = append(c.at, at), append(c.dur, refSlice(c.n))
	return time.Since(t)
}

// seal closes the timeline after its last slice.
func (c *refClock) seal() {
	c.base = make([]time.Duration, len(c.at))
	for k := 1; k < len(c.at); k++ {
		c.base[k] = c.base[k-1] + refScale(c.at[k]-c.at[k-1], c.dur[k-1], c.dur[k])
	}
	if last := len(c.at) - 1; last > 0 && c.at[last] > 0 {
		c.speed = float64(c.base[last]) / float64(c.at[last])
	}
}

// scale maps an instant of the timeline to reference time.
func (c *refClock) scale(t time.Duration) time.Duration {
	k := sort.Search(len(c.at), func(i int) bool { return c.at[i] > t }) - 1
	k = max(0, min(k, len(c.at)-2))
	return c.base[k] + refScale(t-c.at[k], c.dur[k], c.dur[k+1])
}
