package memsys

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testCache() *Cache {
	return NewCache(CacheConfig{
		Name: "test", TotalBytes: 16 << 10, LineBytes: 128, SectorBytes: 32, Ways: 4,
	})
}

func TestCacheHitMiss(t *testing.T) {
	c := testCache()
	if c.AccessSector(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.AccessSector(0x1000, false) {
		t.Error("warm access missed")
	}
	if !c.AccessSector(0x101f, false) {
		t.Error("same-sector access missed")
	}
	// Different sector of the same line: sector miss.
	if c.AccessSector(0x1020, false) {
		t.Error("new sector of resident line hit")
	}
	if !c.AccessSector(0x1020, false) {
		t.Error("filled sector missed")
	}
	s := c.Stats()
	if s.Accesses != 5 || s.Hits != 3 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := testCache()
	// 16 KiB / (128 B x 4 ways) = 32 sets. Addresses striding by
	// 128*32 = 4 KiB all map to set 0.
	setStride := uint64(4 << 10)
	for i := uint64(0); i < 4; i++ {
		c.AccessSector(i*setStride, false)
	}
	// Touch line 0 so line 1 is LRU, then bring in a 5th line.
	c.AccessSector(0, false)
	c.AccessSector(4*setStride, false)
	if !c.Contains(0) {
		t.Error("recently used line evicted")
	}
	if c.Contains(1 * setStride) {
		t.Error("LRU line survived eviction")
	}
	if !c.Contains(4 * setStride) {
		t.Error("newly inserted line absent")
	}
}

func TestCacheInvariants(t *testing.T) {
	// Property: hits + misses == accesses, and a repeated access always
	// hits immediately after the first.
	f := func(addrs []uint32) bool {
		c := testCache()
		for _, a := range addrs {
			c.AccessSector(uint64(a), false)
			if !c.AccessSector(uint64(a), false) {
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses &&
			s.ReadAcc+s.WriteAcc == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCacheReset(t *testing.T) {
	c := testCache()
	c.AccessSector(0x40, true)
	c.Reset()
	if s := c.Stats(); s.Accesses != 0 {
		t.Errorf("stats survive reset: %+v", s)
	}
	if c.Contains(0x40) {
		t.Error("contents survive reset")
	}
}

func TestBandwidthQueueing(t *testing.T) {
	bw := NewBandwidth(32) // 32 B/cycle
	t1 := bw.Request(0, 32)
	if t1 != 1 {
		t.Errorf("first request completes at %v, want 1", t1)
	}
	// Second request at the same instant queues behind the first.
	t2 := bw.Request(0, 32)
	if t2 != 2 {
		t.Errorf("second request completes at %v, want 2", t2)
	}
	// A late request sees an idle resource.
	t3 := bw.Request(100, 64)
	if t3 != 102 {
		t.Errorf("late request completes at %v, want 102", t3)
	}
	if d := bw.QueueDelay(101); d != 1 {
		t.Errorf("QueueDelay = %v, want 1", d)
	}
}

func TestBandwidthMonotone(t *testing.T) {
	f := func(times []uint16) bool {
		bw := NewBandwidth(16)
		now, prev := 0.0, 0.0
		for _, dt := range times {
			now += float64(dt % 64)
			done := bw.Request(now, 32)
			if done < prev || done < now {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// allActive is the lane mask of a full warp.
const allActive = ^uint32(0)

func TestBankConflicts(t *testing.T) {
	var s BankScratch // reused across the cases, as the simulator does

	// Conflict-free: lane i touches word i.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i * 4)
	}
	if got := s.BankConflicts(32, addrs, allActive, 4); got != 1 {
		t.Errorf("sequential access: %d transactions, want 1", got)
	}

	// Broadcast: all lanes read the same word — still one transaction.
	for i := range addrs {
		addrs[i] = 128
	}
	if got := s.BankConflicts(32, addrs, allActive, 4); got != 1 {
		t.Errorf("broadcast: %d transactions, want 1", got)
	}

	// Stride-32 words: every lane maps to bank 0 — 32-way conflict.
	for i := range addrs {
		addrs[i] = uint64(i * 32 * 4)
	}
	if got := s.BankConflicts(32, addrs, allActive, 4); got != 32 {
		t.Errorf("stride-32: %d transactions, want 32", got)
	}

	// Stride-2 words: two lanes per bank — 2-way conflict.
	for i := range addrs {
		addrs[i] = uint64(i * 8)
	}
	if got := s.BankConflicts(32, addrs, allActive, 4); got != 2 {
		t.Errorf("stride-2: %d transactions, want 2", got)
	}

	// Inactive lanes do not conflict.
	const inactive = uint32(1) // lane 0 alone
	for i := range addrs {
		addrs[i] = 0
	}
	if got := s.BankConflicts(32, addrs, inactive, 4); got != 1 {
		t.Errorf("single active lane: %d, want 1", got)
	}
	if got := s.BankConflicts(32, addrs, 0, 4); got != 0 {
		t.Errorf("no active lanes: %d, want 0", got)
	}
}

// TestConflictsIgnoreLanes pins what a recording's shared accesses rely
// on: both conflict counts depend only on the active lanes' addresses in
// lane order, not on which lanes they sit in, so the addresses compacted
// to the low lanes (mask 1<<n - 1) count the same as the warp's; and
// BankConflicts, which counts distinct words, counts the same again when
// each address is kept only once.
func TestConflictsIgnoreLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s BankScratch
	addrs, packed, distinct := make([]uint64, 32), make([]uint64, 0, 32), make([]uint64, 0, 32)
	for i := 0; i < 2000; i++ {
		width := []int{4, 8, 16}[rng.Intn(3)]
		span := 1 + rng.Intn(256) // words: small spans collide, broadcast and conflict
		for lane := range addrs {
			addrs[lane] = uint64(rng.Intn(span) * width)
		}
		mask := rng.Uint32()
		switch i % 4 {
		case 0:
			mask = allActive
		case 1:
			mask &= rng.Uint32() // sparse
		}
		packed, distinct = packed[:0], distinct[:0]
		for m := mask; m != 0; m &= m - 1 {
			a := addrs[bits.TrailingZeros32(m)]
			packed = append(packed, a)
			if !slices.Contains(distinct, a) {
				distinct = append(distinct, a)
			}
		}
		low := uint32(1)<<len(packed) - 1
		for _, banks := range []int{16, 32, 64} {
			want := s.BankConflicts(banks, addrs, mask, width)
			if got := s.BankConflicts(banks, packed, low, width); got != want {
				t.Fatalf("BankConflicts(%d banks, width %d, mask %#x): %d compacted, %d in place", banks, width, mask, got, want)
			}
			if got := s.BankConflicts(banks, distinct, uint32(1)<<len(distinct)-1, width); got != want {
				t.Fatalf("BankConflicts(%d banks, width %d, mask %#x): %d distinct, %d in place", banks, width, mask, got, want)
			}
			if got, want := s.AtomicConflicts(banks, packed, low), s.AtomicConflicts(banks, addrs, mask); got != want {
				t.Fatalf("AtomicConflicts(%d banks, mask %#x): %d compacted, %d in place", banks, mask, got, want)
			}
		}
	}
}

func TestCoalesceSectors(t *testing.T) {
	var buf []uint64 // reused across the cases, as the simulator does
	addrs := make([]uint64, 32)

	// Fully coalesced float loads: 32 lanes x 4 B = 128 B = 4 sectors.
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*4)
	}
	if buf = CoalesceSectorsInto(buf, 32, addrs, allActive, 4); len(buf) != 4 {
		t.Errorf("coalesced: %d sectors, want 4", len(buf))
	}

	// float4 loads: 32 lanes x 16 B = 512 B = 16 sectors.
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*16)
	}
	if buf = CoalesceSectorsInto(buf, 32, addrs, allActive, 16); len(buf) != 16 {
		t.Errorf("float4: %d sectors, want 16", len(buf))
	}

	// Stride 128: one sector per lane.
	for i := range addrs {
		addrs[i] = uint64(i * 128)
	}
	if buf = CoalesceSectorsInto(buf, 32, addrs, allActive, 4); len(buf) != 32 {
		t.Errorf("strided: %d sectors, want 32", len(buf))
	}

	// All lanes the same address: one sector.
	for i := range addrs {
		addrs[i] = 0x2000
	}
	if buf = CoalesceSectorsInto(buf, 32, addrs, allActive, 4); len(buf) != 1 {
		t.Errorf("uniform: %d sectors, want 1", len(buf))
	}
}
