package memsys

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gpuscout/internal/gpu"
)

func testCache() *Cache {
	return NewCache(CacheConfig{
		Name: "test", TotalBytes: 16 << 10, LineBytes: 128, SectorBytes: 32, Ways: 4,
	})
}

func TestCacheHitMiss(t *testing.T) {
	c := testCache()
	if c.AccessSector(0x1000) {
		t.Error("cold access hit")
	}
	if !c.AccessSector(0x1000) {
		t.Error("warm access missed")
	}
	if !c.AccessSector(0x101f) {
		t.Error("same-sector access missed")
	}
	// Different sector of the same line: sector miss.
	if c.AccessSector(0x1020) {
		t.Error("new sector of resident line hit")
	}
	if !c.AccessSector(0x1020) {
		t.Error("filled sector missed")
	}
}

// resident reports whether the sector holding addr is in c, changing
// nothing.
func (c *Cache) resident(addr uint64) bool {
	line := addr >> c.lineShift
	tag := line / c.sets
	for _, l := range c.lines[int(line-tag*c.sets)*c.cfg.Ways:][:c.cfg.Ways] {
		if l.valid && l.tag == tag && l.sectors&c.SectorBit(addr) != 0 {
			return true
		}
	}
	return false
}

func TestCacheLRUEviction(t *testing.T) {
	c := testCache()
	// 16 KiB / (128 B x 4 ways) = 32 sets. Addresses striding by
	// 128*32 = 4 KiB all map to set 0.
	setStride := uint64(4 << 10)
	for i := uint64(0); i < 4; i++ {
		c.AccessSector(i * setStride)
	}
	// Touch line 0 so line 1 is LRU, then bring in a 5th line.
	c.AccessSector(0)
	c.AccessSector(4 * setStride)
	if !c.resident(0) {
		t.Error("recently used line evicted")
	}
	if c.resident(1 * setStride) {
		t.Error("LRU line survived eviction")
	}
	if !c.resident(4 * setStride) {
		t.Error("newly inserted line absent")
	}
}

func TestCacheInvariants(t *testing.T) {
	// Property: a repeated access always hits immediately after the first,
	// and leaves its sector resident.
	f := func(addrs []uint32) bool {
		c := testCache()
		for _, a := range addrs {
			c.AccessSector(uint64(a))
			if !c.AccessSector(uint64(a)) || !c.resident(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAccessLineMatchesSectors drives two copies of small LRU caches with
// the same random sector streams: one sector at a time through
// AccessSector, and as the simulator's walk does it, one AccessLine per
// run of distinct sectors on one line. Every sector's hit and, after each
// run, the whole cache state — tags, sector bits, LRU stamps and clock —
// must agree. The streams mix a few hot lines with far ones in few sets,
// so lines are evicted, refilled sector by sector and hit part-resident.
func TestAccessLineMatchesSectors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []CacheConfig{
		{Name: "direct", TotalBytes: 4 * 128, LineBytes: 128, SectorBytes: 32, Ways: 1},
		{Name: "2way", TotalBytes: 4 * 128 * 2, LineBytes: 128, SectorBytes: 32, Ways: 2},
		{Name: "4way", TotalBytes: 2 * 128 * 4, LineBytes: 128, SectorBytes: 32, Ways: 4},
		{Name: "wide", TotalBytes: 3 * 256 * 4, LineBytes: 256, SectorBytes: 32, Ways: 4},
	} {
		one, grouped := NewCache(cfg), NewCache(cfg)
		sectorsPerLine := cfg.LineBytes / cfg.SectorBytes
		for run := 0; run < 5000; run++ {
			line := uint64(rng.Intn(24))
			if rng.Intn(8) == 0 {
				line = uint64(rng.Intn(1 << 20))
			}
			var mask uint32
			var order []uint64 // the run's sectors, distinct, in random order
			for _, i := range rng.Perm(sectorsPerLine)[:1+rng.Intn(sectorsPerLine)] {
				mask |= 1 << i
				order = append(order, line*uint64(cfg.LineBytes)+uint64(i*cfg.SectorBytes))
			}
			hits := grouped.AccessLine(order[0], mask)
			for _, s := range order {
				if got, want := hits&grouped.SectorBit(s) != 0, one.AccessSector(s); got != want {
					t.Fatalf("%s run %d: sector %#x hit %v grouped, %v alone", cfg.Name, run, s, got, want)
				}
			}
			if one.clock != grouped.clock || !slices.Equal(one.lines, grouped.lines) {
				t.Fatalf("%s run %d: cache state differs after a grouped access", cfg.Name, run)
			}
		}
	}
}

// TestSplitMatchesDivide: a cache cuts a line into tag and set with a
// shift or a multiply by its reciprocal, never a divide, and must get
// exactly line / sets and line % sets. Checked for every architecture's
// L1 and L2 slice, as recorded and under every perturbation (V100's slice
// has 38 sets, A100's 189, A100's L1 at half capacity 125), and for every
// set count up to 4096, over the line numbers around multiples of the set
// count, around powers of two, at the top of the range and at random.
func TestSplitMatchesDivide(t *testing.T) {
	var sets []uint64
	for _, a := range []gpu.Arch{gpu.V100(), gpu.P100(), gpu.A100()} {
		archs := []gpu.Arch{a}
		for _, p := range gpu.Perturbations() {
			archs = append(archs, p.Apply(a))
		}
		for _, arch := range archs {
			l1, l2 := SMCaches(&arch)
			for _, cfg := range []CacheConfig{l1, l2} {
				sets = append(sets, NewCache(cfg).sets)
			}
		}
	}
	for d := uint64(1); d <= 4096; d++ {
		sets = append(sets, d)
	}
	rng := rand.New(rand.NewSource(1))
	for _, d := range sets {
		c := NewCache(CacheConfig{TotalBytes: int(d) * 128, LineBytes: 128, SectorBytes: 32, Ways: 1})
		lines := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, ^uint64(0), ^uint64(0) - d, ^uint64(0) / d * d, ^uint64(0)/d*d - 1}
		for b := 1; b < 64; b++ {
			p := uint64(1) << b
			lines = append(lines, p-1, p, p+1, p/d*d, p/d*d-1)
		}
		for range 200 {
			lines = append(lines, rng.Uint64()>>rng.Intn(64))
		}
		for _, l := range lines {
			if tag, set := c.split(l); tag != l/d || set != l%d {
				t.Fatalf("%d sets: line %d splits into tag %d, set %d; want %d, %d", d, l, tag, set, l/d, l%d)
			}
		}
	}
}

// TestCacheRefusesNonPow2Geometry: AccessSector cuts an address with
// shifts, so a line or sector that is not a power of two must be refused
// even where the line is whole sectors, and so must a sector wider than
// its line.
func TestCacheRefusesNonPow2Geometry(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Name: "sector48", TotalBytes: 96 * 4, LineBytes: 96, SectorBytes: 48, Ways: 4},
		{Name: "line96", TotalBytes: 96 * 4, LineBytes: 96, SectorBytes: 32, Ways: 4},
		{Name: "wide", TotalBytes: 128 * 4, LineBytes: 128, SectorBytes: 256, Ways: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%+v) did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
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

// TestCoalesceSectorsMatchesScan checks the coalescer against the plain
// definition, every candidate sector kept on first touch after a scan of
// all kept so far, on random accesses: clustered, strided, repeated and
// descending addresses under sparse and full masks, at every width.
func TestCoalesceSectorsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 32)
	var got, want []uint64
	for i := 0; i < 5000; i++ {
		width := []int{4, 8, 16}[rng.Intn(3)]
		base, stride := uint64(rng.Intn(1<<16))*4, int64(rng.Intn(9)-4)*int64(width)
		for lane := range addrs {
			addrs[lane] = uint64(int64(base)+int64(lane)*stride) + uint64(rng.Intn(3)*width*rng.Intn(2))
			if rng.Intn(4) == 0 {
				addrs[lane] = uint64(rng.Intn(1<<12)) * uint64(width)
			}
		}
		mask := rng.Uint32() | allActive*uint32(i%2)
		want = want[:0]
		for m := mask; m != 0; m &= m - 1 {
			for w := 0; w < width; w += 4 {
				if s := (addrs[bits.TrailingZeros32(m)] + uint64(w)) &^ 31; !slices.Contains(want, s) {
					want = append(want, s)
				}
			}
		}
		if got = CoalesceSectorsInto(got, 32, addrs, mask, width); !slices.Equal(got, want) {
			t.Fatalf("case %d (width %d, mask %#x): sectors %#x, want %#x", i, width, mask, got, want)
		}
	}
}

// TestRenamesKeepsHits: two caches of one geometry take an access stream
// over random lines and the same stream with every line renamed, one to
// one — by l·c + d, which moves each set whole when c is 1 mod the set
// count and crowds or spreads them otherwise, or at random. Wherever
// Renames holds for the footprint, every access must hit the same sectors
// on both; each kind of renaming must be both proved and refused, so a
// rule that always or never holds fails too.
func TestRenamesKeepsHits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := CacheConfig{Name: "small", TotalBytes: 6 * 128 * 2, LineBytes: 128, SectorBytes: 32, Ways: 2}
	// Two crowded sets of three whose lines swap between two crowded sets
	// of three: every count agrees, but lines 0, 6, 1 evict on one side
	// only.
	if cfg.Renames([]uint64{0, 6, 12, 1, 7, 13}, []uint64{100, 106, 101, 112, 107, 113}) {
		t.Error("proved a renaming that splits a crowded set over two")
	}
	proved := map[bool]int{}
	refused := map[bool]int{}
	for run := 0; run < 2000; run++ {
		affine := run%2 == 0
		var a []uint64
		for _, l := range rng.Perm(40)[:2+rng.Intn(14)] {
			a = append(a, uint64(l))
		}
		b := slices.Clone(a)
		c, d := uint64(1+rng.Intn(7)), uint64(rng.Intn(100))
		for k, l := range rng.Perm(64)[:len(b)] {
			if b[k] = uint64(l) + 100; affine {
				b[k] = a[k]*c + d
			}
		}
		if !cfg.Renames(a, b) {
			refused[affine]++
			continue
		}
		proved[affine]++
		x, y := NewCache(cfg), NewCache(cfg)
		for step := 0; step < 200; step++ {
			k, sector := rng.Intn(len(a)), uint32(1)<<rng.Intn(4)
			if hx, hy := x.AccessLine(a[k]*128, sector), y.AccessLine(b[k]*128, sector); hx != hy {
				t.Fatalf("run %d step %d: line %d hits %b, its renaming %d hits %b (footprint %v → %v)", run, step, a[k], hx, b[k], hy, a, b)
			}
		}
	}
	for _, affine := range []bool{true, false} {
		if proved[affine] == 0 || refused[affine] == 0 {
			t.Errorf("affine renaming %v: proved %d, refused %d; want both", affine, proved[affine], refused[affine])
		}
	}
	t.Logf("proved %v, refused %v", proved, refused)
}
