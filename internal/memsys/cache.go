// Package memsys provides the building blocks of the simulated GPU memory
// hierarchy: sectored set-associative caches (L1TEX, L2, the read-only/
// texture cache), a bandwidth/occupancy model for DRAM and L2 service, and
// the shared-memory bank-conflict calculator. internal/sim composes these
// into the full V100 hierarchy.
package memsys

import (
	"fmt"
	"math/bits"

	"gpuscout/internal/gpu"
)

// CacheConfig sizes a sectored, set-associative, write-through cache.
// NVIDIA L1/L2 caches operate on 128-byte lines divided into 32-byte
// sectors: a miss fills only the missing sector, and all traffic metrics
// (l1tex__t_sectors_*, lts__t_sectors_*) count sectors.
type CacheConfig struct {
	Name        string
	TotalBytes  int
	LineBytes   int
	SectorBytes int
	Ways        int
}

type cacheLine struct {
	tag     uint64
	valid   bool
	sectors uint32 // per-sector valid bits
	lastUse uint64 // LRU clock
}

// Cache is a sectored set-associative cache with true LRU replacement.
type Cache struct {
	cfg   CacheConfig
	sets  uint64
	lines []cacheLine // sets*ways, way-major within set
	clock uint64

	// An address's line is addr >> lineShift, its sector within the line
	// (addr & lineMask) >> sectorShift.
	lineShift, sectorShift uint
	lineMask               uint64
	// A line's tag, line / sets, is line >> setShift when sets is a power
	// of two (magic 0), else a multiply by sets' reciprocal (see split).
	magic    uint64
	setShift uint
}

// SMCaches returns a's geometry of one SM's L1 and of its slice of the
// chip's L2: an even share of the L2 in whole sets, at least one.
func SMCaches(a *gpu.Arch) (l1, l2 CacheConfig) {
	set := a.L2LineBytes * a.L2Ways
	slice := max(a.L2Bytes/a.NumSMs/set*set, set)
	return CacheConfig{Name: "l1tex", TotalBytes: a.L1Bytes, LineBytes: a.L1LineBytes, SectorBytes: a.L1SectorBytes, Ways: a.L1Ways},
		CacheConfig{Name: "lts", TotalBytes: slice, LineBytes: a.L2LineBytes, SectorBytes: a.L1SectorBytes, Ways: a.L2Ways}
}

// NewCache builds a cache; it panics on geometry it cannot cut — a line
// or sector size that is not a power of two, a line that is not whole
// sectors, a size that is not whole sets — since configurations are
// static architecture descriptions.
func NewCache(cfg CacheConfig) *Cache {
	if !pow2(cfg.LineBytes) || !pow2(cfg.SectorBytes) || cfg.SectorBytes > cfg.LineBytes {
		panic(fmt.Sprintf("memsys: bad line/sector geometry %d/%d", cfg.LineBytes, cfg.SectorBytes))
	}
	if cfg.Ways <= 0 || cfg.TotalBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		panic(fmt.Sprintf("memsys: %s size %d not divisible into %d ways of %dB lines",
			cfg.Name, cfg.TotalBytes, cfg.Ways, cfg.LineBytes))
	}
	sets := cfg.TotalBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:         cfg,
		sets:        uint64(sets),
		lines:       make([]cacheLine, sets*cfg.Ways),
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorShift: uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		lineMask:    uint64(cfg.LineBytes - 1),
	}
	// With s the bit length of sets, magic is ⌈2^(64+s)/sets⌉ - 2^64: the
	// round-up reciprocal that makes ⌊line·(2^64+magic) / 2^(64+s)⌋ equal
	// line / sets for every 64-bit line (Granlund and Montgomery, "Division
	// by invariant integers using multiplication", 1994: the divide a
	// compiler emits for a constant divisor). 2^s - sets < sets keeps the
	// 128-by-64 divide in range.
	s := uint(bits.Len64(c.sets))
	c.setShift = s - 1
	if !pow2(sets) {
		var rem uint64
		c.magic, rem = bits.Div64(1<<s-c.sets, 0, c.sets)
		if rem != 0 {
			c.magic++
		}
	}
	return c
}

// split returns line / sets and line % sets. Since magic < 2^64, hi ≤
// line, so (line-hi)>>1 + hi is ⌊(line+hi)/2⌋ without the 65th bit.
func (c *Cache) split(line uint64) (tag, set uint64) {
	tag = line >> c.setShift
	if c.magic != 0 {
		hi, _ := bits.Mul64(c.magic, line)
		tag = ((line-hi)>>1 + hi) >> c.setShift
	}
	return tag, line - tag*c.sets
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Fits reports whether no set is asked for more of lines (distinct address
// / LineBytes; never for a set geometry NewCache refuses) than it has ways:
// then it never evicts them, and hits exactly when an unbounded cache would.
// The per-set counts of up to 1024 sets, every modelled geometry's, live
// on the stack.
func (cfg CacheConfig) Fits(lines []uint64) bool {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.TotalBytes <= 0 || cfg.TotalBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		return false
	}
	var counts [1024]int32
	sets := cfg.TotalBytes / (cfg.LineBytes * cfg.Ways)
	perSet := counts[:min(sets, len(counts))]
	if sets > len(counts) {
		perSet = make([]int32, sets)
	}
	for _, l := range lines {
		set := l % uint64(sets)
		if perSet[set]++; int(perSet[set]) > cfg.Ways {
			return false
		}
	}
	return true
}

// AccessSector looks up the sector (SectorBytes) containing addr, fills
// it on a miss, and reports whether it hit: AccessLine of that one sector.
// The model is write-allocate, so reads and writes touch it alike.
func (c *Cache) AccessSector(addr uint64) (hit bool) {
	return c.AccessLine(addr, c.SectorBit(addr)) != 0
}

// SectorBit is the bit of addr's sector in its line's sector mask.
func (c *Cache) SectorBit(addr uint64) uint32 {
	return uint32(1) << ((addr & c.lineMask) >> c.sectorShift)
}

// AccessLine touches the sectors of sectors (a non-empty mask of
// SectorBit values) in the line holding addr, filling the missing ones,
// and returns the mask of those that hit. It is exactly the AccessSector
// calls of those sectors one after another, in any order: the first
// either finds the line or evicts for it, the rest find it, so there is
// one set search and one victim choice, and the LRU clock advances once
// per sector.
func (c *Cache) AccessLine(addr uint64, sectors uint32) (hits uint32) {
	c.clock += uint64(bits.OnesCount32(sectors))
	tag, s := c.split(addr >> c.lineShift)
	set := c.lines[int(s)*c.cfg.Ways:][:c.cfg.Ways]
	victim := 0
	for w := range set {
		l := &set[w]
		if l.valid && l.tag == tag {
			hits = l.sectors & sectors
			l.sectors |= sectors
			l.lastUse = c.clock
			return hits
		}
		// Miss so far: the victim is the first invalid way, else true LRU.
		if v := &set[victim]; v.valid && (!l.valid || l.lastUse < v.lastUse) {
			victim = w
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, sectors: sectors, lastUse: c.clock}
	return 0
}
