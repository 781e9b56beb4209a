// Package memsys provides the building blocks of the simulated GPU memory
// hierarchy: sectored set-associative caches (L1TEX, L2, the read-only/
// texture cache), a bandwidth/occupancy model for DRAM and L2 service, and
// the shared-memory bank-conflict calculator. internal/sim composes these
// into the full V100 hierarchy.
package memsys

import (
	"fmt"
	"math/bits"
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

// CacheStats aggregates sector-level access counts.
type CacheStats struct {
	Accesses uint64 // sector accesses
	Hits     uint64
	Misses   uint64
	ReadAcc  uint64
	WriteAcc uint64
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
	stats CacheStats

	// An address's line is addr >> lineShift, its sector within the line
	// (addr & lineMask) >> sectorShift.
	lineShift, sectorShift uint
	lineMask               uint64
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
	return &Cache{
		cfg:         cfg,
		sets:        uint64(sets),
		lines:       make([]cacheLine, sets*cfg.Ways),
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorShift: uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		lineMask:    uint64(cfg.LineBytes - 1),
	}
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Fits reports whether no set is asked for more of lines (distinct address
// / LineBytes; never for a set geometry NewCache refuses) than it has ways:
// then it never evicts them, and hits exactly when an unbounded cache would.
func (cfg CacheConfig) Fits(lines []uint64) bool {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.TotalBytes <= 0 || cfg.TotalBytes%(cfg.LineBytes*cfg.Ways) != 0 {
		return false
	}
	perSet := make([]int, cfg.TotalBytes/(cfg.LineBytes*cfg.Ways))
	for _, l := range lines {
		set := int(l) % len(perSet)
		if perSet[set]++; perSet[set] > cfg.Ways {
			return false
		}
	}
	return true
}

// AccessSector looks up the 32-byte (SectorBytes) sector containing addr,
// fills it on miss, and reports whether it hit. write distinguishes read
// and write traffic in the stats; the model is write-allocate.
func (c *Cache) AccessSector(addr uint64, write bool) (hit bool) {
	c.clock++
	c.stats.Accesses++
	if write {
		c.stats.WriteAcc++
	} else {
		c.stats.ReadAcc++
	}
	base, tag, sector := c.locate(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.lastUse = c.clock
			if l.sectors&sector != 0 {
				c.stats.Hits++
				return true
			}
			// Line present, sector missing: sector miss fill.
			l.sectors |= sector
			c.stats.Misses++
			return false
		}
	}
	// Miss: fill an invalid way, else evict true-LRU.
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.lastUse < c.lines[victim].lastUse {
			victim = base + w
		}
	}
	v := &c.lines[victim]
	v.valid = true
	v.tag = tag
	v.sectors = sector
	v.lastUse = c.clock
	c.stats.Misses++
	return false
}

// Contains reports whether the sector holding addr is resident (no state
// change, no stats).
func (c *Cache) Contains(addr uint64) bool {
	base, tag, sector := c.locate(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag && l.sectors&sector != 0 {
			return true
		}
	}
	return false
}

// locate returns where addr's line may live (the index of its set's first
// way in lines), the line's tag and the sector's bit in the line.
func (c *Cache) locate(addr uint64) (base int, tag uint64, sector uint32) {
	line := addr >> c.lineShift
	tag = line / c.sets
	return int(line-tag*c.sets) * c.cfg.Ways, tag, uint32(1) << ((addr & c.lineMask) >> c.sectorShift)
}

// Stats returns a copy of the access counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	c.clock = 0
	c.stats = CacheStats{}
}
