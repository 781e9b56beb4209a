package memsys

import "math/bits"

// BankScratch holds the conflict calculators' buffers inline, so that
// computing conflicts allocates nothing, in the simulator's hot path or in
// a BankScratch on a caller's stack: the zero value is ready to use. An
// access of 32 lanes of 16 bytes fills words; more than 64 banks take
// a transient slice.
type BankScratch struct {
	words   [32 * 4]uint64 // distinct word addresses of one access
	perBank [64]int        // transaction count per bank
}

// BankConflicts computes how many serialized transactions a warp's
// shared-memory access generates on a banked shared memory. Shared memory
// is organized in NumBanks 4-byte-wide banks; lanes touching different
// 32-bit words that map to the same bank serialize, while lanes reading
// the *same* word broadcast in one transaction. mask selects the lanes
// (bit i: addrs[i]) that take part.
//
// The paper's §4.3 bank-conflict ratio —
//
//	(# shared load transactions) / (# shared load accesses)
//
// — is exactly (sum of this function over accesses) / (access count):
// 1.0 means conflict-free, 32 means fully serialized 32-way conflicts.
func (s *BankScratch) BankConflicts(numBanks int, addrs []uint64, mask uint32, widthBytes int) int {
	// Collect the set of distinct word addresses touched. A warp touches
	// at most 32 lanes x widthBytes/4 words, so linear dedup over a small
	// slice beats a map.
	words := s.words[:0]
	for m := mask; m != 0; m &= m - 1 {
		a := addrs[bits.TrailingZeros32(m)]
		for w := 0; w < widthBytes; w += 4 {
			word := (a + uint64(w)) / 4
			seen := false
			for _, prev := range words {
				if prev == word {
					seen = true
					break
				}
			}
			if !seen {
				words = append(words, word)
			}
		}
	}
	if len(words) == 0 {
		return 0
	}
	perBank := s.bankCounts(numBanks)
	maxPer := 0
	for _, word := range words {
		bank := int(word % uint64(numBanks))
		perBank[bank]++
		if perBank[bank] > maxPer {
			maxPer = perBank[bank]
		}
	}
	return maxPer
}

func (s *BankScratch) bankCounts(numBanks int) []int {
	if numBanks > len(s.perBank) {
		return make([]int, numBanks)
	}
	clear(s.perBank[:numBanks])
	return s.perBank[:numBanks]
}

// AtomicConflicts computes the serialization factor of a warp's shared
// memory *atomic* access: unlike plain loads, same-word accesses cannot
// broadcast — every lane performs a read-modify-write, so the per-bank
// lane count (including duplicates) bounds the transactions.
func (s *BankScratch) AtomicConflicts(numBanks int, addrs []uint64, mask uint32) int {
	perBank := s.bankCounts(numBanks)
	maxPer := 0
	for m := mask; m != 0; m &= m - 1 {
		a := addrs[bits.TrailingZeros32(m)]
		bank := int((a / 4) % uint64(numBanks))
		perBank[bank]++
		if perBank[bank] > maxPer {
			maxPer = perBank[bank]
		}
	}
	return maxPer
}

// CoalesceSectorsInto returns the distinct sector base addresses a warp's
// global/local access touches — the unit the L1TEX pipe processes.
// Perfectly coalesced 32-lane 4-byte accesses produce 4 sectors of 32
// bytes (one 128-byte line); a stride-N pattern produces up to one sector
// per lane. It writes into a caller-provided buffer (reused across calls
// to keep the simulator's hot path free of heap allocation) and returns
// buf[:0] extended with the sector bases in first-touch order.
// sectorBytes must be a power of two, as NewCache requires of a cache's.
func CoalesceSectorsInto(buf []uint64, sectorBytes int, addrs []uint64, mask uint32, widthBytes int) []uint64 {
	// A warp produces at most 32 lanes x widthBytes/4 sector candidates. A
	// sector above every one seen so far (top) is new; only one at or below
	// it needs the dedup scan, which at this size beats a map.
	order := buf[:0]
	cut := ^uint64(sectorBytes - 1)
	var top uint64
	for m := mask; m != 0; m &= m - 1 {
		a := addrs[bits.TrailingZeros32(m)]
		for w := 0; w < widthBytes; w += 4 {
			s := (a + uint64(w)) & cut
			// Adjacent lanes usually land in the same sector (that is what
			// coalescing means), so check the last sector first, then top,
			// before the full dedup scan.
			n := len(order)
			if n > 0 && order[n-1] == s {
				continue
			}
			if n == 0 || s > top {
				order, top = append(order, s), s
				continue
			}
			seen := false
			for _, prev := range order {
				if prev == s {
					seen = true
					break
				}
			}
			if !seen {
				order = append(order, s)
			}
		}
	}
	return order
}
