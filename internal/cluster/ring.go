// Package cluster turns N gpuscoutd replicas into one fleet: a
// consistent-hash ring routes every analysis to the replica that owns
// its input fingerprint (cache-affinity — repeated fingerprints always
// land on the same in-process LRU), a coordinator proxies the public
// API and fails over around dead or drained replicas, and a peer
// cache-fill protocol lets a replica warm rebalanced keys from the ring
// owner's cache instead of re-simulating.
//
// The design leans on one property of the analysis: a report is a pure
// function of (canonical SASS, arch, launch, options). Any replica can
// compute any report, byte-identically — the simulator's determinism
// guarantee — so routing is purely an optimization for cache locality,
// and every routing failure can degrade to "simulate wherever the
// request lands" without changing the answer.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodes is the number of virtual nodes each replica projects onto the
// ring. More vnodes smooth the key distribution (stddev ~
// 1/sqrt(vnodes)); 64 keeps per-replica load within a few percent of
// even for small fleets while the ring stays tiny. A constant, not an
// option: the coordinator and every worker's peer cache must place keys
// identically, so the value may not differ anywhere in a cluster.
const vnodes = 64

// Ring is an immutable consistent-hash ring over a static replica list.
// Health is deliberately not the ring's concern: membership changes
// (a replica going down and coming back) must not reshuffle ownership
// of unrelated keys, so the ring always contains every configured
// replica and callers skip unhealthy ones by walking the preference
// order from Owners.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash, clockwise
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// NewRing builds the ring from the configured replica URLs. Order of
// members does not matter: placement depends only on each member's name.
func NewRing(members []string) *Ring {
	r := &Ring{members: append([]string(nil), members...)}
	r.points = make([]ringPoint, 0, len(r.members)*vnodes)
	for mi, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// hash64 is the ring's hash: the first 8 bytes of SHA-256. Keys are
// already hex fingerprints, but hashing again costs nothing here and
// keeps vnode placement uniform for arbitrary member names.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the replica that owns key: the member whose vnode is
// first at or clockwise-after the key's hash.
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// Owners returns up to n distinct replicas in preference order for key.
// The order is the ring's failover chain: Owners(key, …)[1] is where
// key's traffic goes while [0] is down — and therefore also the peer a
// rejoining owner should ask first when warming its cache back up.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.members))
	out := make([]string, 0, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(start+j)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
