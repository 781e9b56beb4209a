package cluster

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8090", i+1)
	}
	return out
}

// TestRingDeterminism: ownership is a pure function of (members, key) —
// rebuilding the ring, in any member order, maps every key identically.
func TestRingDeterminism(t *testing.T) {
	members := ringMembers(5)
	a := NewRing(members)
	b := NewRing(members)
	reversed := []string{members[4], members[3], members[2], members[1], members[0]}
	c := NewRing(reversed)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp-%04d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %s: rebuild changed owner", key)
		}
		if a.Owner(key) != c.Owner(key) {
			t.Fatalf("key %s: member order changed owner (%s vs %s)", key, a.Owner(key), c.Owner(key))
		}
	}
}

// TestRingOwnersPreference: Owners returns distinct members, starts at
// Owner, and covers the whole fleet when asked.
func TestRingOwnersPreference(t *testing.T) {
	members := ringMembers(5)
	r := NewRing(members)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fp-%04d", i)
		owners := r.Owners(key, len(members))
		if len(owners) != len(members) {
			t.Fatalf("key %s: got %d owners, want %d", key, len(owners), len(members))
		}
		if owners[0] != r.Owner(key) {
			t.Fatalf("key %s: Owners[0]=%s, Owner=%s", key, owners[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner %s", key, o)
			}
			seen[o] = true
		}
		if got := r.Owners(key, 2); len(got) != 2 || got[0] != owners[0] || got[1] != owners[1] {
			t.Fatalf("key %s: Owners(,2) is not a prefix of the full chain", key)
		}
	}
}

// TestRingBalance: with 64 vnodes the key space spreads within a
// reasonable factor of even — no replica owns a dominant share and none
// starves.
func TestRingBalance(t *testing.T) {
	members := ringMembers(5)
	r := NewRing(members)
	counts := map[string]int{}
	const keys = 5000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("%x-fingerprint", i*7919))]++
	}
	want := keys / len(members)
	for m, got := range counts {
		if got < want/3 || got > want*3 {
			t.Errorf("member %s owns %d keys, want within [%d, %d]", m, got, want/3, want*3)
		}
	}
	if len(counts) != len(members) {
		t.Errorf("only %d of %d members own keys", len(counts), len(members))
	}
}

// TestRingFailoverStability is the consistent-hashing property the
// coordinator's health filtering relies on: when a member is skipped
// (down), only its keys move — every key owned by a live member keeps
// its owner, because the preference chain is walked, not rebuilt.
func TestRingFailoverStability(t *testing.T) {
	members := ringMembers(5)
	r := NewRing(members)
	dead := members[2]
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fp-%04d", i)
		owners := r.Owners(key, len(members))
		// Simulate health-filtered routing: first owner not equal to dead.
		routed := owners[0]
		if routed == dead {
			routed = owners[1]
		}
		if owners[0] != dead && routed != owners[0] {
			t.Fatalf("key %s: owner moved although its replica is alive", key)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	var empty *Ring = NewRing(nil)
	if got := empty.Owner("x"); got != "" {
		t.Errorf("empty ring Owner = %q, want empty", got)
	}
	if got := empty.Owners("x", 3); got != nil {
		t.Errorf("empty ring Owners = %v, want nil", got)
	}
	one := NewRing([]string{"http://a"})
	if got := one.Owner("anything"); got != "http://a" {
		t.Errorf("single-member ring Owner = %q", got)
	}
	if got := one.Owners("anything", 5); len(got) != 1 {
		t.Errorf("single-member ring Owners = %v", got)
	}
}
