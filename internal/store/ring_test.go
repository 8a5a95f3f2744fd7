package store

import (
	"testing"
)

// TestRingOwnershipProperties pins what replication correctness rests on:
// every replica derives identical owners from an identical peer list
// (regardless of list order), owners are distinct, and keys spread across
// the fleet rather than piling onto one peer.
func TestRingOwnershipProperties(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	var r1, r2 hashRing
	for _, p := range peers {
		r1.add(p)
	}
	// Insertion order must not matter.
	for i := len(peers) - 1; i >= 0; i-- {
		r2.add(peers[i])
	}

	primary := map[string]int{}
	const keys = 2000
	for i := 0; i < keys; i++ {
		k := tkey(i)
		h := k.hash()
		o1 := r1.ownersOf(h, 2)
		o2 := r2.ownersOf(h, 2)
		if len(o1) != 2 || len(o2) != 2 {
			t.Fatalf("key %d: owners %v / %v", i, o1, o2)
		}
		if o1[0] != o2[0] || o1[1] != o2[1] {
			t.Fatalf("key %d: ownership depends on insertion order: %v vs %v", i, o1, o2)
		}
		if o1[0] == o1[1] {
			t.Fatalf("key %d: duplicate owner %v", i, o1)
		}
		primary[o1[0]]++
	}
	for _, p := range peers {
		if primary[p] < keys/10 {
			t.Fatalf("peer %s owns only %d/%d keys as primary — ring badly skewed: %v",
				p, primary[p], keys, primary)
		}
	}

	// Replication clamped to the fleet: asking for more owners than peers
	// returns every peer once.
	all := r1.ownersOf(12345, 5)
	if len(all) != len(peers) {
		t.Fatalf("owners %v", all)
	}
	seen := map[string]bool{}
	for _, o := range all {
		if seen[o] {
			t.Fatalf("duplicate in %v", all)
		}
		seen[o] = true
	}
}
