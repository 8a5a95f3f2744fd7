package lru

import (
	"sync"
	"testing"

	"repro/internal/rng"
)

func hashInt(k int) uint64 { return rng.Mix64(uint64(k)) }

// checkShards asserts every shard's recency list, map and charged cost
// agree, and that no shard is over its budget.
func checkShards[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n, cost := 0, int64(0)
		for e := s.root.next; e != &s.root; e = e.next {
			if e.next.prev != e {
				t.Errorf("shard %d: broken back link", i)
			}
			if s.m[e.key] != e {
				t.Errorf("shard %d: listed entry missing from the map", i)
			}
			n++
			cost += e.cost
		}
		if n != len(s.m) || cost != s.cost || s.cost > s.budget {
			t.Errorf("shard %d: list %d entries / %d cost, map %d, charged %d, budget %d",
				i, n, cost, len(s.m), s.cost, s.budget)
		}
		s.mu.Unlock()
	}
}

// TestRecencyOneShard: with one shard and a count budget, the victim is
// always the least recently used entry, and a Get refreshes recency.
func TestRecencyOneShard(t *testing.T) {
	c := New[int, int](1, 4, nil)
	for i := 0; i < 4; i++ {
		c.Put(i, i, 1)
	}
	if n := c.Stats().Entries; n != 4 {
		t.Fatalf("%d entries", n)
	}
	// Touch 0 so 1 becomes LRU, then overflow.
	if v, ok := c.Get(0); !ok || v != 0 {
		t.Fatal("lost entry 0")
	}
	c.Put(4, 4, 1)
	if n := c.Stats().Entries; n != 4 {
		t.Fatalf("%d entries after eviction", n)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("entry 1 should have been the LRU victim")
	}
	for _, want := range []int{0, 2, 3, 4} {
		if v, ok := c.Get(want); !ok || v != want {
			t.Fatalf("entry %d missing after eviction", want)
		}
	}
	// Order is now 0,2,3,4 (4 most recent): two more puts evict 0 then 2.
	c.Put(5, 5, 1)
	c.Put(6, 6, 1)
	for k, want := range map[int]bool{0: false, 2: false, 3: true, 4: true, 5: true, 6: true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("entry %d resident = %v, want %v", k, ok, want)
		}
	}
	if st := c.Stats(); st.Evictions != 3 || st.Cost != 4 || st.Budget != 4 {
		t.Fatalf("stats %+v", st)
	}
	checkShards(t, c)
}

// TestPutReplaces pins the insert semantics: a Put on a resident key
// replaces its value and charge, refreshes its recency, does not grow the
// cache or count an eviction, and reports the key was resident.
func TestPutReplaces(t *testing.T) {
	c := New[int, string](1, 10, nil)
	if c.Put(1, "a", 3) {
		t.Fatal("first Put reported a resident key")
	}
	c.Put(2, "b", 3)
	if !c.Put(1, "A", 5) {
		t.Fatal("re-Put did not report the resident key")
	}
	if v, _ := c.Get(1); v != "A" {
		t.Fatalf("Get(1) = %q, want the replacing value", v)
	}
	if st := c.Stats(); st.Entries != 2 || st.Cost != 8 || st.Evictions != 0 {
		t.Fatalf("stats after replace %+v", st)
	}
	// Replacing refreshed 1, so 2 is the victim when 3 needs room.
	c.Put(2, "b", 3)
	c.Put(1, "A", 5)
	c.Put(3, "c", 4)
	if _, ok := c.Get(2); ok {
		t.Fatal("replaced entry was not refreshed to most recent")
	}
	if v, ok := c.Get(1); !ok || v != "A" {
		t.Fatal("refreshed entry evicted")
	}
	checkShards(t, c)
}

// TestOversizeRefused: an entry costing more than its shard's budget is
// not stored, does not flush the shard to make room, and drops the value
// it would have replaced.
func TestOversizeRefused(t *testing.T) {
	c := New[int, int](1, 100, nil)
	c.Put(1, 1, 40)
	c.Put(2, 2, 40)
	if c.Put(3, 3, 101) {
		t.Fatal("oversize Put of a new key reported it resident")
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("oversize entry retained")
	}
	for _, k := range []int{1, 2} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("oversize Put evicted entry %d", k)
		}
	}
	if !c.Put(1, 1, 101) {
		t.Fatal("oversize re-Put did not report the resident key")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("oversize re-Put left the old value under its key")
	}
	// Exactly the budget fits, by evicting everything else.
	c.Put(4, 4, 100)
	if st := c.Stats(); st.Entries != 1 || st.Cost != 100 {
		t.Fatalf("stats after a budget-sized put %+v", st)
	}
	checkShards(t, c)
}

// TestCostBudgetAcrossShards: the budget is split over the shards with
// the remainder spread so the shard budgets sum to exactly the total,
// the shard count never exceeds the budget, and however keys land, the
// charged total never exceeds it.
func TestCostBudgetAcrossShards(t *testing.T) {
	for _, tc := range []struct {
		shards     int
		budget     int64
		wantShards int
		wantPerMin int64
		wantPerMax int64
	}{
		{shards: 16, budget: 4096, wantShards: 16, wantPerMin: 256, wantPerMax: 256},
		{shards: 3, budget: 10, wantShards: 4, wantPerMin: 2, wantPerMax: 3},
		{shards: 16, budget: 8, wantShards: 8, wantPerMin: 1, wantPerMax: 1},
		{shards: 4, budget: 0, wantShards: 1, wantPerMin: 1, wantPerMax: 1},
	} {
		c := New[int, int](tc.shards, tc.budget, hashInt)
		if len(c.shards) != tc.wantShards {
			t.Errorf("New(%d, %d): %d shards, want %d", tc.shards, tc.budget, len(c.shards), tc.wantShards)
			continue
		}
		for i := range c.shards {
			if b := c.shards[i].budget; b < tc.wantPerMin || b > tc.wantPerMax {
				t.Errorf("New(%d, %d): shard %d budget %d", tc.shards, tc.budget, i, b)
			}
		}
		if st := c.Stats(); st.Budget != max(tc.budget, 1) {
			t.Errorf("New(%d, %d): total budget %d", tc.shards, tc.budget, st.Budget)
		}
	}

	const budget = 1000
	c := New[int, []byte](4, budget, hashInt)
	for k := 0; k < 2000; k++ {
		c.Put(k, nil, int64(1+k%97))
		if st := c.Stats(); st.Cost > budget {
			t.Fatalf("after put %d: charged %d over budget %d", k, st.Cost, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Cost < budget/2 {
		t.Fatalf("eviction did not run or discarded far too much: %+v", st)
	}
	if got := len(c.Keys(0)); got != st.Entries {
		t.Fatalf("Keys(0) = %d keys, %d entries", got, st.Entries)
	}
	if got := len(c.Keys(3)); got != 3 {
		t.Fatalf("Keys(3) = %d keys", got)
	}
	checkShards(t, c)
}

// TestConcurrentSameKey hammers one key with concurrent replacing Puts
// and Gets: Get must copy the value out under the shard lock, or it
// races with the Put that replaces it.
func TestConcurrentSameKey(t *testing.T) {
	c := New[int, int](1, 4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if g%2 == 0 {
					c.Put(1, i, 1)
				} else {
					c.Get(1)
				}
			}
		}(g)
	}
	wg.Wait()
	checkShards(t, c)
}

// TestConcurrentShards hammers a small sharded cache from many goroutines
// with overlapping keys and varying costs; -race is the main assertion,
// then every shard's list, map and cost must still agree.
func TestConcurrentShards(t *testing.T) {
	const budget = 64
	c := New[int, int](4, budget, hashInt)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i * (g + 1)) % 100
				if i%3 == 0 {
					c.Put(k, i, int64(1+k%5))
				} else if v, ok := c.Get(k); ok && v%3 != 0 {
					t.Errorf("Get(%d) = %d, a value never put", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Cost > budget {
		t.Fatalf("charged %d over budget %d", st.Cost, budget)
	}
	checkShards(t, c)
}
