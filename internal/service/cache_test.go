package service

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sched"
)

func fpOf(i int) sched.Fingerprint {
	return sched.Fingerprint{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i) + 1}
}

func planKeyN(i int) requestKey {
	return requestKey{fp: fpOf(i), kind: kindPlan, target: 0.5}
}

func TestPlanCacheDistinguishesParams(t *testing.T) {
	c := newPlanCache(64)
	fp := fpOf(7)
	keys := []requestKey{
		{fp: fp, kind: kindPlan, target: 0.5},
		{fp: fp, kind: kindPlan, target: 1},
		{fp: fp, kind: kindEstimate, policy: "sem", trials: 100, seed: 1},
		{fp: fp, kind: kindEstimate, policy: "sem", trials: 100, seed: 2},
		{fp: fp, kind: kindEstimate, policy: "sem", trials: 200, seed: 1},
		{fp: fp, kind: kindEstimate, policy: "obl", trials: 100, seed: 1},
	}
	for i, k := range keys {
		c.put(k, i)
	}
	for i, k := range keys {
		v, ok := c.get(k)
		if !ok || v.(int) != i {
			t.Fatalf("key %d aliased or lost (got %v, %v)", i, v, ok)
		}
	}
}

func TestPlanCacheHitMissCounters(t *testing.T) {
	c := newPlanCache(8)
	c.put(planKeyN(1), 1)
	c.get(planKeyN(1))
	c.get(planKeyN(2))
	if h, m := c.hits.Load(), c.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d", h, m)
	}
}

// TestPlanCacheConcurrent hammers a small cache from many goroutines with
// overlapping keys; -race is the assertion, plus the entry bound (the
// recency lists themselves are checked in internal/lru).
func TestPlanCacheConcurrent(t *testing.T) {
	c := newPlanCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := planKeyN(i % 100)
				if i%3 == 0 {
					c.put(k, fmt.Sprintf("g%d-%d", g, i))
				} else {
					c.get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("cache overflowed its cap: %d entries", n)
	}
}
