package service

import (
	"context"
	"errors"
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
		v, ok := c.peek(k)
		if !ok || v.(int) != i {
			t.Fatalf("key %d aliased or lost (got %v, %v)", i, v, ok)
		}
	}
}

// TestPlanCacheHitMissCounters: peeks never count; serveGroups counts a
// hit or a miss per request its groups stand for, and none for a group
// that got no response.
func TestPlanCacheHitMissCounters(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.MaxItemCost = 1 })
	defer p.Close()
	c := p.cache
	c.put(planKeyN(1), testFrame(t, &PlanResponse{}))
	c.peek(planKeyN(1))
	c.peek(planKeyN(2))
	if h, m := c.hits.Load(), c.misses.Load(); h != 0 || m != 0 {
		t.Fatalf("peeks counted: hits/misses = %d/%d", h, m)
	}
	small := testInstance(t, "uniform", 2, 4, 1).Instance
	big := testInstance(t, "uniform", 4, 300, 1).Instance // 2 cost units
	gs := []group{
		{key: planKeyN(1), n: 2, cost: 1},                           // a hit for two items
		{key: planKeyN(2), ins: small, n: 1, cost: itemCost(small)}, // a miss, computed
		{key: planKeyN(3), ins: big, n: 1, cost: itemCost(big)},     // over budget: no response
	}
	if _, err := p.serveGroups(context.Background(), gs, nil); err != nil {
		t.Fatal(err)
	}
	if gs[1].err != nil || gs[1].source != sourceComputed || !errors.Is(gs[2].err, ErrBadRequest) {
		t.Fatalf("outcomes: %v/%q, %v", gs[1].err, gs[1].source, gs[2].err)
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", h, m)
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
					c.peek(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("cache overflowed its cap: %d entries", n)
	}
}
