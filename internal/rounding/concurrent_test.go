package rounding

// Cross-request concurrency audit (PR 4): the service layer drives one
// Cache and one WorkspacePool from many concurrent requests. These tests
// hammer that sharing directly — the package-level half of the audit
// whose policy-level half lives in internal/core/concurrent_test.go.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

func TestConcurrentCacheAndPool(t *testing.T) {
	ins, err := workload.IndependentUniform(rand.New(rand.NewSource(9)), 4, 12, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	var pool WorkspacePool

	fullSet := make([]int, ins.N)
	for j := range fullSet {
		fullSet[j] = j
	}
	// A handful of fixed subsets so goroutines collide on keys constantly.
	subsets := [][]int{fullSet, {0, 1, 2}, {3, 4, 5, 6}, {0, 2, 4, 6, 8, 10}, {7, 8, 9, 10, 11}}

	// Reference values computed serially first.
	want := make([]float64, len(subsets))
	for i, jobs := range subsets {
		r, err := RoundLP1(ins, jobs, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.TFrac
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				jobs := subsets[(g+i)%len(subsets)]
				ws := pool.Get()
				r, err := cache.RoundLP1Ws(ws, ins, jobs, 0.5)
				pool.Put(ws)
				if err != nil {
					errCh <- err
					return
				}
				if r.TFrac != want[(g+i)%len(subsets)] {
					t.Errorf("goroutine %d iter %d: t* = %v, serial reference %v", g, i, r.TFrac, want[(g+i)%len(subsets)])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries == 0 || st.Bytes > st.Budget {
		t.Fatalf("cache stats %+v: want entries, charged bytes within budget", st)
	}
}

// TestConcurrentCacheEvictsUnderBudget shares one cache whose budget
// holds only a few entries across goroutines that keep missing: LRU
// eviction must run under contention without ever serving a wrong
// rounding or exceeding the budget.
func TestConcurrentCacheEvictsUnderBudget(t *testing.T) {
	ins, err := workload.IndependentUniform(rand.New(rand.NewSource(11)), 4, 12, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]int{{0, 1}, {2, 3, 4}, {5}, {6, 7, 8, 9}, {10, 11}, {0, 5, 10}, {1, 6, 11}, {3, 8}}
	want := make([]float64, len(subsets))
	for i, jobs := range subsets {
		r, err := RoundLP1(ins, jobs, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.TFrac
	}
	const budget = 3 << 10
	cache := NewCacheBytes(budget)
	var pool WorkspacePool
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g*3 + i) % len(subsets)
				ws := pool.Get()
				r, err := cache.RoundLP1Ws(ws, ins, subsets[k], 1)
				pool.Put(ws)
				if err != nil {
					errCh <- err
					return
				}
				if r.TFrac != want[k] {
					t.Errorf("subset %v: t* = %v, serial reference %v", subsets[k], r.TFrac, want[k])
					return
				}
				if st := cache.Stats(); st.Bytes > budget {
					t.Errorf("charged %d bytes over budget %d", st.Bytes, budget)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("budget %d never forced an eviction: %+v", budget, st)
	}
}

func TestConcurrentLP2Cache(t *testing.T) {
	ins, err := workload.Chains(rand.New(rand.NewSource(10)), 4, 12, 4, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := ins.Chains()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RoundLP2(ins, chains)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewLP2Cache()
	var pool WorkspacePool
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ws := pool.Get()
				r, err := cache.RoundLP2Ws(ws, ins, chains)
				pool.Put(ws)
				if err != nil {
					errCh <- err
					return
				}
				if r.TFrac != ref.TFrac {
					t.Errorf("t* = %v, serial reference %v", r.TFrac, ref.TFrac)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
