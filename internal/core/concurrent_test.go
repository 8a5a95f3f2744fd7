package core

// Cross-request concurrency audit. A planner service shares ONE
// rounding.Cache across every estimate computation for its whole life,
// handing it to a fresh policy value per computation, and some callers
// share one policy value — and through it one LP2Cache, one
// WorkspacePool, and one lazily-built default subrunner — across many
// concurrent Monte Carlo runs. The audit findings these tests pin:
//
//   - rounding.Cache / LP2Cache: all state behind one mutex; misses
//     compute outside the lock (duplicated work allowed, results are pure
//     functions of keys); rounding.Cache keys on instance content, so
//     equal instances decoded separately share entries, and its LRU
//     eviction can only cost a recompute — safe.
//   - rounding.WorkspacePool: sync.Pool of exclusively-held workspaces;
//     every LP1 and LP2 solve starts cold, so a workspace carries only
//     arenas from one holder to the next, never solver state a result
//     could depend on — safe.
//   - SEM/OBL/Chains/Forest/Layered: configuration is read-only after
//     construction; per-trial state lives in locals and the World; lazy
//     defaults (defLong, defEngine, defInner) are built under sync.Once —
//     safe.
//
// Each test runs several concurrent MonteCarlo estimates against shared
// state under -race and asserts the samples match a serial fresh-cache
// reference run exactly (sharing must never change results).

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sim"
	"repro/internal/workload"
)

// concurrentEstimates runs rounds×Estimate concurrently on one shared
// policy and compares every sample to the serial reference.
func concurrentEstimates(t *testing.T, shared sim.Policy, fresh func() sim.Policy, ins *model.Instance) {
	t.Helper()
	const (
		rounds = 4
		trials = 10
	)
	ref, err := sim.MonteCarlo(ins, fresh(), trials, 1, 1)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, rounds)
	results := make([]*sim.MCResult, rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := sim.MonteCarlo(ins, shared, trials, 1, 2)
			if err != nil {
				errCh <- err
				return
			}
			results[r] = res
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for r, res := range results {
		for i, ms := range res.Makespans {
			if ms != ref.Makespans[i] {
				t.Fatalf("round %d trial %d: makespan %v, serial reference %v — sharing changed results",
					r, i, ms, ref.Makespans[i])
			}
		}
	}
}

func TestConcurrentEstimateSharedSEM(t *testing.T) {
	ins := uniformInstance(t, 41, 4, 12)
	shared := &SEM{Cache: rounding.NewCache()}
	concurrentEstimates(t, shared, func() sim.Policy { return &SEM{Cache: rounding.NewCache()} }, ins)
}

func TestConcurrentEstimateSharedOBL(t *testing.T) {
	ins := uniformInstance(t, 42, 4, 12)
	shared := &OBL{Cache: rounding.NewCache()}
	concurrentEstimates(t, shared, func() sim.Policy { return &OBL{Cache: rounding.NewCache()} }, ins)
}

func TestConcurrentEstimateSharedChains(t *testing.T) {
	ins, err := workload.Chains(rand.New(rand.NewSource(43)), 4, 12, 4, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sim.Policy {
		return &Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}
	}
	concurrentEstimates(t, mk(), mk, ins)
}

func TestConcurrentEstimateSharedForest(t *testing.T) {
	ins, err := workload.Forest(rand.New(rand.NewSource(44)), 4, 14, 3, true, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Engine nil: the default Chains engine is built lazily under
	// sync.Once, with every concurrent trial racing to be first.
	mk := func() sim.Policy { return &Forest{} }
	concurrentEstimates(t, mk(), mk, ins)
}

func TestConcurrentEstimateSharedLayered(t *testing.T) {
	ins, err := workload.MapReduce(rand.New(rand.NewSource(45)), 4, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Inner nil: same lazy-default race as Forest.
	mk := func() sim.Policy { return &Layered{} }
	concurrentEstimates(t, mk(), mk, ins)
}

// TestConcurrentSharedCacheAcrossPolicies drives one rounding.Cache from
// two policy values at once (the service hands one cache to every policy
// it builds) plus direct concurrent RoundLP1 calls racing the same keys.
func TestConcurrentSharedCacheAcrossPolicies(t *testing.T) {
	ins := uniformInstance(t, 46, 4, 10)
	cache := rounding.NewCache()
	a := &SEM{Cache: cache}
	b := &OBL{Cache: cache}
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sim.MonteCarlo(ins, a, 8, 1, 2); err != nil {
				errCh <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sim.MonteCarlo(ins, b, 8, 1, 2); err != nil {
				errCh <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := cache.RoundLP1(ins, jobs, 0.5); err != nil {
					errCh <- err
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

// TestConcurrentSharedCacheAcrossInstances is the planner's sharing
// pattern: one budget-bounded rounding.Cache handed to a fresh SEM per
// computation, driven concurrently over distinct instances and over
// separately generated copies of each. Every sample must equal its
// fresh-cache serial reference while eviction churns, and the charged
// bytes must stay within the budget.
func TestConcurrentSharedCacheAcrossInstances(t *testing.T) {
	const (
		trials = 12
		budget = 6 << 10
	)
	seeds := []int64{50, 51, 52}
	refs := make([]*sim.MCResult, len(seeds))
	for k, seed := range seeds {
		ref, err := sim.MonteCarlo(uniformInstance(t, seed, 4, 12), &SEM{Cache: rounding.NewCache()}, trials, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		refs[k] = ref
	}
	cache := rounding.NewCacheBytes(budget)
	var wg sync.WaitGroup
	errCh := make(chan error, 2*len(seeds))
	for g := 0; g < 2*len(seeds); g++ {
		k := g % len(seeds)
		ins := uniformInstance(t, seeds[k], 4, 12) // a distinct copy per goroutine
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sim.MonteCarlo(ins, &SEM{Cache: cache}, trials, 1, 2)
			if err != nil {
				errCh <- err
				return
			}
			for i, ms := range res.Makespans {
				if ms != refs[k].Makespans[i] {
					t.Errorf("instance %d trial %d: makespan %v, fresh-cache reference %v", k, i, ms, refs[k].Makespans[i])
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
	if st := cache.Stats(); st.Bytes > budget || st.Hits == 0 {
		t.Fatalf("shared cache stats %+v: want hits, charged bytes within %d", st, budget)
	}
}
