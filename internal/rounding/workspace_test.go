package rounding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/workload"
)

// TestCacheBounded hammers the cache with random per-trial job subsets —
// SEM's insertion pattern over a long Monte Carlo run — and asserts the
// charged bytes never exceed the budget, eviction really runs, and the
// LRU property: a full-set entry that every trial touches (SEM's round 1)
// survives subset churn many times the budget.
func TestCacheBounded(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 4, N: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 16 << 10
	c := NewCacheBytes(budget)
	ws := NewWorkspace()
	full := make([]int, ins.N)
	for j := range full {
		full[j] = j
	}
	fullRes, err := c.RoundLP1Ws(ws, ins, full, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]int, 0, ins.N)
	for trial := 0; trial < 10000; trial++ {
		r, err := c.RoundLP1Ws(ws, ins, full, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if r != fullRes {
			t.Fatalf("trial %d: full-set entry touched by every trial was evicted", trial)
		}
		jobs = jobs[:0]
		for j := 0; j < ins.N; j++ {
			if rng.Intn(2) == 0 {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == 0 {
			jobs = append(jobs, rng.Intn(ins.N))
		}
		// Random doubling targets reduce cross-trial key collisions so the
		// stress actually exercises eviction.
		l := math.Pow(2, float64(rng.Intn(6)-1))
		if _, err := c.RoundLP1Ws(ws, ins, jobs, l); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("trial %d: cache charged %d bytes, budget %d", trial, st.Bytes, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", budget, st)
	}
	if st.Bytes < budget/2 {
		t.Fatalf("cache ended at %d bytes — eviction is discarding far more than it should", st.Bytes)
	}
	if st.Hits < 10000 || st.Misses == 0 {
		t.Fatalf("hit/miss counters off: %+v", st)
	}
}

// TestCacheCollisionIsMiss plants one subset's rounding under another
// subset's key, as a 64-bit job-hash collision would: the lookup must
// check the stored job list and recompute instead of serving it.
func TestCacheCollisionIsMiss(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 3, N: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	ws := NewWorkspace()
	a, b := []int{0, 1, 2}, []int{5, 6, 7}
	ra, err := c.RoundLP1Ws(ws, ins, a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	collide := cacheKey{fp: ws.fingerprint(ins), l: 0.5, n: len(b), h: hashJobs(b)}
	c.store(collide, a, ra)
	rb, err := c.RoundLP1Ws(ws, ins, b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rb == ra {
		t.Fatal("collided key served another subset's schedule")
	}
	for _, j := range rb.Schedule.Jobs() {
		if j < 5 {
			t.Fatalf("schedule for %v runs job %d", b, j)
		}
	}
	// The real owner of the key replaced the planted entry.
	if again, _ := c.RoundLP1Ws(ws, ins, b, 0.5); again != rb {
		t.Fatal("recomputed entry was not cached")
	}
}

// TestCacheSharesEqualInstances: entries key on content, so a second
// decoded copy of an instance hits the first copy's entries.
func TestCacheSharesEqualInstances(t *testing.T) {
	spec := workload.Spec{Family: "uniform", M: 3, N: 8, Seed: 6}
	ins1, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ins2, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ins1 == ins2 {
		t.Fatal("want two distinct instance values")
	}
	c := NewCache()
	jobs := []int{0, 2, 4, 6}
	r1, err := c.RoundLP1Ws(NewWorkspace(), ins1, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RoundLP1Ws(NewWorkspace(), ins2, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("equal-content instances did not share the cache entry")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestHashJobsDistinct: distinct subsets must get distinct keys — a
// collision silently aliases two LP results. 64 mixed bits make collisions
// astronomically unlikely; this guards against a mixing bug, not bad luck.
func TestHashJobsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := make(map[uint64]string)
	record := func(jobs []int) {
		h := hashJobs(jobs)
		enc := ""
		for _, j := range jobs {
			enc += string(rune(j+1)) + ","
		}
		if prev, ok := seen[h]; ok && prev != enc {
			t.Fatalf("hash collision: %q and %q both map to %#x", prev, enc, h)
		}
		seen[h] = enc
	}
	// Adjacent subsets (off-by-one ids, swapped neighbors) and random ones.
	for n := 1; n <= 12; n++ {
		jobs := make([]int, n)
		for i := range jobs {
			jobs[i] = i
		}
		record(jobs)
		for i := range jobs {
			jobs[i]++
			record(jobs)
			jobs[i]--
		}
	}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(20)
		jobs := make([]int, n)
		for i := range jobs {
			jobs[i] = rng.Intn(256)
		}
		record(jobs)
	}
}

// TestHashValuesPinned pins hashJobs and hashChains, which share one
// FNV-1a step, to recorded values, so a change to either hash is
// deliberate.
func TestHashValuesPinned(t *testing.T) {
	if h := hashJobs([]int{0, 1, 2, 255, 256, 70000, 1 << 24}); h != 0x346ccdb39760aaed {
		t.Errorf("hashJobs = %#x, want 0x346ccdb39760aaed", h)
	}
	if h, n := hashChains([]dag.Chain{{3, 1}, {}, {0, 300, 1 << 20}}); h != 0x8c294cc812ed6086 || n != 5 {
		t.Errorf("hashChains = %#x, %d; want 0x8c294cc812ed6086, 5", h, n)
	}
	if a, b := hashJobs(nil), uint64(0xf52a15e9a9b5e89b); a != b {
		t.Errorf("hashJobs(nil) = %#x, want %#x", a, b)
	}
}
