package rounding

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// shrinkChain drives a workspace through SEM's exact access pattern —
// solve on a job set, drop a random subset, double the target — and at
// every link compares the (possibly warm-started) objective against a cold
// solve of the identical problem.
func shrinkChain(t *testing.T, ins *model.Instance, rng *rand.Rand, rounds int) (warm, total int) {
	t.Helper()
	ws := NewWorkspace()
	ws.Begin()
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	L := 0.5
	for round := 1; round <= rounds && len(jobs) > 0; round++ {
		warmBefore := ws.Solver().WarmSolves
		_, tstar, basis, err := ws.solveLP1(ins, jobs, L, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if ws.Solver().WarmSolves > warmBefore {
			warm++
		}
		total++
		_, tcold, err := SolveLP1(ins, jobs, L)
		if err != nil {
			t.Fatalf("round %d cold: %v", round, err)
		}
		if diff := math.Abs(tstar - tcold); diff > 1e-6*(1+math.Abs(tcold)) {
			t.Fatalf("round %d (k=%d, L=%g): warm t* = %.9g, cold t* = %.9g (diff %g)",
				round, len(jobs), L, tstar, tcold, diff)
		}
		ws.advanceChain(ins, jobs, L, basis)
		// Survivors: each job kept with probability 0.35 (SEM's doubly
		// exponential survivor decay is even steeper; this keeps chains
		// alive a few rounds longer to exercise more warm links).
		var surv []int
		for _, j := range jobs {
			if rng.Float64() < 0.35 {
				surv = append(surv, j)
			}
		}
		jobs = surv
		L *= 2
	}
	return warm, total
}

// TestWarmMatchesColdAcrossFamilies is the LP1 warm-start property test:
// across shrinking-subset/doubling-target chains on every Table-1 family —
// including the degenerate specialist family, whose exactly-tied rates
// make every warm install land on a massively degenerate face — the
// warm-started solve's t* must match the cold solve's to 1e-6, and the
// warm path must actually engage, or the test proves nothing.
func TestWarmMatchesColdAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	warm, total := 0, 0
	for _, family := range []string{"uniform", "skill", "specialist", "specialist-degen", "volunteer"} {
		for rep := 0; rep < 3; rep++ {
			ins, err := workload.Generate(workload.Spec{
				Family: family, M: 8, N: 24, Seed: int64(100*rep + 7), Groups: 4,
			})
			if err != nil {
				t.Fatalf("%s: %v", family, err)
			}
			w, n := shrinkChain(t, ins, rng, 5)
			warm += w
			total += n
		}
	}
	if warm == 0 {
		t.Fatalf("warm path never engaged across %d chain links", total)
	}
	t.Logf("warm solves on %d of %d chain links", warm, total)
}

// TestChainedRoundingDeterministic: RoundLP1Chained must give identical
// schedules for identical chains, with or without a cache in between —
// the property Monte Carlo determinism across worker counts rests on.
func TestChainedRoundingDeterministic(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 6, N: 18, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	chain := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		{1, 4, 7, 11, 16},
		{4, 11},
	}
	run := func(c *Cache) []*LP1Result {
		ws := NewWorkspace()
		ws.Begin()
		var out []*LP1Result
		L := 0.5
		for _, jobs := range chain {
			r, err := c.RoundLP1Chained(ws, ins, jobs, L)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
			L *= 2
		}
		return out
	}
	base := run(nil)
	cache := NewCache()
	first := run(cache)  // populates the cache
	second := run(cache) // replays from the cache
	for li := range chain {
		for _, other := range [][]*LP1Result{first, second} {
			if a, b := base[li].Schedule, other[li].Schedule; !reflect.DeepEqual(a, b) {
				t.Fatalf("link %d: schedule diverges: %+v vs %+v", li, a, b)
			}
		}
	}
}

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

// TestCacheSharesBasisWithPlainEntries: a chain's first link must share
// its cache entry with plain RoundLP1Ws callers of the same subproblem
// (it is the same cold, deterministic solve), and every cached entry must
// carry a basis so chains can always be seeded from hits.
func TestCacheSharesBasisWithPlainEntries(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 4, N: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]int, ins.N)
	for j := range full {
		full[j] = j
	}
	c := NewCache()
	plain, err := c.RoundLP1Ws(NewWorkspace(), ins, full, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Basis) == 0 {
		t.Fatal("plain cache compute recorded no basis")
	}
	ws := NewWorkspace()
	ws.Begin()
	chained, err := c.RoundLP1Chained(ws, ins, full, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if chained != plain {
		t.Fatal("chain's first link did not reuse the plain cache entry")
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("expected 1 shared entry, cache holds %d", n)
	}
}
