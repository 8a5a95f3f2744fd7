package rounding

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/lru"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sched"
)

// DefaultCacheBytes is the charged-byte budget NewCache applies. A cached
// rounding of SEM's survivor sets costs well under 1 KB (schedule runs,
// job list, bookkeeping; see entryCharge), so 1 MiB holds the
// round-1 full-set solves and the recurring small survivor sets of a
// working set of instances, while bounding what a long-lived planner
// keeps resident.
const DefaultCacheBytes = 1 << 20

// Cache memoizes RoundLP1 results, and is meant to be shared: one cache
// serves every policy and Monte Carlo computation built on it for its
// whole life. The first SUU-I-SEM round and the whole of SUU-I-OBL solve
// LP1 on the full job set with a fixed target, which is identical across
// trials and across requests on the same instance; caching it removes the
// dominant LP cost from every trial after the first. SEM's later rounds
// solve LP1 cold on each round's survivor set, so those roundings are
// keyed by the job set alone and shared by every trial, and every
// request, that reaches the same survivors at the same target; the small
// survivor sets of SEM's late rounds recur across trials.
//
// Entries are keyed by the instance's content fingerprint, never its
// pointer, so the cache pins no instance and two equal instances decoded
// separately share entries. Each entry stores its job list and a lookup
// must match it exactly, so a 64-bit job-hash collision is a miss, never
// a wrong schedule. Storage is a one-shard lru.Cache charged entryCharge
// bytes per entry; entries every trial touches (the full-set solves) stay
// hot and survive subset churn. Values are pure functions of their keys,
// so eviction can never change a result, only cost a recompute. Safe for
// concurrent use.
type Cache struct {
	lru          *lru.Cache[cacheKey, cacheEntry]
	hits, misses atomic.Uint64
}

// cacheEntry is one memoized rounding and the job list it was solved for.
type cacheEntry struct {
	jobs []int
	res  *LP1Result
}

// cacheKey is a fixed-size comparable key: instance content fingerprint,
// target, job count, and a 64-bit hash of the job ids. The entry's stored
// job list resolves hash collisions.
type cacheKey struct {
	fp sched.Fingerprint
	l  float64
	n  int
	h  uint64
}

// CacheStats is a point-in-time view of a Cache's effectiveness and size.
type CacheStats struct {
	Hits      uint64 // lookups served from an entry
	Misses    uint64 // lookups that had to compute
	Evictions uint64 // entries dropped to stay under the budget
	Entries   int
	Bytes     int64 // charged bytes of the live entries
	Budget    int64
}

// NewCache returns an empty cache with the DefaultCacheBytes budget.
func NewCache() *Cache { return NewCacheBytes(DefaultCacheBytes) }

// NewCacheBytes returns an empty cache whose entries' charged bytes never
// exceed budget. Non-positive budgets fall back to DefaultCacheBytes.
func NewCacheBytes(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &Cache{lru: lru.New[cacheKey, cacheEntry](1, budget, nil)}
}

// entryOverhead approximates the fixed cost of one entry: the map slot,
// the entry and its LP1Result and Oblivious headers.
const entryOverhead = 240

// entryCharge is the byte cost an entry is charged against the budget.
func entryCharge(jobs []int, r *LP1Result) int64 {
	n := entryOverhead + 8*cap(jobs)
	if o := r.Schedule; o != nil {
		n += 24 * len(o.Runs)
		for _, runs := range o.Runs {
			n += 16 * len(runs)
		}
		n += 8 * len(o.Jobs())
	}
	return int64(n)
}

// lookup returns the entry for key if its job list is exactly jobs,
// marking it most recently used.
func (c *Cache) lookup(key cacheKey, jobs []int) (*LP1Result, bool) {
	e, ok := c.lru.Get(key)
	if !ok || !slices.Equal(e.jobs, jobs) {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.res, true
}

// store caches (key, jobs) → r, taking the slot from whatever key held:
// a concurrent miss's identical result, or the loser of a hash collision.
// An entry larger than the whole budget is not stored.
func (c *Cache) store(key cacheKey, jobs []int, r *LP1Result) {
	owned := append([]int(nil), jobs...)
	c.lru.Put(key, cacheEntry{jobs: owned, res: r}, entryCharge(owned, r))
}

// RoundLP1 returns the memoized rounding for (ins, jobs, L), computing it
// on first use with a throwaway workspace. Results are shared; callers
// must not mutate them.
func (c *Cache) RoundLP1(ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		return RoundLP1(ins, jobs, L)
	}
	return c.RoundLP1Ws(NewWorkspace(), ins, jobs, L)
}

// RoundLP1Ws is RoundLP1 computing misses on the caller's workspace. The
// solve is cold, so the cached value is a pure function of the key.
func (c *Cache) RoundLP1Ws(ws *Workspace, ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		return ws.roundLP1(ins, jobs, L)
	}
	key := cacheKey{fp: ws.fingerprint(ins), l: L, n: len(jobs), h: hashJobs(jobs)}
	if r, ok := c.lookup(key, jobs); ok {
		return r, nil
	}
	// Compute outside the lock: concurrent misses may duplicate work but
	// never block each other on a multi-second LP solve.
	r, err := ws.roundLP1(ins, jobs, L)
	if err != nil {
		return nil, err
	}
	c.store(key, jobs, r)
	return r, nil
}

// Stats returns the cache's counters and size. The size fields are read
// under the cache's lock, so Bytes never exceeds Budget; the hit and miss
// counters are read separately. A nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := c.lru.Stats()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Cost,
		Budget:    st.Budget,
	}
}

// FNV-1a constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashJobs is FNV-1a over the little-endian bytes of each job id, finished
// with a SplitMix64-style avalanche so short id lists still spread over
// the whole key space.
func hashJobs(jobs []int) uint64 {
	h := uint64(fnvOffset64)
	for _, j := range jobs {
		h = fnvID(h, j)
	}
	return rng.Mix64(h)
}

// fnvID is one FNV-1a step over the four little-endian bytes of id.
func fnvID(h uint64, id int) uint64 {
	v := uint64(uint32(id))
	h = (h ^ (v & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 8) & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 16) & 0xff)) * fnvPrime64
	return (h ^ ((v >> 24) & 0xff)) * fnvPrime64
}

// LP2Cache memoizes RoundLP2 results. SUU-C's LP2 assignment depends only
// on the instance and its chain structure — never on a random outcome or
// on what the solving workspace solved before — so one solve serves every
// Monte Carlo trial, and each SUU-T decomposition block gets one entry.
// It stays an unbounded map rather than an lru.Cache: it holds one entry
// per block, and it lives for one computation (the service builds a fresh
// one per estimate), so there is nothing to evict and no budget to
// enforce. Like Cache, each entry stores what it was solved for — the
// chain structure — and a lookup must match it exactly, so a 64-bit hash
// collision is a miss, never a wrong rounding. Safe for concurrent use.
type LP2Cache struct {
	mu sync.Mutex
	m  map[lp2Key]lp2Entry
}

// lp2Entry is one memoized rounding and its chains flattened: each
// chain's ids followed by a -1 separator.
type lp2Entry struct {
	flat []int
	res  *LP2Result
}

// lp2Key hashes the chain structure (ids with per-chain separators) the
// same way cacheKey hashes job subsets. The entry's flattened chains
// resolve hash collisions.
type lp2Key struct {
	ins *model.Instance
	n   int // total jobs across chains
	h   uint64
}

func hashChains(chains []dag.Chain) (uint64, int) {
	h := uint64(fnvOffset64)
	n := 0
	for _, ch := range chains {
		for _, j := range ch {
			h = fnvID(h, j)
			n++
		}
		h = (h ^ 0x1ff) * fnvPrime64 // chain separator, outside the id byte range
	}
	return rng.Mix64(h), n
}

// matches reports whether e was solved for exactly chains.
func (e lp2Entry) matches(chains []dag.Chain) bool {
	k := 0
	for _, ch := range chains {
		if len(e.flat) < k+len(ch)+1 || !slices.Equal(e.flat[k:k+len(ch)], ch) || e.flat[k+len(ch)] != -1 {
			return false
		}
		k += len(ch) + 1
	}
	return k == len(e.flat)
}

// NewLP2Cache returns an empty cache.
func NewLP2Cache() *LP2Cache {
	return &LP2Cache{m: make(map[lp2Key]lp2Entry)}
}

// RoundLP2 returns the memoized rounding for (ins, chains), computing it on
// first use. Results are shared; callers must not mutate them.
func (c *LP2Cache) RoundLP2(ins *model.Instance, chains []dag.Chain) (*LP2Result, error) {
	if c == nil {
		return RoundLP2(ins, chains)
	}
	return c.RoundLP2Ws(NewWorkspace(), ins, chains)
}

// RoundLP2Ws is RoundLP2 computing misses on the caller's workspace — a
// Monte Carlo worker's LP2 miss reuses its trial stream's solver. The
// solve is cold, so the cached value is a pure function of the key.
func (c *LP2Cache) RoundLP2Ws(ws *Workspace, ins *model.Instance, chains []dag.Chain) (*LP2Result, error) {
	if c == nil {
		return roundLP2(ins, chains, ws)
	}
	h, n := hashChains(chains)
	key := lp2Key{ins: ins, n: n, h: h}
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	if ok && e.matches(chains) {
		return e.res, nil
	}
	r, err := roundLP2(ins, chains, ws)
	if err != nil {
		return nil, err
	}
	// The new entry takes the slot from whatever held it: a concurrent
	// miss's identical result, or the loser of a hash collision.
	flat := make([]int, 0, n+len(chains))
	for _, ch := range chains {
		flat = append(append(flat, ch...), -1)
	}
	c.mu.Lock()
	c.m[key] = lp2Entry{flat: flat, res: r}
	c.mu.Unlock()
	return r, nil
}

// RoundLP1Naive is the ablation baseline for Lemma 2: solve the relaxation
// exactly, then round each fractional assignment up independently
// (x̂ = ⌈6x*⌉ wherever x* > 0) instead of routing a flow. Exported for the
// A/rounding experiment.
func RoundLP1Naive(ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if len(jobs) == 0 {
		return emptyLP1(ins), nil
	}
	xfrac, tstar, err := SolveLP1(ins, jobs, L)
	if err != nil {
		return nil, err
	}
	return RoundFractionalNaive(ins, jobs, L, xfrac, tstar)
}
