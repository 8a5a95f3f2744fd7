package rounding

import (
	"math"
	"slices"
	"sync"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/sched"
)

// DefaultCacheBytes is the charged-byte budget NewCache applies. A cached
// rounding of SEM's survivor sets costs about 0.9 KB (schedule runs,
// basis, job list, bookkeeping; see entryCharge), so 1 MiB holds the
// round-1 full-set solves and the recurring small survivor sets of a
// working set of instances, while bounding what a long-lived planner
// keeps resident.
const DefaultCacheBytes = 1 << 20

// Cache memoizes RoundLP1 results, and is meant to be shared: one cache
// serves every policy and Monte Carlo computation built on it for its
// whole life. The first SUU-I-SEM round and the whole of SUU-I-OBL solve
// LP1 on the full job set with a fixed target, which is identical across
// trials and across requests on the same instance; caching it removes the
// dominant LP cost from every trial after the first. Later (random)
// subset solves are cached too, keyed by the warm-start chain that
// produced them (see RoundLP1Chained), so repeated survivor patterns —
// common at small n — are also free after first sight.
//
// Entries are keyed by the instance's content fingerprint, never its
// pointer, so the cache pins no instance and two equal instances decoded
// separately share entries. Each entry stores its job list and a lookup
// must match it exactly, so a 64-bit job-hash collision is a miss, never
// a wrong schedule. Eviction is LRU under a charged-byte budget; entries
// every trial touches (the full-set solves) stay hot and survive subset
// churn. Values are pure functions of their keys, so eviction can never
// change a result, only cost a recompute. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	m      map[cacheKey]*cacheEntry
	lru    cacheEntry // sentinel: lru.next is the most recent entry
	budget int64
	bytes  int64

	hits, misses, evictions uint64
}

// cacheEntry is one memoized rounding on the cache's LRU list.
type cacheEntry struct {
	key        cacheKey
	jobs       []int
	res        *LP1Result
	charge     int64
	prev, next *cacheEntry
}

// cacheKey is a fixed-size comparable key: instance content fingerprint,
// target, job count, and a 64-bit hash of the job ids (plus warm-chain
// history for chained entries). The entry's stored job list resolves
// hash collisions.
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
	c := &Cache{m: make(map[cacheKey]*cacheEntry), budget: budget}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// entryOverhead approximates the fixed cost of one entry: the map slot,
// the entry and its LP1Result and Oblivious headers.
const entryOverhead = 240

// entryCharge is the byte cost an entry is charged against the budget.
func entryCharge(jobs []int, r *LP1Result) int64 {
	n := entryOverhead + 8*cap(jobs) + 8*cap(r.Basis)
	if o := r.Schedule; o != nil {
		n += 24 * len(o.Runs)
		for _, runs := range o.Runs {
			n += 16 * len(runs)
		}
		n += 8 * len(o.Jobs())
	}
	return int64(n)
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// lookup returns the entry for key if its job list is exactly jobs,
// marking it most recently used.
func (c *Cache) lookup(key cacheKey, jobs []int) (*LP1Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok || !slices.Equal(e.jobs, jobs) {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	return e.res, true
}

// store inserts (key, jobs) → r as the most recent entry and evicts from
// the cold end until the charged bytes fit the budget. If a concurrent
// miss stored the same subproblem first, its (identical) result is kept
// and returned. An entry larger than the whole budget is not stored.
func (c *Cache) store(key cacheKey, jobs []int, r *LP1Result) *LP1Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		if slices.Equal(e.jobs, jobs) {
			c.unlink(e)
			c.pushFront(e)
			return e.res
		}
		// A hash collision: the newer subproblem takes the slot.
		c.remove(e)
	}
	owned := append([]int(nil), jobs...)
	charge := entryCharge(owned, r)
	if charge > c.budget {
		return r
	}
	for c.bytes+charge > c.budget {
		c.remove(c.lru.prev)
		c.evictions++
	}
	e := &cacheEntry{key: key, jobs: owned, res: r, charge: charge}
	c.m[key] = e
	c.pushFront(e)
	c.bytes += charge
	return r
}

func (c *Cache) remove(e *cacheEntry) {
	c.unlink(e)
	delete(c.m, e.key)
	c.bytes -= e.charge
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

// RoundLP1Ws is RoundLP1 computing misses on the caller's workspace (cold
// solve — the workspace's warm chain is not consulted, so the cached value
// is a pure function of the key).
func (c *Cache) RoundLP1Ws(ws *Workspace, ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		return ws.roundLP1(ins, jobs, L, false)
	}
	key := cacheKey{fp: ws.fingerprint(ins), l: L, n: len(jobs), h: hashJobs(jobs)}
	if r, ok := c.lookup(key, jobs); ok {
		return r, nil
	}
	// Compute outside the lock: concurrent misses may duplicate work but
	// never block each other on a multi-second LP solve.
	r, err := ws.roundLP1(ins, jobs, L, false)
	if err != nil {
		return nil, err
	}
	return c.store(key, jobs, r), nil
}

// RoundLP1Chained returns the rounding for (ins, jobs, L) solved as the
// next link of ws's warm chain, and advances the chain past it. The cache
// key includes the chain history, so an entry is only reused by trials
// whose whole re-solve chain matches — which makes the cached value a
// deterministic function of the key even though warm and cold solves may
// legitimately land on different optimal vertices. A chain's first link
// has no history and shares its entry with RoundLP1Ws callers.
func (c *Cache) RoundLP1Chained(ws *Workspace, ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		r, err := ws.roundLP1(ins, jobs, L, true)
		if err != nil {
			return nil, err
		}
		ws.advanceChain(ins, jobs, L, r.Basis)
		return r, nil
	}
	key := cacheKey{fp: ws.fingerprint(ins), l: L, n: len(jobs), h: ws.chainKeyHash(jobs)}
	r, ok := c.lookup(key, jobs)
	if !ok {
		var err error
		if r, err = ws.roundLP1(ins, jobs, L, true); err != nil {
			return nil, err
		}
		r = c.store(key, jobs, r)
	}
	ws.advanceChain(ins, jobs, L, r.Basis)
	return r, nil
}

// Stats returns the cache's counters and size, read under one lock so
// they are mutually consistent. A nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.m),
		Bytes:     c.bytes,
		Budget:    c.budget,
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
		v := uint64(uint32(j))
		h = (h ^ (v & 0xff)) * fnvPrime64
		h = (h ^ ((v >> 8) & 0xff)) * fnvPrime64
		h = (h ^ ((v >> 16) & 0xff)) * fnvPrime64
		h = (h ^ ((v >> 24) & 0xff)) * fnvPrime64
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer, a strong 64→64 bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix2 combines two hashes order-dependently.
func mix2(a, b uint64) uint64 {
	return mix64(a ^ (b + 0x9e3779b97f4a7c15))
}

// chainMix folds one solved chain link (its job-set hash and target) into
// the running chain hash.
func chainMix(chain, jobsHash uint64, l float64) uint64 {
	return mix64(mix2(chain, jobsHash) ^ math.Float64bits(l))
}

// LP2Cache memoizes RoundLP2 results. SUU-C's LP2 assignment depends only
// on the instance, its chain structure, and (under SUU-T's cross-block
// warm chain) the sequence of blocks solved before it — never on a random
// outcome — so one solve serves every Monte Carlo trial, and the set of
// distinct (block, history) pairs per instance is tiny (one per SUU-T
// decomposition block), so no bound is needed. Keys mix in the workspace's
// LP2 chain history the way LP1's chained keys do, which keeps every
// trial's rounding a deterministic function of its block sequence even
// though warm and cold solves may land on different optimal vertices.
// Safe for concurrent use.
type LP2Cache struct {
	mu sync.Mutex
	m  map[lp2Key]*LP2Result
}

// lp2Key hashes the chain structure (ids with per-chain separators) the
// same way cacheKey hashes job subsets.
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
			v := uint64(uint32(j))
			h = (h ^ (v & 0xff)) * fnvPrime64
			h = (h ^ ((v >> 8) & 0xff)) * fnvPrime64
			h = (h ^ ((v >> 16) & 0xff)) * fnvPrime64
			h = (h ^ ((v >> 24) & 0xff)) * fnvPrime64
			n++
		}
		h = (h ^ 0x1ff) * fnvPrime64 // chain separator, outside the id byte range
	}
	return mix64(h), n
}

// NewLP2Cache returns an empty cache.
func NewLP2Cache() *LP2Cache {
	return &LP2Cache{m: make(map[lp2Key]*LP2Result)}
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
// Monte Carlo worker's LP2 miss reuses its trial stream's solver — solved
// as the next block of the workspace's LP2 warm chain, which it advances
// past the block (on hits too, from the cached basis, so a trial's chain
// state is identical whether its blocks computed or hit).
func (c *LP2Cache) RoundLP2Ws(ws *Workspace, ins *model.Instance, chains []dag.Chain) (*LP2Result, error) {
	h, n := hashChains(chains)
	if c == nil {
		r, err := roundLP2(ins, chains, ws)
		if err != nil {
			return nil, err
		}
		ws.advanceLP2(ins, r.Basis, n, h)
		return r, nil
	}
	key := lp2Key{ins: ins, n: n, h: ws.lp2KeyHash(h)}
	c.mu.Lock()
	if r, ok := c.m[key]; ok {
		c.mu.Unlock()
		ws.advanceLP2(ins, r.Basis, n, h)
		return r, nil
	}
	c.mu.Unlock()
	r, err := roundLP2(ins, chains, ws)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
	ws.advanceLP2(ins, r.Basis, n, h)
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
