package service

import (
	"math"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Request kinds. Plan and estimate are part of every cache/singleflight
// key; batch names only the endpoint, whose items key as plans.
const (
	kindPlan = iota + 1
	kindEstimate
	kindBatch
	numKinds
)

// requestKey identifies a cacheable response: the instance fingerprint
// plus every request parameter that determines the result. Plan responses
// are pure functions of (instance, target); estimate responses add
// (policy, trials, seed) — the Monte Carlo engine is deterministic in
// those, so caching is exact, never approximate.
type requestKey struct {
	fp     sched.Fingerprint
	kind   uint8
	policy string
	target float64
	trials int
	seed   int64
}

// hash mixes the whole key into the shard selector. The fingerprint alone
// already spreads instances; params are folded in so one hot instance's
// plan and estimates do not all pile onto one shard.
func (k requestKey) hash() uint64 {
	h := k.fp.Lo ^ (k.fp.Hi << 1)
	h = rng.Mix64(h ^ uint64(k.kind))
	h = rng.Mix64(h ^ math.Float64bits(k.target))
	h = rng.Mix64(h ^ uint64(k.trials)<<32 ^ uint64(uint32(k.seed)))
	for i := 0; i < len(k.policy); i++ {
		h = (h ^ uint64(k.policy[i])) * 0x100000001b3
	}
	return rng.Mix64(h)
}

// planCacheShards spreads the response cache over enough locks that
// concurrent requests for different instances rarely contend.
const planCacheShards = 16

// planCache is the response cache: an lru.Cache over finished responses
// charged one unit each, so its budget is an entry count. Entries are
// exact values keyed by the full requestKey (the 64-bit hash only picks
// the shard — a hash collision costs a shared shard, never a wrong
// response).
type planCache struct {
	lru  *lru.Cache[requestKey, any]
	hits atomic.Uint64
	// misses counts every admitted request that found nothing — including
	// callers that then coalesce onto another request's flight.
	// Metrics.snapshot folds the coalesced count back in when it reports
	// the hit rate.
	misses atomic.Uint64
}

// newPlanCache builds a cache of at most cap entries.
func newPlanCache(cap int) *planCache {
	return &planCache{lru: lru.New[requestKey, any](planCacheShards, int64(cap), requestKey.hash)}
}

// peek returns the cached response for k, bumping it to most-recently-used,
// without touching the hit/miss counters: serveGroups records those once
// admission settles, and resolve's late re-check serves a racing flight's
// cached result without double-counting a request that already recorded
// its miss.
func (c *planCache) peek(k requestKey) (any, bool) { return c.lru.Get(k) }

// put inserts (or replaces) k's response, evicting the least recently
// used entry of k's shard when the shard is full.
func (c *planCache) put(k requestKey, v any) { c.lru.Put(k, v, 1) }

// Len returns the total number of cached entries.
func (c *planCache) Len() int { return c.lru.Stats().Entries }
