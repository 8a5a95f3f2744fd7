// Package lru is the bounded least-recently-used cache behind every
// in-memory cache in the repository: the service's response cache and
// decoded-instance cache, the store's mem tier, and the LP1 rounding memo.
//
// A Cache is split into power-of-two shards, each with its own lock, map
// and intrusive recency list, so concurrent callers on different keys
// rarely contend. It is bounded by a total cost that the caller charges
// per entry — 1 per entry for a count bound, payload bytes for a byte
// budget — split evenly over the shards. The bound is strict: an entry
// that costs more than its shard's budget is not stored, and the charged
// cost of a shard never exceeds its budget.
//
// Put replaces: after Put(k, v, cost) the cache holds v under k, or
// nothing under k if v is too large. Every caller's value is a pure
// function of its key, or carries the data the caller verifies a hit
// against, so replacing a resident value and keeping it give the same
// results; replacing is what lets a verified cache hand a hash-colliding
// slot to its newer owner without a separate remove.
package lru

import "sync"

// Cache maps K to V under a cost budget, evicting the least recently
// used entries of a shard to make room. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	hash   func(K) uint64
}

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[K, V]
	// root is the recency list's sentinel: root.next is the most
	// recently used entry, root.prev the next to evict.
	root      entry[K, V]
	cost      int64
	budget    int64
	evictions uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// Stats is a point-in-time view of a Cache's size.
type Stats struct {
	Entries   int
	Cost      int64  // charged cost of the live entries
	Budget    int64  // the bound on Cost
	Evictions uint64 // entries dropped to make room for a Put
}

// New returns an empty cache whose entries' total charged cost never
// exceeds budget (at least 1). The budget is split over shards shards,
// rounded up to a power of two but to no more shards than budget units,
// and hash picks each key's shard; hash may be nil when shards ≤ 1.
func New[K comparable, V any](shards int, budget int64, hash func(K) uint64) *Cache[K, V] {
	budget = max(budget, 1)
	n := 1
	for n < shards && int64(2*n) <= budget {
		n <<= 1
	}
	if n > 1 && hash == nil {
		panic("lru: a sharded cache needs a hash")
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], n), mask: uint64(n - 1), hash: hash}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[K]*entry[K, V])
		s.root.next, s.root.prev = &s.root, &s.root
		s.budget = budget / int64(n)
		if int64(i) < budget%int64(n) {
			s.budget++
		}
	}
	return c
}

func (c *Cache[K, V]) shardOf(k K) *shard[K, V] {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[c.hash(k)&c.mask]
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	e, ok := s.m[k]
	var v V
	if ok {
		s.unlink(e)
		s.pushFront(e)
		v = e.val
	}
	s.mu.Unlock()
	return v, ok
}

// Put stores v under k, charged cost, as the shard's most recently used
// entry, replacing any value resident under k, and evicts from the
// shard's cold end until the charged cost fits its budget. If cost
// exceeds the shard's budget, v is not stored (and any value resident
// under k is dropped). Put reports whether k was resident before the call.
func (c *Cache[K, V]) Put(k K, v V, cost int64) (replaced bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, replaced := s.m[k]
	if replaced {
		s.remove(e)
	}
	if cost > s.budget {
		return replaced
	}
	for s.cost+cost > s.budget {
		s.remove(s.root.prev)
		s.evictions++
	}
	if !replaced {
		e = &entry[K, V]{key: k}
	}
	e.val, e.cost = v, cost
	s.m[k] = e
	s.pushFront(e)
	s.cost += cost
	return replaced
}

// Keys returns up to limit resident keys (all of them when limit ≤ 0),
// in no particular order.
func (c *Cache[K, V]) Keys(limit int) []K {
	var out []K
	for i := 0; i < len(c.shards) && (limit <= 0 || len(out) < limit); i++ {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.m {
			if limit > 0 && len(out) >= limit {
				break
			}
			out = append(out, k)
		}
		s.mu.Unlock()
	}
	return out
}

// Stats sums the shards' sizes, each read under its shard's lock.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		st.Cost += s.cost
		st.Budget += s.budget
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
}

// recency list and accounting; callers hold s.mu.

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &s.root, s.root.next
	s.root.next.prev = e
	s.root.next = e
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (s *shard[K, V]) remove(e *entry[K, V]) {
	s.unlink(e)
	delete(s.m, e.key)
	s.cost -= e.cost
}
