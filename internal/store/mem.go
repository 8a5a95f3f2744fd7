package store

import (
	"context"
	"sync/atomic"

	"repro/internal/lru"
)

// Mem is the in-memory backend: an lru.Cache of opaque payloads charged
// their length in bytes, so it can sit in a tier stack. A payload larger
// than its shard's share of the budget is not kept.
type Mem struct {
	c *lru.Cache[Key, []byte]

	hits, misses, puts, putSkips atomic.Uint64
}

// NewMem builds a mem store with maxBytes of payload budget spread over
// power-of-two shards (16 when shards <= 0).
func NewMem(maxBytes int64, shards int) *Mem {
	if shards <= 0 {
		shards = 16
	}
	return &Mem{c: lru.New[Key, []byte](shards, maxBytes, Key.hash)}
}

// Name implements PlanStore.
func (m *Mem) Name() string { return "mem" }

// Get implements PlanStore. The returned slice is the interned value;
// callers must not mutate it.
func (m *Mem) Get(_ context.Context, k Key) ([]byte, string, error) {
	v, ok := m.c.Get(k)
	if !ok {
		m.misses.Add(1)
		return nil, "", ErrNotFound
	}
	m.hits.Add(1)
	return v, TierMem, nil
}

// GetLocal implements PlanStore; mem is always local.
func (m *Mem) GetLocal(ctx context.Context, k Key) ([]byte, string, error) {
	return m.Get(ctx, k)
}

// Put implements PlanStore. A value is a pure function of its key, so a
// re-put stores the same bytes again; it counts as a put-skip.
func (m *Mem) Put(_ context.Context, k Key, v []byte) error {
	cp := make([]byte, len(v))
	copy(cp, v)
	if m.c.Put(k, cp, int64(len(cp))) {
		m.putSkips.Add(1)
	} else {
		m.puts.Add(1)
	}
	return nil
}

// PutLocal implements PlanStore.
func (m *Mem) PutLocal(ctx context.Context, k Key, v []byte) error {
	return m.Put(ctx, k, v)
}

// Keys implements PlanStore.
func (m *Mem) Keys(limit int) []Key { return m.c.Keys(limit) }

// Stats implements PlanStore.
func (m *Mem) Stats() Stats {
	lst := m.c.Stats()
	return Stats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Puts:      m.puts.Load(),
		PutSkips:  m.putSkips.Load(),
		Entries:   lst.Entries,
		BytesLive: lst.Cost,
	}
}

// WaitWarm implements PlanStore; mem has nothing to recover.
func (m *Mem) WaitWarm(context.Context) error { return nil }

// Close implements PlanStore.
func (m *Mem) Close() error { return nil }
