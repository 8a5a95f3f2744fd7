package store

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/rng"
)

// Key is a 128-bit content address. The service derives it from the full
// request key (instance fingerprint plus every result-determining
// parameter), so a stored value is a pure function of its Key — two
// replicas can never hold conflicting values for the same Key, which is
// what makes replication here conflict-free: writes are idempotent,
// re-puts are no-ops, and "newest wins" never has to be decided.
//
// Like sched.Fingerprint, the address defends against accidental
// collisions (2⁻¹²⁸), not adversarial construction.
type Key struct {
	Hi, Lo uint64
}

// hash folds both halves of k into 64 mixed bits: the key's mem-tier
// shard and its position on the replica ring.
func (k Key) hash() uint64 { return rng.Mix64(k.Hi ^ rng.Mix64(k.Lo)) }

// IsZero reports the zero key ("not computed"); real keys never are.
func (k Key) IsZero() bool { return k.Hi == 0 && k.Lo == 0 }

// String renders the key as 32 hex digits — the peer protocol's wire form.
func (k Key) String() string {
	var b [16]byte
	putU64(b[:8], k.Hi)
	putU64(b[8:], k.Lo)
	return hex.EncodeToString(b[:])
}

// ParseKey inverts String.
func ParseKey(s string) (Key, error) {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		return Key{}, fmt.Errorf("store: bad key %q", s)
	}
	return Key{Hi: getU64(b[:8]), Lo: getU64(b[8:])}, nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * (7 - i)))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// ErrNotFound reports a key the store (and, for replicated stores, every
// reachable owner) does not hold.
var ErrNotFound = errors.New("store: not found")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Tier names, returned by Get so callers can meter per-tier hit counts and
// latencies without knowing the stack's composition.
const (
	TierMem  = "mem"
	TierDisk = "disk"
	TierPeer = "peer"
)

// PlanStore is the multi-backend storage interface for finished plan and
// estimate payloads, in the style of fabbench's db iface and pebble-bench's
// pluggable Database: mem (sharded LRU), disk (append-only checksummed
// segment log), and replicated (consistent-hash peer routing over either)
// all serve it, and Tiered layers them.
//
// Values are opaque bytes owned by the caller; implementations must not
// retain or mutate the slice passed to Put after returning, and callers
// must not mutate the slice returned by Get (disk returns fresh copies;
// mem returns its interned value).
type PlanStore interface {
	// Name identifies the backend ("mem", "disk", "replicated", "tiered").
	Name() string
	// Get returns the value for k and the tier that served it (TierMem,
	// TierDisk, or TierPeer), or ErrNotFound. A replicated store falls
	// through to peer fetch on local miss (read-through) and warms its
	// local tier with what it finds.
	Get(ctx context.Context, k Key) (val []byte, tier string, err error)
	// GetLocal is Get restricted to this node's own tiers — the peer
	// protocol serves it, so one replica asking another can never cascade
	// into a fetch storm.
	GetLocal(ctx context.Context, k Key) (val []byte, tier string, err error)
	// Put stores k's value. Content addressing makes it idempotent: a key
	// already present is a cheap no-op (first write wins; the values are
	// byte-identical by construction). A replicated store also fans the
	// write out to the key's owner peers asynchronously (write-behind),
	// queueing hinted handoff for owners that are down.
	Put(ctx context.Context, k Key, v []byte) error
	// PutLocal is Put restricted to this node (no replication fan-out) —
	// the write half of the peer protocol.
	PutLocal(ctx context.Context, k Key, v []byte) error
	// Keys samples up to limit locally-held keys (anti-entropy's seed;
	// order unspecified). limit <= 0 means all.
	Keys(limit int) []Key
	// Stats reads the cumulative ledger, merged across wrapped tiers.
	Stats() Stats
	// WaitWarm blocks until the store is ready to serve a fleet: the disk
	// index is rebuilt (done by Open) and the replicated startup
	// anti-entropy pass has completed. mem and disk return immediately.
	WaitWarm(ctx context.Context) error
	// Close flushes (final fsync), stops background work, and closes the
	// whole stack, wrapped tiers included.
	Close() error
}

// Stats is the cumulative ledger every backend keeps; wrapping stores
// merge their own counters with their children's. All counters are
// monotone over the store's lifetime.
type Stats struct {
	// Entries is live keys held locally (gauge, not a counter).
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	// PutSkips counts idempotent re-puts of an already-held key.
	PutSkips  uint64 `json:"put_skips"`
	PutErrors uint64 `json:"put_errors"`
	// CorruptDropped counts records quarantined instead of served: torn
	// tails and implausible framing at open, CRC mismatches at open or at
	// read time. A quarantined record is counted, skipped, and (at read
	// time) unindexed — never returned, never fatal.
	CorruptDropped uint64 `json:"corrupt_dropped"`
	// Replication ledger: fan-out writes queued as hinted handoff because
	// an owner peer was down, handoff records later delivered, handoff
	// records dropped at the queue cap, read-through peer fetches and
	// their failures, and keys pulled by the startup anti-entropy pass.
	HandoffQueued     uint64 `json:"handoff_queued"`
	HandoffDrained    uint64 `json:"handoff_drained"`
	HandoffDropped    uint64 `json:"handoff_dropped"`
	PeerFetches       uint64 `json:"peer_fetches"`
	PeerFetchFails    uint64 `json:"peer_fetch_fails"`
	AntiEntropyPulled uint64 `json:"anti_entropy_pulled"`
	// Disk ledger.
	BytesLive   int64  `json:"bytes_live"`
	BytesTotal  int64  `json:"bytes_total"`
	Segments    int    `json:"segments"`
	Compactions uint64 `json:"compactions"`
}

// merge folds o into s.
func (s *Stats) merge(o Stats) {
	s.Entries += o.Entries
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.PutSkips += o.PutSkips
	s.PutErrors += o.PutErrors
	s.CorruptDropped += o.CorruptDropped
	s.HandoffQueued += o.HandoffQueued
	s.HandoffDrained += o.HandoffDrained
	s.HandoffDropped += o.HandoffDropped
	s.PeerFetches += o.PeerFetches
	s.PeerFetchFails += o.PeerFetchFails
	s.AntiEntropyPulled += o.AntiEntropyPulled
	s.BytesLive += o.BytesLive
	s.BytesTotal += o.BytesTotal
	s.Segments += o.Segments
	s.Compactions += o.Compactions
}

// Tiered chains stores into read-through/write-behind layers: Get tries
// each tier in order and promotes a hit into every tier above it; Put
// writes through all tiers. The first tier is the fastest (mem), the last
// the most durable (disk or replicated).
type Tiered struct {
	tiers []PlanStore
}

// NewTiered layers the given stores, first = top.
func NewTiered(tiers ...PlanStore) *Tiered {
	return &Tiered{tiers: tiers}
}

// Name implements PlanStore.
func (t *Tiered) Name() string { return "tiered" }

// Get implements PlanStore: read-through with promotion.
func (t *Tiered) Get(ctx context.Context, k Key) ([]byte, string, error) {
	for i, ps := range t.tiers {
		v, tier, err := ps.Get(ctx, k)
		if err != nil {
			continue
		}
		for j := 0; j < i; j++ {
			_ = t.tiers[j].PutLocal(ctx, k, v) // promotion is best-effort
		}
		return v, tier, nil
	}
	return nil, "", ErrNotFound
}

// GetLocal implements PlanStore: like Get but no tier may leave the node.
func (t *Tiered) GetLocal(ctx context.Context, k Key) ([]byte, string, error) {
	for _, ps := range t.tiers {
		if v, tier, err := ps.GetLocal(ctx, k); err == nil {
			return v, tier, nil
		}
	}
	return nil, "", ErrNotFound
}

// Put implements PlanStore: write-through to every tier; the first error
// (deepest tier wins reporting) surfaces, but every tier is attempted.
func (t *Tiered) Put(ctx context.Context, k Key, v []byte) error {
	var firstErr error
	for _, ps := range t.tiers {
		if err := ps.Put(ctx, k, v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PutLocal implements PlanStore.
func (t *Tiered) PutLocal(ctx context.Context, k Key, v []byte) error {
	var firstErr error
	for _, ps := range t.tiers {
		if err := ps.PutLocal(ctx, k, v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Keys implements PlanStore: the deepest tier holds the most complete set.
func (t *Tiered) Keys(limit int) []Key {
	if len(t.tiers) == 0 {
		return nil
	}
	return t.tiers[len(t.tiers)-1].Keys(limit)
}

// Stats implements PlanStore.
func (t *Tiered) Stats() Stats {
	var s Stats
	for _, ps := range t.tiers {
		s.merge(ps.Stats())
	}
	return s
}

// WaitWarm implements PlanStore: every tier must be warm.
func (t *Tiered) WaitWarm(ctx context.Context) error {
	for _, ps := range t.tiers {
		if err := ps.WaitWarm(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close implements PlanStore.
func (t *Tiered) Close() error {
	var firstErr error
	for _, ps := range t.tiers {
		if err := ps.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PeerView returns the node-local face of ps for serving the peer
// protocol: a Replicated store unwraps to its local tiers (a peer's
// request must never cascade into another peer fetch), everything else
// already is node-local.
func PeerView(ps PlanStore) PlanStore {
	if l, ok := ps.(interface{ Local() PlanStore }); ok {
		return l.Local()
	}
	return ps
}
