package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/trace"
)

// The durable store sits under the response LRU as a read-through /
// write-behind tier: a flight leader (see resolve) checks it after the
// LRU misses and before burning a worker slot, and persists what it
// computes. The store
// holds the same canonical values the LRU does, serialized; its Key is a
// content address derived from the full requestKey, so every node in a
// fleet derives identical keys for identical requests.

// storeKeyOf derives the 128-bit content address for a request: two
// differently-salted SplitMix64 lanes over the fingerprint and every
// result-determining parameter. Unlike requestKey.hash (a shard selector
// where collisions are harmless), both lanes absorb the full policy
// string and the full seed — a collision here would serve a wrong
// payload, so the address must separate everything the result depends on.
func storeKeyOf(k requestKey) store.Key {
	pf := uint64(0xcbf29ce484222325) // FNV-1a over the policy name
	for i := 0; i < len(k.policy); i++ {
		pf = (pf ^ uint64(k.policy[i])) * 0x100000001b3
	}
	hi := rng.Mix64(k.fp.Hi ^ 0x9e3779b97f4a7c15)
	hi = rng.Mix64(hi ^ k.fp.Lo)
	hi = rng.Mix64(hi ^ uint64(k.kind))
	hi = rng.Mix64(hi ^ math.Float64bits(k.target))
	hi = rng.Mix64(hi ^ uint64(k.trials))
	hi = rng.Mix64(hi ^ uint64(k.seed))
	hi = rng.Mix64(hi ^ pf)
	lo := rng.Mix64(k.fp.Lo ^ 0xbf58476d1ce4e5b9)
	lo = rng.Mix64(lo ^ k.fp.Hi)
	lo = rng.Mix64(lo ^ uint64(k.kind)<<8)
	lo = rng.Mix64(lo ^ math.Float64bits(k.target)<<1 ^ math.Float64bits(k.target)>>63)
	lo = rng.Mix64(lo ^ uint64(k.seed)<<16 ^ uint64(k.trials))
	lo = rng.Mix64(lo ^ pf<<1)
	return store.Key{Hi: hi, Lo: lo}
}

// storedEnvelope frames a persisted response: a version, the request
// kind, and the canonical payload frame — the same bytes the response LRU
// splices into responses, persisted verbatim so a disk or peer hit skips
// re-encoding exactly like an LRU hit. The kind check on decode means a
// (vanishingly unlikely) key collision between a plan and an estimate
// degrades to a store miss, never a mistyped response.
type storedEnvelope struct {
	V    int             `json:"v"`
	Kind uint8           `json:"kind"`
	Body json.RawMessage `json:"body"`
}

const storedEnvelopeV = 1

// encodeStored wraps an already-canonical payload frame; the payload is
// never re-marshaled (json.RawMessage passes through verbatim).
func encodeStored(kind uint8, frame json.RawMessage) ([]byte, error) {
	return json.Marshal(&storedEnvelope{V: storedEnvelopeV, Kind: kind, Body: frame})
}

// decodeStored validates the envelope and rebuilds the cachedFrame: the
// struct is decoded once (library callers need it), and the Body bytes —
// byte-identical to what encodeStored persisted — become the serving
// frame, so a store hit re-enters the zero-copy path with no encode.
func decodeStored(kind uint8, b []byte) (*cachedFrame, error) {
	var env storedEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	if env.V != storedEnvelopeV || env.Kind != kind {
		return nil, fmt.Errorf("stored envelope v%d kind %d does not match request kind %d", env.V, env.Kind, kind)
	}
	switch kind {
	case kindPlan:
		resp := &PlanResponse{}
		if err := json.Unmarshal(env.Body, resp); err != nil {
			return nil, err
		}
		return newCachedFrame(resp, env.Body), nil
	case kindEstimate:
		resp := &EstimateResponse{}
		if err := json.Unmarshal(env.Body, resp); err != nil {
			return nil, err
		}
		return newCachedFrame(resp, env.Body), nil
	}
	return nil, fmt.Errorf("unknown stored kind %d", kind)
}

// storeGet reads through the store for key. On a hit the canonical value
// also lands in the response LRU, so the next request for the key never
// reaches the store at all. Runs under context.Background(): the store's
// own timeouts bound a peer fetch, and a result is worth caching even if
// this caller's deadline is about to expire (same reasoning as detached
// computations). The request's trace rides along two ways: the tier that
// answered becomes a stage span (store.mem / store.disk / store.peer, or
// store.miss when every tier came up empty), and the trace context — and
// through it the bare trace ID — flows into the store stack so a peer
// fetch carries X-Suu-Trace-Id across the fleet.
func (p *Planner) storeGet(key requestKey, tc *trace.Ctx) (*cachedFrame, bool) {
	st := p.cfg.Store
	if st == nil {
		return nil, false
	}
	start := time.Now()
	b, tier, err := st.Get(trace.NewContext(context.Background(), tc), storeKeyOf(key))
	if err != nil {
		p.metrics.storeMisses.Add(1)
		p.obsStage(tc, trace.StageStoreMiss, start)
		return nil, false
	}
	elapsed := time.Since(start)
	v, err := decodeStored(key.kind, b)
	if err != nil {
		// Undecodable content is a quarantine case the checksum cannot
		// catch (e.g. a schema change): miss, recompute, overwrite.
		p.metrics.storeMisses.Add(1)
		p.obsStage(tc, trace.StageStoreMiss, start)
		return nil, false
	}
	p.metrics.observeStore(tier, elapsed)
	if tc != nil {
		stage := trace.StageStoreMem
		switch tier {
		case store.TierDisk:
			stage = trace.StageStoreDisk
		case store.TierPeer:
			stage = trace.StageStorePeer
		}
		tc.Add(stage, elapsed)
		p.metrics.observeStage(stage, elapsed)
	}
	p.cache.put(key, v)
	return v, true
}

// storePut persists a freshly computed response — its pre-encoded frame,
// so the payload is marshaled exactly once per computation across LRU,
// disk, and peers. Degraded brownout fallbacks never persist — they are
// placeholders a retry should replace, and writing one would let a moment
// of overload haunt every replica from disk (the durable mirror of
// "degraded plans are never cached"). Errors are counted, not surfaced: a
// full or failing store degrades the fleet to compute-only, it does not
// fail requests.
func (p *Planner) storePut(key requestKey, cf *cachedFrame, tc *trace.Ctx) {
	st := p.cfg.Store
	if st == nil {
		return
	}
	if pr, ok := cf.val.(*PlanResponse); ok && pr.Degraded {
		return
	}
	b, err := encodeStored(key.kind, cf.frame)
	if err != nil {
		p.metrics.storePutErrors.Add(1)
		return
	}
	// Only the bare trace ID crosses into the put: the fan-out to peers
	// is asynchronous and must never hold the pooled trace context.
	if err := st.Put(trace.WithID(context.Background(), tc.ID()), storeKeyOf(key), b); err != nil {
		p.metrics.storePutErrors.Add(1)
		trace.Warn("store put failed", "trace", tc.IDString(), "err", err)
	}
}
