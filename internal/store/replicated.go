package store

import (
	"context"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ReplicatedConfig configures NewReplicated.
type ReplicatedConfig struct {
	// Self is this node's own peer base URL; it must appear in Peers so
	// the ring can tell which owners are remote.
	Self string
	// Peers is the static replica set (base URLs, self included).
	Peers []string
	// Replication is how many ring owners each key has (default
	// min(2, len(Peers))). Owners ≥ the full set pins every key
	// everywhere.
	Replication int
	// Client is the resilient HTTP client used for all peer traffic; a
	// default one (short attempt timeout, per-peer breakers) is built
	// when nil.
	Client *client.Client
	// HandoffDir, when set, persists each peer's hinted-handoff queue to
	// disk so hints survive a restart; empty keeps them in memory only.
	HandoffDir string
	// HandoffCap bounds each peer's queue (default 4096); writes past it
	// are dropped and counted, never blocked on.
	HandoffCap int
	// DrainInterval is how often queued hints are retried (default 1s).
	DrainInterval time.Duration
	// AntiEntropyKeys caps how many keys the startup pass pulls per peer
	// (default 4096).
	AntiEntropyKeys int
	// OpTimeout bounds one background peer operation — fan-out put,
	// handoff delivery, anti-entropy step (default 5s).
	OpTimeout time.Duration
}

// Replicated routes keys over a static replica set by consistent hashing
// (64 virtual nodes per peer) on top of a node-local store. Reads fall
// through to the key's remote owners on local miss and warm the local
// tiers with what they find; writes land locally first and fan out to the
// owners asynchronously (write-behind), detouring through a per-peer
// hinted-handoff queue whenever an owner is down and draining it on
// recovery. A startup anti-entropy pass pulls the keys this node owns but
// missed while it was dead; /readyz waits for it via WaitWarm.
//
// Because values are content-addressed, all of this is conflict-free:
// delivering a hint twice, racing a fan-out with an anti-entropy pull, or
// crashing mid-drain can only ever re-write identical bytes.
type Replicated struct {
	local PlanStore
	cfg   ReplicatedConfig
	ring  hashRing
	self  string
	peers map[string]*peerClient // remote peers only, by normalized URL

	fanout   chan fanoutItem
	handoffs map[string]*handoffQueue

	warm     chan struct{}
	warmErr  error
	stop     chan struct{}
	workerWG sync.WaitGroup

	handoffQueued     atomic.Uint64
	handoffDrained    atomic.Uint64
	handoffDropped    atomic.Uint64
	peerFetches       atomic.Uint64
	peerFetchFails    atomic.Uint64
	antiEntropyPulled atomic.Uint64
	closed            atomic.Bool
}

type fanoutItem struct {
	k Key
	v []byte
	// id is the originating request's trace ID (zero when untraced): the
	// fan-out runs long after that request finished, so only the value-
	// typed ID crosses the channel, never a live trace context.
	id trace.ID
}

// NewReplicated wraps local with the replication layer and starts its
// background work (fan-out workers, handoff drainer, anti-entropy pass).
func NewReplicated(local PlanStore, cfg ReplicatedConfig) (*Replicated, error) {
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Peers) {
		cfg.Replication = len(cfg.Peers)
	}
	if cfg.HandoffCap <= 0 {
		cfg.HandoffCap = 4096
	}
	if cfg.DrainInterval <= 0 {
		cfg.DrainInterval = time.Second
	}
	if cfg.AntiEntropyKeys <= 0 {
		cfg.AntiEntropyKeys = 4096
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = client.New(client.Config{
			MaxAttempts:    2,
			AttemptTimeout: 2 * time.Second,
			BaseBackoff:    50 * time.Millisecond,
		})
	}
	r := &Replicated{
		local:    local,
		cfg:      cfg,
		self:     normPeer(cfg.Self),
		peers:    make(map[string]*peerClient),
		fanout:   make(chan fanoutItem, 256),
		handoffs: make(map[string]*handoffQueue),
		warm:     make(chan struct{}),
		stop:     make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		p = normPeer(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.ring.add(p)
		if p != r.self {
			r.peers[p] = newPeerClient(p, cfg.Client)
			hq, err := openHandoffQueue(cfg.HandoffDir, p, cfg.HandoffCap)
			if err != nil {
				return nil, err
			}
			r.handoffs[p] = hq
		}
	}
	for i := 0; i < 2; i++ {
		r.workerWG.Add(1)
		go r.fanoutWorker()
	}
	r.workerWG.Add(1)
	go r.drainLoop()
	go r.antiEntropy()
	return r, nil
}

func normPeer(p string) string { return strings.TrimRight(strings.TrimSpace(p), "/") }

// Local exposes the node-local stack (PeerView unwraps through this).
func (r *Replicated) Local() PlanStore { return r.local }

// Name implements PlanStore.
func (r *Replicated) Name() string { return "replicated" }

// owners returns the key's replica owners in ring order.
func (r *Replicated) owners(k Key) []string {
	return r.ring.ownersOf(k.hash(), r.cfg.Replication)
}

// Get implements PlanStore: local first, then each remote owner in ring
// order. A remote hit is written behind into the local stack so the next
// read is local.
func (r *Replicated) Get(ctx context.Context, k Key) ([]byte, string, error) {
	if v, tier, err := r.local.Get(ctx, k); err == nil {
		return v, tier, nil
	}
	for _, owner := range r.owners(k) {
		pc, ok := r.peers[owner]
		if !ok { // self
			continue
		}
		r.peerFetches.Add(1)
		v, err := pc.get(ctx, k)
		if err == nil {
			// The fetch was answered by this owner: stamp it on the trace
			// so /debug/traces shows which replica served the bytes.
			trace.FromContext(ctx).SetPeer(owner)
			_ = r.local.Put(ctx, k, v)
			return v, TierPeer, nil
		}
		if err != ErrNotFound {
			r.peerFetchFails.Add(1)
		}
	}
	return nil, "", ErrNotFound
}

// GetLocal implements PlanStore: the peer-protocol read — never leaves
// the node.
func (r *Replicated) GetLocal(ctx context.Context, k Key) ([]byte, string, error) {
	return r.local.Get(ctx, k)
}

// Put implements PlanStore: durable locally first, then an async fan-out
// to the key's remote owners. The caller never waits on a peer.
func (r *Replicated) Put(ctx context.Context, k Key, v []byte) error {
	err := r.local.Put(ctx, k, v)
	if r.closed.Load() {
		return err
	}
	select {
	case r.fanout <- fanoutItem{k: k, v: v, id: trace.IDFromContext(ctx)}:
	default:
		// Fan-out backlog is full: skip straight to the hint queues so
		// the write path stays non-blocking.
		r.queueHints(k, v, r.remoteOwners(k))
	}
	return err
}

// PutLocal implements PlanStore: the peer-protocol write — no fan-out,
// or replication would amplify every write around the ring.
func (r *Replicated) PutLocal(ctx context.Context, k Key, v []byte) error {
	return r.local.Put(ctx, k, v)
}

func (r *Replicated) remoteOwners(k Key) []string {
	var out []string
	for _, o := range r.owners(k) {
		if _, ok := r.peers[o]; ok {
			out = append(out, o)
		}
	}
	return out
}

func (r *Replicated) fanoutWorker() {
	defer r.workerWG.Done()
	for {
		select {
		case <-r.stop:
			return
		case it := <-r.fanout:
			for _, owner := range r.remoteOwners(it.k) {
				ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
				err := r.peers[owner].put(trace.WithID(ctx, it.id), it.k, it.v)
				cancel()
				if err != nil {
					r.queueHints(it.k, it.v, []string{owner})
				}
			}
		}
	}
}

// queueHints records k/v as a hint for each named peer.
func (r *Replicated) queueHints(k Key, v []byte, owners []string) {
	for _, owner := range owners {
		hq := r.handoffs[owner]
		if hq == nil {
			continue
		}
		switch hq.enqueue(k, v) {
		case nil:
			r.handoffQueued.Add(1)
		case errHandoffFull:
			r.handoffDropped.Add(1)
		}
	}
}

func (r *Replicated) drainLoop() {
	defer r.workerWG.Done()
	t := time.NewTicker(r.cfg.DrainInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			for owner, hq := range r.handoffs {
				r.drainPeer(owner, hq)
			}
		}
	}
}

// drainPeer retries one peer's queued hints in order, stopping at the
// first delivery failure (the peer is still down; the ticker returns).
func (r *Replicated) drainPeer(owner string, hq *handoffQueue) {
	pc := r.peers[owner]
	for {
		k, v, ok := hq.peek()
		if !ok {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
		err := pc.put(ctx, k, v)
		cancel()
		if err != nil {
			return
		}
		hq.pop()
		r.handoffDrained.Add(1)
	}
}

// antiEntropy is the startup pass: ask each remote peer for a key sample,
// pull the keys this node owns but does not hold, then declare the store
// warm. Peer failures are skipped — a dead peer must not hold up
// readiness; its data arrives later via read-through or its own recovery.
func (r *Replicated) antiEntropy() {
	defer close(r.warm)
	for _, pc := range r.peers {
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
		ks, err := pc.keys(ctx, r.cfg.AntiEntropyKeys)
		cancel()
		if err != nil {
			continue
		}
		for _, k := range ks {
			select {
			case <-r.stop:
				return
			default:
			}
			if !r.ownsSelf(k) {
				continue
			}
			if _, _, err := r.local.Get(context.Background(), k); err == nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
			v, err := pc.get(ctx, k)
			cancel()
			if err != nil {
				continue
			}
			if r.local.Put(context.Background(), k, v) == nil {
				r.antiEntropyPulled.Add(1)
			}
		}
	}
}

func (r *Replicated) ownsSelf(k Key) bool {
	for _, o := range r.owners(k) {
		if o == r.self {
			return true
		}
	}
	return false
}

// Keys implements PlanStore.
func (r *Replicated) Keys(limit int) []Key { return r.local.Keys(limit) }

// Stats implements PlanStore: the local stack's ledger plus the
// replication ledger.
func (r *Replicated) Stats() Stats {
	s := r.local.Stats()
	s.HandoffQueued += r.handoffQueued.Load()
	s.HandoffDrained += r.handoffDrained.Load()
	s.HandoffDropped += r.handoffDropped.Load()
	s.PeerFetches += r.peerFetches.Load()
	s.PeerFetchFails += r.peerFetchFails.Load()
	s.AntiEntropyPulled += r.antiEntropyPulled.Load()
	return s
}

// WaitWarm implements PlanStore: blocks until the local stack is warm and
// the startup anti-entropy pass has finished (or ctx expires).
func (r *Replicated) WaitWarm(ctx context.Context) error {
	if err := r.local.WaitWarm(ctx); err != nil {
		return err
	}
	select {
	case <-r.warm:
		return r.warmErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close implements PlanStore: stop background work, persist what the
// hint queues hold, close the local stack.
func (r *Replicated) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.stop)
	r.workerWG.Wait()
	var firstErr error
	for _, hq := range r.handoffs {
		if err := hq.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := r.local.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// hashRing is a consistent-hash ring with virtual nodes: each peer hashes
// to ringVnodes points, a key belongs to the first distinct peers at or
// clockwise of its point. Static membership — rebalancing is out of
// scope; what matters is that every replica computes identical ownership
// from the identical peer list.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	peer string
}

const ringVnodes = 64

func (h *hashRing) add(peer string) {
	f := fnv.New64a()
	f.Write([]byte(peer))
	base := f.Sum64()
	for i := 0; i < ringVnodes; i++ {
		h.points = append(h.points, ringPoint{hash: rng.Mix64(base + uint64(i)*rng.Golden), peer: peer})
	}
	sort.Slice(h.points, func(a, b int) bool { return h.points[a].hash < h.points[b].hash })
}

// ownersOf walks clockwise from hash collecting n distinct peers.
func (h *hashRing) ownersOf(hash uint64, n int) []string {
	if len(h.points) == 0 || n <= 0 {
		return nil
	}
	start := sort.Search(len(h.points), func(i int) bool { return h.points[i].hash >= hash })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(h.points) && len(out) < n; i++ {
		p := h.points[(start+i)%len(h.points)]
		if !seen[p.peer] {
			seen[p.peer] = true
			out = append(out, p.peer)
		}
	}
	return out
}
