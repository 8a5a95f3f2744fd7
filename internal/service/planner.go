package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
)

// Service errors. The HTTP layer maps ErrBadRequest-wrapped errors to 400,
// ErrOverloaded to 429, and ErrShuttingDown to 503; everything else is a
// 500.
var (
	ErrOverloaded      = errors.New("service: queue full")
	ErrShuttingDown    = errors.New("service: shutting down")
	ErrBadRequest      = errors.New("service: bad request")
	errFlightAbandoned = errors.New("service: in-flight computation abandoned")
	// errAbandoned ends a detached computation whose every caller has given
	// up (deadline expired or disconnected) before it reached a worker slot
	// or its next solve checkpoint. It never reaches a live caller: the
	// flight is orphaned off the table before the computation sees it.
	errAbandoned = errors.New("service: computation abandoned by every caller")
)

// overloadError is ErrOverloaded with an adaptive Retry-After hint derived
// from the live queue and the measured per-unit compute cost. errors.Is
// still matches ErrOverloaded through Unwrap.
type overloadError struct {
	retryAfter time.Duration
}

func (e *overloadError) Error() string { return ErrOverloaded.Error() }
func (e *overloadError) Unwrap() error { return ErrOverloaded }

// badRequestf wraps ErrBadRequest with detail.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Brownout policies: what an eligible plan request gets when admission
// pressure crosses Config.BrownoutThreshold. See Config.DegradedPolicy.
const (
	// DegradeNever keeps the PR 4 behavior: a full line rejects with 429.
	DegradeNever = "reject"
	// DegradeIndependent serves independent-class plan requests a cheap
	// LP-free fallback under pressure; chains still reject.
	DegradeIndependent = "independent"
	// DegradeAll serves every plannable class the fallback under pressure.
	DegradeAll = "all"
)

// maxDeadlineMS bounds every client deadline knob at 24h: far beyond any
// real deadline, and small enough that the nanosecond conversion can never
// overflow into an already-expired context.
const maxDeadlineMS = 24 * 60 * 60 * 1000

// withDeadlineMS derives the request context a client deadline bounds.
// ms ≤ 0 (absent) leaves ctx alone; the returned cancel is always safe to
// defer.
func withDeadlineMS(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// validDeadlineMS rejects out-of-range client deadlines.
func validDeadlineMS(ms int64) error {
	if ms < 0 || ms > maxDeadlineMS {
		return badRequestf("deadline_ms %d outside [0, %d]", ms, int64(maxDeadlineMS))
	}
	return nil
}

// Config sizes the planner. Zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrent plan/estimate computations (default
	// GOMAXPROCS). Each computation borrows one rounding.Workspace.
	Workers int
	// QueueDepth bounds the admission line: the cost units (see itemCost;
	// an estimate is one unit) waiting for a worker slot. Running work is
	// not counted. A charge that would take the line past max(QueueDepth,
	// charge) is rejected with ErrOverloaded (default 4×Workers).
	QueueDepth int
	// CacheCap bounds total cached responses (default 4096).
	CacheCap int
	// MaxTrials is the per-request Monte Carlo trial budget; estimate
	// requests above it are rejected as bad requests (default 10000).
	MaxTrials int
	// DefaultTrials is used when an estimate request omits trials
	// (default 200).
	DefaultTrials int
	// TrialWorkers is the Monte Carlo worker count per estimate request
	// (default 2: request-level parallelism comes from Workers, so
	// per-request fan-out stays modest to avoid oversubscription).
	TrialWorkers int
	// ProgressChunk is the trial batch size between streamed progress
	// callbacks (default 64).
	ProgressChunk int
	// MaxBatchItems bounds the item count of one /v1/plan/batch request
	// (default 256). Larger batches are a bad request, not an overload:
	// the client should split them.
	MaxBatchItems int
	// MaxItemCost bounds the admission cost of one plan — a /v1/plan
	// request or one batch item — in units of the reference instance size
	// (see itemCost; default 64, i.e. n·m up to 64×1024). A plan over it is
	// a bad request; in a batch that is a per-item error — one oversized
	// instance must not poison its batch.
	MaxItemCost int
	// DegradedPolicy selects the brownout behavior when admission pressure
	// crosses BrownoutThreshold: DegradeNever (default) keeps rejecting
	// with 429; DegradeIndependent serves independent plan requests the
	// LP-free list-schedule fallback; DegradeAll serves every plannable
	// class the fallback. Estimates never degrade — a degraded sample
	// would be silently wrong, while a degraded plan is openly marked.
	DegradedPolicy string
	// BrownoutThreshold is the queue-pressure fraction (queued/QueueDepth)
	// at which eligible plan requests start degrading instead of queueing
	// (default 1.0: degrade only where the old behavior would 429).
	BrownoutThreshold float64
	// ComputeHook, if non-nil, runs at every compute checkpoint (before an
	// LP solve, between Monte Carlo chunks). An error return fails the
	// computation; a panic exercises the panic-isolation path. It exists
	// for fault injection (internal/faults) and tests.
	ComputeHook func() error
	// Store, if non-nil, is the durable/replicated tier under the
	// response LRU: a flight leader reads through it before taking a
	// worker slot and persists what it computes; Warmup waits for its
	// recovery (disk index rebuild, anti-entropy) before /readyz flips.
	// The planner does not own its lifecycle — whoever built the store
	// closes it, after Planner.Close.
	Store store.PlanStore
	// TraceSample is the head-based request-trace sampling probability in
	// [0, 1]. Errors, degraded responses, and slowest-N qualifiers are
	// always kept when tracing is enabled. The default 0 together with
	// TraceRing 0 and no TraceLog disables tracing entirely: no trace
	// context is allocated. Sampling decides only which traces are kept
	// (ring, slowest-N, log, X-Suu-Trace); the per-stage histograms in
	// /metrics record every request either way.
	TraceSample float64
	// TraceRing is the /debug/traces ring-buffer capacity; 0 disables the
	// recorder (and slowest-N tracking). Stage metrics do not depend on it.
	TraceRing int
	// TraceSlowN is how many slowest traces to retain when TraceRing > 0
	// (default 32).
	TraceSlowN int
	// TraceLog, if non-nil, receives one CRC-framed binary record per
	// kept trace (see internal/trace). The planner does not own its
	// lifecycle — whoever opened it closes it, after Planner.Close.
	TraceLog *trace.LogWriter
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 4096
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 10000
	}
	if c.DefaultTrials <= 0 {
		c.DefaultTrials = 200
	}
	if c.DefaultTrials > c.MaxTrials {
		// A tight -max-trials must not make trial-less requests
		// unserveable against the larger default.
		c.DefaultTrials = c.MaxTrials
	}
	if c.TrialWorkers <= 0 {
		c.TrialWorkers = 2
	}
	if c.ProgressChunk <= 0 {
		c.ProgressChunk = 64
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxItemCost <= 0 {
		c.MaxItemCost = 64
	}
	switch c.DegradedPolicy {
	case DegradeIndependent, DegradeAll:
	default:
		// Unknown strings fall back to the safe pre-brownout behavior;
		// cmd/suud validates the flag loudly before building a Config.
		c.DegradedPolicy = DegradeNever
	}
	if c.BrownoutThreshold <= 0 || c.BrownoutThreshold > 1 {
		c.BrownoutThreshold = 1
	}
	return c
}

// Planner is the concurrent scheduling service core: it admits requests
// up to a queue bound, coalesces duplicates in flight, serves repeats
// from the response cache, and computes misses on a bounded worker pool
// of pooled LP workspaces. Every endpoint takes one serve path: serve
// brackets the request, and serveGroups runs its groups of work through
// the cache, admission, brownout and resolve — a /v1/plan or /v1/estimate
// request as a batch of one group, a batch as one group per unique key.
// Cross-request reuse lives in three places, all keyed by content
// fingerprint: the response cache and the flight group share finished
// and in-flight responses, and one planner-lifetime rounding.Cache shares
// LP1 roundings across every estimate computation (see lp1 below). None
// of them holds a decoded instance, so a finished computation retains no
// instance; only the decode cache, keyed by raw request bytes, does. The
// response, decode and LP1 caches are each an lru.Cache, bounded by entry
// count, raw bytes and charged bytes.
type Planner struct {
	cfg     Config
	metrics *Metrics
	cache   *planCache
	decode  *decodeCache
	tracer  *trace.Tracer
	flight  flightGroup
	pool    rounding.WorkspacePool
	// lp1 memoizes LP1 roundings for the planner's whole life. Entries
	// key on instance content, not the decoded pointer, so round 1 of
	// SEM/OBL and the recurring small survivor-set re-solves are shared
	// by every request on an instance; its byte budget
	// (rounding.DefaultCacheBytes) bounds what it keeps.
	lp1 *rounding.Cache
	// policies maps each policy name to a factory building a fresh
	// policy value per estimate computation, so per-computation state —
	// workspace pools, lazily-built subrunners, LP2 caches — dies with
	// it. The sem, obl and layered factories, and the LP1 side of chains
	// and forest, hand every policy the shared lp1 cache.
	policies map[string]func() sim.Policy

	slots  chan struct{}
	queued atomic.Int64

	// readiness, distinct from liveness: ready flips on after Warmup and
	// off at BeginDrain, so a load balancer stops routing before Shutdown
	// starts refusing.
	ready    atomic.Bool
	draining atomic.Bool

	// unitCostNS is an EWMA of observed compute nanoseconds per admission
	// cost unit (itemCost), stored as float64 bits. It prices the adaptive
	// Retry-After hint: backlog units × cost per unit ÷ workers.
	unitCostNS atomic.Uint64

	// lifecycle: a mutex-guarded unit count instead of a sync.WaitGroup,
	// because begin() may Add while Close() waits — a combination
	// WaitGroup documents as misuse when the counter can touch zero.
	lmu       sync.Mutex
	units     int // admitted requests + detached computations in flight
	closing   bool
	drained   chan struct{}
	drainedup bool // drained already closed
}

// NewPlanner builds a planner with one LP1 rounding cache, at the
// rounding.DefaultCacheBytes budget, that every estimate computation
// shares. Policy values are still built per computation (see
// Planner.policies); reuse of finished responses is the
// fingerprint-keyed response cache's job.
func NewPlanner(cfg Config) *Planner {
	return newPlanner(cfg, rounding.NewCache())
}

// newPlanner is NewPlanner with the shared LP1 cache supplied.
func newPlanner(cfg Config, lp1 *rounding.Cache) *Planner {
	cfg = cfg.withDefaults()
	return &Planner{
		cfg:     cfg,
		lp1:     lp1,
		metrics: newMetrics(),
		cache:   newPlanCache(cfg.CacheCap),
		decode:  newDecodeCache(decodeCacheBytes),
		tracer: trace.NewTracer(trace.Config{
			Sample: cfg.TraceSample,
			Ring:   cfg.TraceRing,
			SlowN:  cfg.TraceSlowN,
			Log:    cfg.TraceLog,
		}),
		slots:   make(chan struct{}, cfg.Workers),
		drained: make(chan struct{}),
		policies: map[string]func() sim.Policy{
			"sem": func() sim.Policy { return &core.SEM{Cache: lp1} },
			"obl": func() sim.Policy { return &core.OBL{Cache: lp1} },
			"chains": func() sim.Policy {
				return &core.Chains{
					LP1Cache: lp1,
					LP2Cache: rounding.NewLP2Cache(),
				}
			},
			"forest": func() sim.Policy {
				return &core.Forest{Engine: &core.Chains{
					LP1Cache: lp1,
					LP2Cache: rounding.NewLP2Cache(),
				}}
			},
			"layered": func() sim.Policy {
				return &core.Layered{Inner: &core.SEM{Cache: lp1}}
			},
			"greedy":         func() sim.Policy { return baseline.Greedy{} },
			"greedy-prec":    func() sim.Policy { return baseline.GreedyPrec{} },
			"sequential":     func() sim.Policy { return baseline.Sequential{} },
			"eligible-split": func() sim.Policy { return baseline.EligibleSplit{} },
		},
	}
}

// Config returns the resolved configuration.
func (p *Planner) Config() Config { return p.cfg }

// Tracer returns the planner's request tracer (never nil; disabled when
// no Trace* config was set).
func (p *Planner) Tracer() *trace.Tracer { return p.tracer }

// obsStage closes one stage span: the elapsed time lands in the per-stage
// latency histogram for every request, and on the request's trace context
// when it has one (tc may be nil: tracing off, or a library call).
func (p *Planner) obsStage(tc *trace.Ctx, s trace.Stage, start time.Time) {
	d := time.Since(start)
	tc.Add(s, d)
	p.metrics.observeStage(s, d)
}

// Metrics returns the current metrics snapshot.
func (p *Planner) Metrics() MetricsSnapshot {
	s := p.metrics.snapshot(p.cache)
	s.RetryAfterS = p.retryAfter().Seconds()
	lp1 := p.lp1.Stats()
	s.LP1CacheHits = lp1.Hits
	s.LP1CacheMisses = lp1.Misses
	s.LP1CacheEvictions = lp1.Evictions
	s.LP1CacheEntries = lp1.Entries
	s.LP1CacheBytes = lp1.Bytes
	s.LP1CacheBudget = lp1.Budget
	if p.cfg.Store != nil {
		st := p.cfg.Store.Stats()
		s.StoreEntries = st.Entries
		s.StoreCorrupt = st.CorruptDropped
		s.StoreHandoffQueued = st.HandoffQueued
		s.StoreHandoffDrain = st.HandoffDrained
		s.StoreHandoffDrop = st.HandoffDropped
		s.StoreAntiEntropy = st.AntiEntropyPulled
	}
	if p.tracer.Enabled() {
		ts := p.tracer.Stats()
		s.Traced = ts.Begun
		s.TraceSampled = ts.Sampled
		s.TraceForced = ts.Forced
		if rec := p.tracer.Recorder(); rec != nil {
			rs := rec.Stats()
			s.TraceRingKept = rs.Kept
			s.TraceSlowKept = rs.SlowKept
		}
		if lg := p.tracer.Log(); lg != nil {
			ls := lg.Stats()
			s.TraceLogRecords = ls.Records
			s.TraceLogBytes = ls.Bytes
		}
	}
	return s
}

// Close stops admitting requests and waits for every in-flight unit —
// admitted requests and detached computations — to drain. Safe to call
// more than once.
func (p *Planner) Close() {
	p.draining.Store(true)
	p.lmu.Lock()
	p.closing = true
	if p.units == 0 && !p.drainedup {
		p.drainedup = true
		close(p.drained)
	}
	p.lmu.Unlock()
	<-p.drained
}

// ShuttingDown reports whether Close has been called.
func (p *Planner) ShuttingDown() bool {
	p.lmu.Lock()
	defer p.lmu.Unlock()
	return p.closing
}

// Warmup primes the workspace pool and LP engines with one tiny plan, then
// marks the planner ready. /readyz reports not-ready until it runs: a
// replica that has not yet paged in its solve path serves its first real
// request with a cold-start latency spike a balancer should not see. The
// probe is no request: it seeds the unit-cost estimate but stays out of
// the stage histograms, which count only what an endpoint clock counted.
func (p *Planner) Warmup() error {
	ins, err := model.New(2, 2, [][]float64{{0.5, 0.5}, {0.5, 0.5}}, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, _, err := p.solvePlan(ins, sched.FingerprintInstance(ins), 0.5, dag.ClassIndependent); err != nil {
		return err
	}
	p.observeUnitCost(itemCost(ins), time.Since(start))
	// A replica with a store also waits for it to be fleet-worthy — disk
	// index rebuilt, startup anti-entropy done — before claiming ready:
	// a rebooting node must come up warm, not merely alive.
	if p.cfg.Store != nil {
		if err := p.cfg.Store.WaitWarm(context.Background()); err != nil {
			return err
		}
	}
	p.ready.Store(true)
	return nil
}

// BeginDrain marks the planner not ready without refusing work. Call it
// before http.Server.Shutdown: the balancer sees /readyz flip and stops
// routing while in-flight (and straggler) requests still complete.
func (p *Planner) BeginDrain() { p.draining.Store(true) }

// Ready reports whether the planner should receive new traffic: warmed up,
// not draining, not shut down.
func (p *Planner) Ready() bool {
	return p.ready.Load() && !p.draining.Load() && !p.ShuttingDown()
}

// begin admits a request into the planner's in-flight set.
func (p *Planner) begin() error {
	p.lmu.Lock()
	if p.closing {
		p.lmu.Unlock()
		return ErrShuttingDown
	}
	p.units++
	p.lmu.Unlock()
	p.metrics.inflight.Add(1)
	return nil
}

func (p *Planner) end() {
	p.metrics.inflight.Add(-1)
	p.untrack()
}

// track registers a detached computation with the drain count. Only call
// it while already holding a unit (the caller's begin) — that ordering is
// what lets the count rise during Close without a zero crossing.
func (p *Planner) track() {
	p.lmu.Lock()
	p.units++
	p.lmu.Unlock()
}

func (p *Planner) untrack() {
	p.lmu.Lock()
	p.units--
	if p.closing && p.units == 0 && !p.drainedup {
		p.drainedup = true
		close(p.drained)
	}
	p.lmu.Unlock()
}

// admit charges cost units against the admission line, failing fast with
// ErrOverloaded when the charge would take the line past max(QueueDepth,
// cost) — the 429 path that keeps the backlog (and therefore p99) bounded
// under overload. A charge above the whole budget is still admittable,
// but only against an empty enough line: otherwise it could never run.
// resolve refunds the charge once the work is known not to wait for a
// slot. A zero charge always fits.
//
// keep is the part of cost that may not degrade. When the full charge is
// refused and keep < cost, keep alone re-tries; if it fits, admit reports
// degrade and the other cost−keep units take the brownout fallback
// instead of queueing.
func (p *Planner) admit(cost, keep int) (degrade bool, err error) {
	fits := func(c int) bool {
		if q := p.queued.Add(int64(c)); c > 0 && q > int64(max(p.cfg.QueueDepth, c)) {
			p.queued.Add(-int64(c))
			return false
		}
		return true
	}
	switch {
	case fits(cost):
		return false, nil
	case keep == cost || !fits(keep):
		return false, p.overloaded()
	}
	return true, nil
}

func (p *Planner) release() { <-p.slots }

// observeUnitCost folds one computation's wall time into the EWMA that
// prices Retry-After hints. units is the computation's admission cost
// (itemCost).
func (p *Planner) observeUnitCost(units int, d time.Duration) {
	if units <= 0 || d <= 0 {
		return
	}
	per := float64(d) / float64(units)
	for {
		old := p.unitCostNS.Load()
		next := per
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*per
		}
		if p.unitCostNS.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter estimates when the backlog will have drained enough for a
// retry to be admitted: queued cost units × compute time per unit ÷ pool
// width, clamped to [1s, 30s]. Before any computation has priced the EWMA
// it falls back to the old constant 1s.
func (p *Planner) retryAfter() time.Duration {
	per := math.Float64frombits(p.unitCostNS.Load())
	q := float64(p.queued.Load())
	d := time.Duration(q * per / float64(p.cfg.Workers))
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

func (p *Planner) overloaded() error {
	return &overloadError{retryAfter: p.retryAfter()}
}

// checkpoint is the solve-boundary stop inside a detached computation: an
// abandoned one (every caller gone) ends before its next expensive phase,
// and the injected ComputeHook (chaos) gets its shot at failing or
// stalling the compute. abandoned may be nil (warmup, degraded serves).
// A chaos-injected failure logs the active trace ID so the fault can be
// tied back to the request that absorbed it.
func (p *Planner) checkpoint(abandoned <-chan struct{}, tc *trace.Ctx) error {
	select {
	case <-abandoned:
		p.metrics.deadlineAbandoned.Add(1)
		return errAbandoned
	default:
	}
	if h := p.cfg.ComputeHook; h != nil {
		if err := h(); err != nil {
			trace.Warn("compute fault injected", "trace", tc.IDString(), "err", err)
			return err
		}
	}
	return nil
}

// spawn runs fn on a detached, drain-tracked goroutine and lands the
// flight with its result. A panic in fn is recovered into an error — one
// poisoned request must 500 its own callers, not crash the server (the
// detached goroutine is outside net/http's per-connection recover) — and
// the flight always finishes, so followers never wait on a dead leader.
// tc (may be nil) is retained across the goroutine: the computation can
// outlive the request that started it, and the pooled Ctx must not be
// recycled under it.
func (p *Planner) spawn(key requestKey, c *flightCall, tc *trace.Ctx, fn func() (any, error)) {
	p.track()
	tc.Retain()
	go func() {
		defer p.untrack()
		defer tc.Release()
		var v any
		err := errFlightAbandoned
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("service: computation panicked: %v", r)
					trace.Error("computation panicked", "trace", tc.IDString(), "panic", fmt.Sprintf("%v", r))
				}
			}()
			v, err = fn()
		}()
		p.flight.finish(key, c, v, err)
	}()
}

// resolve serves one uncached key for a caller already charged cost
// admission units (see admit), computing it at most once across every
// concurrent single and batch caller. A caller that finds the key in
// flight follows it, and its charge is refunded: someone else computes.
// A new leader first re-checks the response cache (an uncounted peek —
// the caller already recorded its miss), because a racing flight may have
// landed between that miss and the join, then reads through the durable
// store; either hit finishes the flight inline and refunds the charge.
// Otherwise compute runs on a detached goroutine (spawn) that waits for a
// worker slot, refunding the charge when it gets one, then encodes the
// result and lands it in the cache and the store.
//
// The computation survives caller cancellation: followers and the cache
// still want the result when the leader's client disconnects. Every
// caller waits under its own ctx; a caller that gives up leaves the
// flight, and only when the LAST caller leaves is the computation
// abandoned — it then stops at its next checkpoint (slot wait, solve
// boundary, Monte Carlo chunk) instead of burning pool slots.
//
// onProgress, if non-nil and this caller leads, observes the progress
// compute emits. Progress flows through a channel drained by this
// (caller) goroutine, so onProgress never runs on the detached goroutine
// — it may touch the caller's ResponseWriter, which dies with the caller.
//
// follower reports that the caller rode another caller's flight, shared
// that it was served a raced cache entry or a store hit. Either way it
// recorded a cache miss but computed nothing.
func (p *Planner) resolve(ctx context.Context, key requestKey, cost int, onProgress func(Progress), tc *trace.Ctx, compute func(abandoned <-chan struct{}, emit func(Progress)) (any, error)) (cf *cachedFrame, follower, shared bool, err error) {
	c, follower := p.flight.join(key)
	var progCh chan Progress
	if follower {
		p.queued.Add(-int64(cost))
		// A follower's wait on the leader is its whole story: meter it as
		// the flight stage.
		defer p.obsStage(tc, trace.StageFlight, time.Now())
	} else {
		v, ok := p.cache.peek(key)
		if !ok {
			v, ok = p.storeGet(key, tc)
		}
		if ok {
			p.queued.Add(-int64(cost))
			p.flight.finish(key, c, v, nil)
			return v.(*cachedFrame), false, true, nil
		}
		emit := func(Progress) {}
		if onProgress != nil {
			ch := make(chan Progress, 8)
			progCh = ch
			emit = func(pr Progress) {
				select {
				case ch <- pr:
				default: // progress is best-effort; never block the compute
				}
			}
		}
		p.spawn(key, c, tc, func() (any, error) {
			qstart := time.Now()
			select {
			case p.slots <- struct{}{}:
				p.queued.Add(-int64(cost))
			case <-c.abandoned:
				// Nobody waits any more: a plan nobody wants must not keep
				// burning queue and pool capacity.
				p.queued.Add(-int64(cost))
				p.metrics.deadlineAbandoned.Add(1)
				return nil, errAbandoned
			}
			p.obsStage(tc, trace.StageQueue, qstart)
			defer p.release()
			v, err := compute(c.abandoned, emit)
			if err != nil {
				return nil, err
			}
			cf, err := p.encodeFrame(v, tc)
			if err != nil {
				return nil, err
			}
			if key.kind == kindPlan {
				p.metrics.plansComputed.Add(1)
			}
			p.cache.put(key, cf)
			p.storePut(key, cf, tc)
			return cf, nil
		})
	}
	for {
		select {
		case pr := <-progCh:
			onProgress(pr)
		case <-c.done:
			// Deliver progress that landed in the channel before the
			// flight finished, in order, so callers see every chunk
			// boundary.
			for progCh != nil {
				select {
				case pr := <-progCh:
					onProgress(pr)
				default:
					progCh = nil
				}
			}
			if c.err != nil {
				return nil, follower, false, c.err
			}
			return c.val.(*cachedFrame), follower, false, nil
		case <-ctx.Done():
			p.flight.leave(key, c)
			return nil, follower, false, ctx.Err()
		}
	}
}

// serve runs one endpoint request — a plan, an estimate or a batch —
// inside the planner's lifecycle: begin/end hold its drain unit, and its
// outcome and latency land in one Metrics.observe call. run returns the
// response of a batch, whose per-item counts are recorded only when it is
// delivered, and nil for a single.
func (p *Planner) serve(kind uint8, run func() (*BatchPlanResponse, error)) error {
	if err := p.begin(); err != nil {
		return err
	}
	defer p.end()
	start := time.Now()
	batch, err := run()
	p.metrics.observe(kind, time.Since(start), batch, err)
	return err
}

// group is one unique requestKey's worth of serving work: a /v1/plan or
// /v1/estimate request, or the n items of a batch that share a key. The
// caller fills in the request half, serveGroups the outcome. There is no
// compute closure: one built before the cache peek would allocate on every
// hit, so resolveGroup builds it from the key on a miss.
type group struct {
	key        requestKey
	ins        *model.Instance
	class      dag.Class // a plan's precedence class
	n          int       // requests sharing the key: 1, or the batch items
	cost       int       // admission units of a computation (see itemCost)
	degradable bool      // may take the brownout fallback; estimates never do
	onProgress func(Progress)

	cf     *cachedFrame
	err    error
	source string // sourceCached, sourceComputed, sourceCoalesced or sourceDegraded
	shared bool   // served off a raced cache entry or a store hit, not a flight
}

// serveGroups is the one serve pipeline: /v1/plan and /v1/estimate run it
// with one group, /v1/plan/batch with one per unique key. It peeks the
// response cache, prices the misses, tags the brownout groups, charges the
// rest in one admission, mints the fallbacks, records hits and misses and
// resolves the misses under ctx. The peek is uncounted and the accounting
// waits for admission: a request admission rejects gets no response, so
// it may claim no hit or miss. The error is the request's; units is the
// charge admission took or, on a rejection, the non-degradable charge it
// refused. What fails one group — its budget, its computation, ctx — is
// that group's err.
func (p *Planner) serveGroups(ctx context.Context, gs []group, tc *trace.Ctx) (units int, err error) {
	// Pressure counts only work waiting for the pool — cache hits bypass
	// it — so brownout sheds exactly the load LP compute is drowning under.
	degradeNow := float64(p.queued.Load())/float64(p.cfg.QueueDepth) >= p.cfg.BrownoutThreshold
	total, kept := 0, 0
	for i := range gs {
		g := &gs[i]
		v, hit := p.cache.peek(g.key)
		switch {
		case hit:
			g.cf, g.source = v.(*cachedFrame), sourceCached
		case g.cost > p.cfg.MaxItemCost:
			g.err = badRequestf("item cost %d units (n=%d, m=%d) over the per-item budget %d", g.cost, g.ins.N, g.ins.M, p.cfg.MaxItemCost)
		case g.degradable && degradeNow:
			g.source = sourceDegraded // minted once admission settles
		default:
			g.source = sourceComputed // pending until resolved
			total += g.cost
			if !g.degradable {
				kept += g.cost
			}
		}
	}
	// If the line filled since the pressure check, the degradable groups
	// take the fallback and only the rest is charged.
	degrade, err := p.admit(total, kept)
	if err != nil {
		return kept, err
	}
	if degrade {
		total = kept
	}
	// Misses land before any coalesced count can (resolveGroup), keeping
	// coalesced ≤ misses — and the hit rate ≤ 1 — in every /metrics read.
	first := -1
	var hits, misses uint64
	for i := range gs {
		g := &gs[i]
		if degrade && g.degradable && g.source == sourceComputed {
			g.source = sourceDegraded
		}
		switch {
		case g.source == sourceCached:
			hits += uint64(g.n)
			continue
		case g.source == sourceDegraded:
			g.cf, g.err = p.degradedServe(g, tc)
		case g.err == nil && first < 0:
			first = i
		}
		if g.err == nil {
			misses += uint64(g.n)
		}
	}
	p.cache.hits.Add(hits)
	p.cache.misses.Add(misses)
	if first >= 0 {
		p.resolvePending(ctx, gs[first:], tc)
	}
	return total, nil
}

// resolvePending resolves the groups left to compute, gs[0] first and on
// the caller's goroutine, so a single spawns nothing. The rest fan out
// across the worker pool, each goroutine on a copy written back after the
// wait: one holding &gs[i] would move every caller's groups to the heap.
func (p *Planner) resolvePending(ctx context.Context, gs []group, tc *trace.Ctx) {
	var wg sync.WaitGroup
	rest := gs[1:]
	fanned := make([]group, len(rest)) // empty, so no allocation, for a single
	for i := range rest {
		if rest[i].source == sourceComputed && rest[i].err == nil {
			wg.Add(1)
			go func(g group, out *group) {
				defer wg.Done()
				*out = p.resolveGroup(ctx, g, tc)
			}(rest[i], &fanned[i])
		}
	}
	gs[0] = p.resolveGroup(ctx, gs[0], tc)
	wg.Wait()
	for i := range fanned {
		if fanned[i].n > 0 {
			rest[i] = fanned[i]
		}
	}
}

// resolveGroup resolves one group and returns it with its outcome. The
// requests it served off shared work count as coalesced: each recorded a
// miss but computed nothing.
func (p *Planner) resolveGroup(ctx context.Context, g group, tc *trace.Ctx) group {
	key, ins, class := g.key, g.ins, g.class
	cf, follower, shared, err := p.resolve(ctx, key, g.cost, g.onProgress, tc, func(abandoned <-chan struct{}, emit func(Progress)) (any, error) {
		if key.kind == kindEstimate {
			return p.computeEstimate(ins, key.fp, key.policy, p.policies[key.policy](), key.trials, key.seed, abandoned, emit, tc)
		}
		return p.computePlan(ins, key.fp, key.target, class, abandoned, tc)
	})
	g.cf, g.err, g.shared = cf, err, shared
	if err != nil {
		return g
	}
	coalesced := g.n - 1 // intra-batch duplicates of the computed item
	if follower || shared {
		g.source, coalesced = sourceCoalesced, g.n
	}
	if coalesced > 0 {
		p.metrics.coalesced.Add(uint64(coalesced))
	}
	return g
}

// serveOne serves a single request as a batch of one under its deadline.
// A flight follower reports coalesced, a raced cache entry or a store hit
// cached.
func (p *Planner) serveOne(ctx context.Context, deadlineMS int64, g group, tc *trace.Ctx) (served, error) {
	ctx, cancel := withDeadlineMS(ctx, deadlineMS)
	defer cancel()
	tc.SetFingerprint(g.key.fp.Hi, g.key.fp.Lo)
	gs := []group{g}
	if _, err := p.serveGroups(ctx, gs, tc); err != nil {
		return served{}, err
	}
	g = gs[0]
	return served{cf: g.cf, cached: g.source == sourceCached || g.shared, coalesced: g.source == sourceCoalesced && !g.shared}, g.err
}

// PlanRun is one run of a planned schedule on the wire.
type PlanRun struct {
	Job   int   `json:"job"`
	Steps int64 `json:"steps"`
}

// PlanRequest asks for an LP-rounded oblivious schedule.
type PlanRequest struct {
	Instance *model.Instance `json:"instance"`
	// Target is the per-job log-mass target L of LP1 (independent
	// instances only; default 1/2, the Lemma 1/2 choice).
	Target float64 `json:"target,omitempty"`
	// DeadlineMS is the client's deadline for this request. Past it the
	// server stops working on the request (unless coalesced followers
	// still want the result) and the caller gets a 408. It never enters
	// the cache key: two requests differing only in patience want the
	// same plan.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// PlanResponse is the rounded schedule. Independent instances get the
// LP1(J, L) rounding (Lemma 2); chain instances get the LP2 rounding
// (Lemma 6). Responses are shared between callers; treat as immutable.
type PlanResponse struct {
	Fingerprint string      `json:"fingerprint"`
	Class       string      `json:"class"`
	M           int         `json:"m"`
	N           int         `json:"n"`
	Target      float64     `json:"target,omitempty"`
	TStar       float64     `json:"tstar"`
	LowerBound  float64     `json:"lower_bound,omitempty"`
	Length      int64       `json:"length"`
	Machines    [][]PlanRun `json:"machines"`
	Cached      bool        `json:"cached"`
	Coalesced   bool        `json:"coalesced,omitempty"`
	// Degraded marks a brownout fallback: a greedy list schedule served
	// under overload instead of the LP rounding. Degraded plans carry no
	// TStar/LowerBound certificate and are never cached — a retry after
	// the storm gets the real plan.
	Degraded bool `json:"degraded,omitempty"`
}

// Plan computes (or serves from cache) the rounded schedule for req.
func (p *Planner) Plan(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	sv, err := p.planServe(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	return sv.planResponse(), nil
}

// planServe is Plan for the zero-copy path: it resolves the request to the
// shared pre-encoded frame plus this caller's serving flags, without ever
// materializing a flag-bearing struct copy. The HTTP layer splices the
// frame straight into the response. tc, if non-nil, is the request's
// trace context; the planner records stage spans onto it.
func (p *Planner) planServe(ctx context.Context, req *PlanRequest, tc *trace.Ctx) (sv served, err error) {
	err = p.serve(kindPlan, func() (*BatchPlanResponse, error) {
		g, err := p.planGroup(req)
		if err != nil {
			return nil, err
		}
		sv, err = p.serveOne(ctx, req.DeadlineMS, g, tc)
		return nil, err
	})
	return sv, err
}

// planGroup validates req and resolves it into the group it is served
// as: the normalized target (defaulted to the Lemma 1/2 choice, zeroed for
// chains where LP2 has no target knob) in its key, its precedence class,
// its admission cost and its brownout eligibility. Both the single and the
// batch endpoints go through it, so an item in a batch is accepted or
// rejected by exactly the rules /v1/plan applies.
func (p *Planner) planGroup(req *PlanRequest) (group, error) {
	if req == nil || req.Instance == nil {
		return group{}, badRequestf("missing instance")
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		return group{}, err
	}
	ins := req.Instance
	target := req.Target
	if target == 0 {
		target = 0.5
	}
	if math.IsNaN(target) || target < 0 || target > model.LogFailCap {
		// NaN must be rejected explicitly: as a map key it never equals
		// itself, so it would leak singleflight entries and plant
		// unfindable cache entries.
		return group{}, badRequestf("target %g outside (0, %g]", target, model.LogFailCap)
	}
	class := ins.Class()
	if class != dag.ClassIndependent && class != dag.ClassChains {
		return group{}, badRequestf("planning supports independent and chain instances; got class %v (use /v1/estimate with policy forest or layered)", class)
	}
	if class == dag.ClassChains {
		// LP2 has no target knob: normalize before keying, so the same
		// chain instance under different targets shares one cache entry
		// and one flight instead of recomputing an identical schedule.
		target = 0
	}
	return group{
		key:        requestKey{fp: sched.FingerprintInstance(ins), kind: kindPlan, target: target},
		ins:        ins,
		class:      class,
		n:          1,
		cost:       itemCost(ins),
		degradable: p.cfg.DegradedPolicy == DegradeAll || p.cfg.DegradedPolicy == DegradeIndependent && class == dag.ClassIndependent,
	}, nil
}

// computePlan runs the rounding on a pooled workspace. The checkpoint
// before the solve is the last stop for abandoned work (and the chaos
// hook); a solve that starts always finishes — LP solves are finite and
// their result is worth caching even if every caller has gone.
func (p *Planner) computePlan(ins *model.Instance, fp sched.Fingerprint, target float64, class dag.Class, abandoned <-chan struct{}, tc *trace.Ctx) (*PlanResponse, error) {
	if err := p.checkpoint(abandoned, tc); err != nil {
		return nil, err
	}
	start := time.Now()
	resp, o, err := p.solvePlan(ins, fp, target, class)
	if err != nil {
		return nil, err
	}
	// The LP solve and its rounding are fused inside the workspace Round
	// call, so StageSolve covers both; StageRound is the rounded
	// schedule's conversion into the wire shape.
	p.obsStage(tc, trace.StageSolve, start)
	rstart := time.Now()
	resp.Machines = serializeRuns(o, &resp.Length)
	p.obsStage(tc, trace.StageRound, rstart)
	p.observeUnitCost(itemCost(ins), time.Since(start))
	return resp, nil
}

// solvePlan solves and rounds the plan's LP on a pooled workspace,
// returning the response without its machine runs and the rounded
// schedule they serialize from.
func (p *Planner) solvePlan(ins *model.Instance, fp sched.Fingerprint, target float64, class dag.Class) (*PlanResponse, *sched.Oblivious, error) {
	ws := p.pool.Get()
	defer p.pool.Put(ws)
	resp := &PlanResponse{
		Fingerprint: fp.String(),
		Class:       class.String(),
		M:           ins.M,
		N:           ins.N,
		Target:      target,
	}
	var o *sched.Oblivious
	switch class {
	case dag.ClassIndependent:
		jobs := make([]int, ins.N)
		for j := range jobs {
			jobs[j] = j
		}
		// The nil cache runs the rounding directly on ws; response-level
		// caching is the planner's sharded LRU, so a second memo layer
		// here would only hold duplicates.
		r, err := (*rounding.Cache)(nil).RoundLP1Ws(ws, ins, jobs, target)
		if err != nil {
			return nil, nil, err
		}
		o = r.Schedule
		resp.TStar = r.TFrac
		if target == 0.5 {
			// Lemma 1: E[T_OPT] ≥ max(t*/2, 1) at L = 1/2.
			resp.LowerBound = r.TFrac / 2
			if resp.LowerBound < 1 {
				resp.LowerBound = 1
			}
		}
	case dag.ClassChains:
		chains, err := ins.Chains()
		if err != nil {
			return nil, nil, err
		}
		r, err := (*rounding.LP2Cache)(nil).RoundLP2Ws(ws, ins, chains)
		if err != nil {
			return nil, nil, err
		}
		o = r.Assignment.Serialize()
		resp.TStar = r.TFrac
	}
	return resp, o, nil
}

// serializeRuns converts a schedule into the wire run lists, recording
// the schedule length into *length.
func serializeRuns(o *sched.Oblivious, length *int64) [][]PlanRun {
	*length = o.Length
	machines := make([][]PlanRun, len(o.Runs))
	for i, runs := range o.Runs {
		row := make([]PlanRun, len(runs))
		for k, r := range runs {
			row[k] = PlanRun{Job: r.Job, Steps: r.Steps}
		}
		machines[i] = row
	}
	return machines
}

// EstimateRequest asks for a Monte Carlo makespan estimate.
type EstimateRequest struct {
	Instance *model.Instance `json:"instance"`
	// Policy is one of sem, obl, chains, forest, layered, greedy,
	// greedy-prec, sequential, eligible-split, or auto/"" (pick by
	// precedence class).
	Policy string `json:"policy,omitempty"`
	// Trials is the Monte Carlo budget (default DefaultTrials, capped at
	// MaxTrials).
	Trials int `json:"trials,omitempty"`
	// Seed makes the estimate reproducible; trial i runs on stream seed+i.
	Seed int64 `json:"seed,omitempty"`
	// Stream asks the HTTP layer for NDJSON progress lines.
	Stream bool `json:"stream,omitempty"`
	// DeadlineMS is the client's deadline; see PlanRequest.DeadlineMS.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// EstimateResponse summarizes the makespan sample.
type EstimateResponse struct {
	Fingerprint string  `json:"fingerprint"`
	Policy      string  `json:"policy"`
	Trials      int     `json:"trials"`
	Seed        int64   `json:"seed"`
	Mean        float64 `json:"mean"`
	Std         float64 `json:"std"`
	Sem         float64 `json:"sem"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	Median      float64 `json:"median"`
	P90         float64 `json:"p90"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced,omitempty"`
}

// Progress reports a streamed estimate's partial state.
type Progress struct {
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Mean  float64 `json:"mean"`
}

// classRank orders precedence classes by generality.
func classRank(c dag.Class) int {
	switch {
	case c == dag.ClassIndependent:
		return 0
	case c == dag.ClassChains:
		return 1
	case c.IsForest(): // out-, in-, and mixed forests: SUU-T territory
		return 2
	default:
		return 3
	}
}

// maxClassRank is the most general class each policy accepts (runtime
// checks inside the policies would reject too, but pre-checking turns the
// mistake into a clean 400 instead of a mid-computation failure).
var maxClassRank = map[string]int{
	"sem":            0,
	"obl":            0,
	"greedy":         0,
	"chains":         1,
	"forest":         2,
	"layered":        3,
	"greedy-prec":    3,
	"sequential":     3,
	"eligible-split": 3,
}

// resolvePolicy picks the policy for a request.
func (p *Planner) resolvePolicy(name string, class dag.Class) (string, error) {
	if name == "" || name == "auto" {
		switch classRank(class) {
		case 0:
			name = "sem"
		case 1:
			name = "chains"
		case 2:
			name = "forest"
		default:
			name = "layered"
		}
	}
	if _, ok := p.policies[name]; !ok {
		return "", badRequestf("unknown policy %q", name)
	}
	if classRank(class) > maxClassRank[name] {
		return "", badRequestf("policy %q does not support precedence class %v", name, class)
	}
	return name, nil
}

// Estimate computes (or serves from cache) the Monte Carlo estimate for
// req. onProgress, if non-nil, observes partial means while the estimate
// computes; cache hits and coalesced requests skip straight to the result.
func (p *Planner) Estimate(ctx context.Context, req *EstimateRequest, onProgress func(Progress)) (*EstimateResponse, error) {
	sv, err := p.estimateServe(ctx, req, onProgress, nil)
	if err != nil {
		return nil, err
	}
	return sv.estimateResponse(), nil
}

// estimateServe is Estimate for the zero-copy path; see planServe.
func (p *Planner) estimateServe(ctx context.Context, req *EstimateRequest, onProgress func(Progress), tc *trace.Ctx) (sv served, err error) {
	err = p.serve(kindEstimate, func() (*BatchPlanResponse, error) {
		trials, name, err := p.estimateParams(req)
		if err != nil {
			return nil, err
		}
		// Estimates never degrade: a degraded sample would be silently wrong.
		sv, err = p.serveOne(ctx, req.DeadlineMS, group{
			key:        requestKey{fp: sched.FingerprintInstance(req.Instance), kind: kindEstimate, policy: name, trials: trials, seed: req.Seed},
			ins:        req.Instance,
			n:          1,
			cost:       1,
			onProgress: onProgress,
		}, tc)
		return nil, err
	})
	return sv, err
}

// estimateParams validates req and resolves it into its effective
// parameters. ValidateEstimate exposes exactly these checks so the HTTP
// layer can reject a bad stream request before committing a 200.
func (p *Planner) estimateParams(req *EstimateRequest) (trials int, name string, err error) {
	if req == nil || req.Instance == nil {
		return 0, "", badRequestf("missing instance")
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		return 0, "", err
	}
	trials = req.Trials
	if trials == 0 {
		trials = p.cfg.DefaultTrials
	}
	if trials < 0 {
		return 0, "", badRequestf("trials %d must be positive", trials)
	}
	if trials > p.cfg.MaxTrials {
		return 0, "", badRequestf("trials %d over the per-request budget %d", trials, p.cfg.MaxTrials)
	}
	name, err = p.resolvePolicy(req.Policy, req.Instance.Class())
	return trials, name, err
}

// ValidateEstimate reports whether req would pass Estimate's validation,
// without computing anything.
func (p *Planner) ValidateEstimate(req *EstimateRequest) error {
	_, _, err := p.estimateParams(req)
	return err
}

// computeEstimate runs the Monte Carlo in ProgressChunk batches. Batch b
// starts at trial offset o and seeds its stream with seed+o, so the
// concatenated sample is byte-identical to one unchunked MonteCarlo call —
// chunking changes progress granularity, never the estimate. It runs on a
// detached goroutine; each chunk boundary is a checkpoint, so an estimate
// every caller abandoned stops there instead of burning the rest of its
// trial budget. pol is this computation's own policy value; its LP1
// roundings come from the planner-lifetime cache, so trials of this and
// every other request on the same instance content share them.
func (p *Planner) computeEstimate(ins *model.Instance, fp sched.Fingerprint, name string, pol sim.Policy, trials int, seed int64, abandoned <-chan struct{}, emit func(Progress), tc *trace.Ctx) (*EstimateResponse, error) {
	all := make([]float64, 0, trials)
	for done := 0; done < trials; {
		if err := p.checkpoint(abandoned, tc); err != nil {
			return nil, err
		}
		c := p.cfg.ProgressChunk
		if rest := trials - done; c > rest {
			c = rest
		}
		cstart := time.Now()
		res, err := sim.MonteCarlo(ins, pol, c, seed+int64(done), p.cfg.TrialWorkers)
		p.obsStage(tc, trace.StageSolve, cstart)
		if err != nil {
			return nil, fmt.Errorf("estimate with %s: %w", name, err)
		}
		all = append(all, res.Makespans...)
		done += c
		if done < trials {
			emit(Progress{Done: done, Total: trials, Mean: stats.Mean(all)})
		}
	}
	s := stats.Summarize(all)
	return &EstimateResponse{
		Fingerprint: fp.String(),
		Policy:      name,
		Trials:      trials,
		Seed:        seed,
		Mean:        s.Mean,
		Std:         s.Std,
		Sem:         s.Sem,
		Min:         s.Min,
		Max:         s.Max,
		Median:      s.Median,
		P90:         s.P90,
	}, nil
}
