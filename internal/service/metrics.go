package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
)

// Metrics is the planner's instrumentation: monotone counters on atomics
// (hot path: one Add each) and per-endpoint latency histograms behind one
// small mutex. Snapshot assembles the expvar-style view /metrics serves.
type Metrics struct {
	start     time.Time
	plans     atomic.Uint64 // completed /v1/plan computations or cache hits
	estimates atomic.Uint64 // same for /v1/estimate
	errors    atomic.Uint64 // requests that failed server-side
	canceled  atomic.Uint64 // callers that gave up waiting (client's doing, not ours)
	rejected  atomic.Uint64 // admission-control rejections (429s)
	coalesced atomic.Uint64 // requests served by another caller's flight or its just-cached result
	inflight  atomic.Int64  // admitted requests currently in the planner

	degraded          atomic.Uint64 // brownout fallback serves (groups/requests, not batch items)
	deadlineAbandoned atomic.Uint64 // computations stopped because every caller gave up
	retriesObserved   atomic.Uint64 // requests arriving with X-Suu-Attempt ≥ 2

	// Store-tier ledger: every storeGet lands in exactly one of the hit
	// counters (by the tier that served it) or storeMisses, and every
	// plan actually computed lands in plansComputed — so a warm-restart
	// assertion can reconcile "served from disk, computed nothing".
	storeMemHits   atomic.Uint64 // store lookups served by the mem tier
	storeDiskHits  atomic.Uint64 // served by the disk tier (segment log)
	storePeerHits  atomic.Uint64 // served by a peer replica
	storeMisses    atomic.Uint64 // store lookups no tier could answer
	storePutErrors atomic.Uint64 // persists that failed (full/failing store)
	plansComputed  atomic.Uint64 // plans actually computed (not served from LRU/store)

	// Zero-copy serving ledger: every payload frame written to a response
	// is attributed to exactly one side — spliced from a pre-encoded cache
	// frame (LRU, flight, or store hit: no Marshal ran for this serve) or
	// produced by a cold encode (this request's own computation, or a
	// degraded fallback). framesSpliced / (framesSpliced + coldEncodes)
	// therefore reconciles with the cache hit rate: a frame can only be
	// spliced because some earlier request's cold encode cached it.
	payloadBytesCache atomic.Uint64 // payload bytes served by splicing a pre-encoded frame
	payloadBytesCold  atomic.Uint64 // payload bytes served from this request's own encode
	framesSpliced     atomic.Uint64 // payloads served with zero json.Marshal
	coldEncodes       atomic.Uint64 // canonical payload encodes actually run

	// Request-side mirror of the ledger above: instances resolved from
	// the byte-keyed decoded-instance cache vs actually re-decoded (see
	// decodecache.go).
	decodeHits   atomic.Uint64
	decodeMisses atomic.Uint64

	mu      sync.Mutex
	planLat *stats.Histogram
	estLat  *stats.Histogram
	// encodeNS distributes the cost of cold payload encodes, in
	// nanoseconds — the time splicing saves on every hit.
	encodeNS *stats.Histogram

	// Per-tier store lookup latency, under the same mutex as the other
	// histograms.
	storeMemLat  *stats.Histogram
	storeDiskLat *stats.Histogram
	storePeerLat *stats.Histogram

	// Per-stage latency, indexed by trace.Stage, under the same mutex.
	// Stages are recorded only for traced requests (the HTTP layer creates
	// a trace.Ctx; library calls and Warmup do not), so every stage sample
	// belongs to a request the endpoint histograms also counted.
	stageLat [trace.NumStages]*stats.Histogram

	// Batch accounting lives under mu as plain counters (not atomics):
	// observeBatch updates the whole family plus two histograms in one
	// critical section, and snapshot reads under the same lock — so one
	// /metrics document always reconciles exactly:
	// batchItems = cached + computed + coalesced + degraded + errors.
	batches             uint64 // completed /v1/plan/batch requests
	batchItems          uint64 // items across completed batches
	batchItemsCached    uint64 // items served from the response LRU
	batchItemsComputed  uint64 // items whose batch led the computation
	batchItemsCoalesced uint64 // items served off shared work (flights, intra-batch duplicates)
	batchItemsDegraded  uint64 // items served the brownout fallback
	batchItemErrors     uint64 // per-item failures (validation, budget, compute, deadline)
	batchLat            *stats.Histogram
	batchSize           *stats.Histogram
}

func newMetrics() *Metrics {
	// Batch sizes are small integers; a 1..4096 log-scale histogram at 8
	// buckets per octave keeps the quantiles' relative error under ~9%.
	sizeHist, err := stats.NewHistogram(1, 4096, 8)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	// Cold encodes run from ~microseconds (tiny plans) to milliseconds
	// (near-cap instances); 100ns..10s covers both edges with clamping.
	encodeHist, err := stats.NewHistogram(100, 1e10, 8)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	m := &Metrics{
		start:        time.Now(),
		planLat:      stats.NewLatencyHistogram(),
		estLat:       stats.NewLatencyHistogram(),
		encodeNS:     encodeHist,
		batchLat:     stats.NewLatencyHistogram(),
		batchSize:    sizeHist,
		storeMemLat:  stats.NewLatencyHistogram(),
		storeDiskLat: stats.NewLatencyHistogram(),
		storePeerLat: stats.NewLatencyHistogram(),
	}
	for i := range m.stageLat {
		m.stageLat[i] = stats.NewLatencyHistogram()
	}
	return m
}

// observeStage records one stage span of a traced request.
func (m *Metrics) observeStage(s trace.Stage, d time.Duration) {
	if int(s) >= len(m.stageLat) {
		return
	}
	m.mu.Lock()
	m.stageLat[s].Observe(d.Seconds())
	m.mu.Unlock()
}

// observeStore records one store lookup served by the named tier.
func (m *Metrics) observeStore(tier string, d time.Duration) {
	var h *stats.Histogram
	switch tier {
	case store.TierMem:
		m.storeMemHits.Add(1)
		h = m.storeMemLat
	case store.TierDisk:
		m.storeDiskHits.Add(1)
		h = m.storeDiskLat
	case store.TierPeer:
		m.storePeerHits.Add(1)
		h = m.storePeerLat
	default:
		return
	}
	m.mu.Lock()
	h.Observe(d.Seconds())
	m.mu.Unlock()
}

// observeEncode records one cold payload encode — the single Marshal a
// cacheable response ever gets, or a degraded fallback's per-request one.
func (m *Metrics) observeEncode(d time.Duration) {
	m.coldEncodes.Add(1)
	ns := float64(d.Nanoseconds())
	if ns < 1 {
		ns = 1
	}
	m.mu.Lock()
	m.encodeNS.Observe(ns)
	m.mu.Unlock()
}

// addPayloadBytes attributes one served payload frame: spliced from a
// pre-encoded cache frame, or written off a cold encode.
func (m *Metrics) addPayloadBytes(n int, spliced bool) {
	if spliced {
		m.framesSpliced.Add(1)
		m.payloadBytesCache.Add(uint64(n))
	} else {
		m.payloadBytesCold.Add(uint64(n))
	}
}

// observeFailure classifies one failed request. A caller abandoning its
// wait is counted as canceled, not as a server error — the detached
// computation usually completes fine and lands in the cache.
func (m *Metrics) observeFailure(err error) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		m.canceled.Add(1)
	case errors.Is(err, ErrOverloaded):
		m.errors.Add(1)
		m.rejected.Add(1)
	default:
		m.errors.Add(1)
	}
}

// observe records one finished request of the given kind.
func (m *Metrics) observe(kind uint8, d time.Duration, err error) {
	if err != nil {
		m.observeFailure(err)
		return
	}
	var h *stats.Histogram
	switch kind {
	case kindPlan:
		m.plans.Add(1)
		h = m.planLat
	case kindEstimate:
		m.estimates.Add(1)
		h = m.estLat
	}
	if h != nil {
		m.mu.Lock()
		h.Observe(d.Seconds())
		m.mu.Unlock()
	}
}

// observeBatch records one finished batch request. Per-item counts come
// off the response so they are only claimed for batches whose response
// was actually delivered.
func (m *Metrics) observeBatch(d time.Duration, resp *BatchPlanResponse, err error) {
	if err != nil {
		m.observeFailure(err)
		return
	}
	m.mu.Lock()
	m.batches++
	m.batchItems += uint64(resp.Size)
	m.batchItemsCached += uint64(resp.Cached)
	m.batchItemsComputed += uint64(resp.Computed)
	m.batchItemsCoalesced += uint64(resp.Coalesced)
	m.batchItemsDegraded += uint64(resp.Degraded)
	m.batchItemErrors += uint64(resp.Errors)
	m.batchLat.Observe(d.Seconds())
	m.batchSize.Observe(float64(resp.Size))
	m.mu.Unlock()
}

// LatencySnapshot is one endpoint's latency quantiles in seconds. Sum is
// the histogram's total observed seconds — the field that lets stage sums
// reconcile against endpoint sums within one document, and the _sum line
// of the Prometheus summary exposition.
type LatencySnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_s"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

func latencySnapshot(h *stats.Histogram) LatencySnapshot {
	if h.N() == 0 {
		return LatencySnapshot{}
	}
	return LatencySnapshot{
		Count: h.N(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// DistSnapshot summarizes a unitless distribution (batch sizes).
type DistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// distSnapshot shares latencySnapshot's extraction; the distinct type
// exists only for the unit-free JSON field names.
func distSnapshot(h *stats.Histogram) DistSnapshot {
	l := latencySnapshot(h)
	return DistSnapshot{Count: l.Count, Sum: l.Sum, Mean: l.Mean, P50: l.P50, P95: l.P95, P99: l.P99, Max: l.Max}
}

// MetricsSnapshot is the JSON document /metrics serves.
//
// Batch accounting: batches counts completed /v1/plan/batch requests and
// batch_items their items; every item lands in exactly one of
// batch_items_cached (response-LRU hit), batch_items_computed (this batch
// led the computation), batch_items_coalesced (served off shared work — an
// in-flight request's flight or an intra-batch duplicate),
// batch_items_degraded (brownout fallback), or batch_item_errors — the
// five always sum to batch_items within one document (they are updated
// and snapshotted under one lock). Batch items also feed the shared
// cache_hits/cache_misses/coalesced counters per item, so cache_hit_rate
// stays ≤ 1 with batches in play. All counters are monotone over the
// process lifetime.
//
// Resilience counters: degraded counts brownout fallback serves (one per
// /v1/plan request or unique batch group), deadline_abandoned counts
// computations stopped because every caller gave up, retries_observed
// counts requests that arrived carrying X-Suu-Attempt ≥ 2 (a retrying
// client's confession), retry_after_hint_s is the adaptive Retry-After a
// 429 would carry right now.
type MetricsSnapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Plans         uint64          `json:"plans"`
	Estimates     uint64          `json:"estimates"`
	Batches       uint64          `json:"batches"`
	Errors        uint64          `json:"errors"`
	Canceled      uint64          `json:"canceled"`
	Rejected      uint64          `json:"rejected"`
	Coalesced     uint64          `json:"coalesced"`
	InFlight      int64           `json:"in_flight"`
	Degraded      uint64          `json:"degraded"`
	Abandoned     uint64          `json:"deadline_abandoned"`
	RetriesSeen   uint64          `json:"retries_observed"`
	CacheHits     uint64          `json:"cache_hits"`
	CacheMisses   uint64          `json:"cache_misses"`
	CacheHitRate  float64         `json:"cache_hit_rate"`
	CacheEntries  int             `json:"cache_entries"`
	BatchItems    uint64          `json:"batch_items"`
	BatchCached   uint64          `json:"batch_items_cached"`
	BatchComputed uint64          `json:"batch_items_computed"`
	BatchShared   uint64          `json:"batch_items_coalesced"`
	BatchDegraded uint64          `json:"batch_items_degraded"`
	BatchErrors   uint64          `json:"batch_item_errors"`
	RetryAfterS   float64         `json:"retry_after_hint_s"`
	PlanLatency   LatencySnapshot `json:"plan_latency"`
	EstLatency    LatencySnapshot `json:"estimate_latency"`
	BatchLatency  LatencySnapshot `json:"batch_latency"`
	BatchSizes    DistSnapshot    `json:"batch_size"`

	// Zero-copy serving: payload_bytes_served splits every served payload
	// frame by where its bytes came from — encoded_cache (spliced from a
	// pre-encoded frame; zero json.Marshal ran) vs cold_encode (this
	// request's own encode). frames_spliced / (frames_spliced +
	// cold_encodes) is the observable zero-copy hit rate; it reconciles
	// with cache_hit_rate because only a cold encode can plant a frame for
	// later splicing. encode_ns distributes the cold encodes' cost in
	// nanoseconds.
	PayloadBytes  PayloadBytesSnapshot `json:"payload_bytes_served"`
	FramesSpliced uint64               `json:"frames_spliced"`
	ColdEncodes   uint64               `json:"cold_encodes"`
	EncodeNS      DistSnapshot         `json:"encode_ns"`
	// The request-side mirror: instance_decode_hits counts request
	// instances resolved byte-for-byte from the decoded-instance cache
	// (no float parsing ran), instance_decode_misses the instances
	// actually decoded.
	DecodeHits   uint64 `json:"instance_decode_hits"`
	DecodeMisses uint64 `json:"instance_decode_misses"`
	// The LP1 rounding memo every estimate computation shares (see
	// Planner.lp1): lp1_cache_hits/_misses count lookups (the estimate
	// speedup tracks their ratio), lp1_cache_evictions the entries LRU
	// dropped to stay within lp1_cache_budget_bytes, and lp1_cache_bytes
	// the live entries' charged size. All six come from one locked read
	// of the cache, so they reconcile within a document.
	LP1CacheHits      uint64 `json:"lp1_cache_hits"`
	LP1CacheMisses    uint64 `json:"lp1_cache_misses"`
	LP1CacheEvictions uint64 `json:"lp1_cache_evictions"`
	LP1CacheEntries   int    `json:"lp1_cache_entries"`
	LP1CacheBytes     int64  `json:"lp1_cache_bytes"`
	LP1CacheBudget    int64  `json:"lp1_cache_budget_bytes"`

	// Store-tier counters (all zero when no store is configured). The
	// service-side view reconciles per document: every store lookup is
	// one of store_mem_hits/store_disk_hits/store_peer_hits/store_misses,
	// and plans_computed counts only plans no tier (LRU or store) could
	// serve. The store_* ledger fields below come from the store's own
	// Stats — corrupt records quarantined, hinted handoff flow, and the
	// startup anti-entropy pull.
	PlansComputed      uint64          `json:"plans_computed"`
	StoreMemHits       uint64          `json:"store_mem_hits"`
	StoreDiskHits      uint64          `json:"store_disk_hits"`
	StorePeerHits      uint64          `json:"store_peer_hits"`
	StoreMisses        uint64          `json:"store_misses"`
	StorePutErrors     uint64          `json:"store_put_errors"`
	StoreEntries       int             `json:"store_entries"`
	StoreCorrupt       uint64          `json:"store_corrupt_dropped"`
	StoreHandoffQueued uint64          `json:"store_handoff_queued"`
	StoreHandoffDrain  uint64          `json:"store_handoff_drained"`
	StoreHandoffDrop   uint64          `json:"store_handoff_dropped"`
	StoreAntiEntropy   uint64          `json:"store_anti_entropy_pulled"`
	StoreMemLatency    LatencySnapshot `json:"store_mem_latency"`
	StoreDiskLatency   LatencySnapshot `json:"store_disk_latency"`
	StorePeerLatency   LatencySnapshot `json:"store_peer_latency"`

	// Stage-level attribution (tentpole of the tracing layer). Stages maps
	// each canonical stage name (decode, queue, flight, store.mem,
	// store.disk, store.peer, store.miss, solve, round, encode, degrade)
	// to its latency distribution across traced requests. Stage samples
	// are recorded only for requests that carried a trace context, so
	// within one document each stage's sum_s is bounded by the endpoint
	// latency sums (decode excepted: it is measured in the HTTP handler,
	// before the planner's endpoint clock starts). The trace_* counters
	// ledger the tracer itself: traced = requests that carried a context,
	// trace_sampled of them won the head-sampling roll, trace_forced were
	// kept regardless (errors/degraded), trace_ring_kept landed in the
	// /debug/traces ring, trace_slow_kept in its slowest-N list, and
	// trace_log_records/_bytes count the binary trace log's output.
	Stages          map[string]LatencySnapshot `json:"stages,omitempty"`
	Traced          uint64                     `json:"traced,omitempty"`
	TraceSampled    uint64                     `json:"trace_sampled,omitempty"`
	TraceForced     uint64                     `json:"trace_forced,omitempty"`
	TraceRingKept   uint64                     `json:"trace_ring_kept,omitempty"`
	TraceSlowKept   uint64                     `json:"trace_slow_kept,omitempty"`
	TraceLogRecords uint64                     `json:"trace_log_records,omitempty"`
	TraceLogBytes   uint64                     `json:"trace_log_bytes,omitempty"`
}

// PayloadBytesSnapshot splits served payload bytes by source.
type PayloadBytesSnapshot struct {
	EncodedCache uint64 `json:"encoded_cache"`
	ColdEncode   uint64 `json:"cold_encode"`
}

// Snapshot assembles a consistent-enough view: counters are read
// individually (each is internally consistent; cross-counter skew of a
// few in-flight requests is fine for monitoring), histograms are cloned
// under their lock and read outside it.
func (m *Metrics) snapshot(cache *planCache) MetricsSnapshot {
	m.mu.Lock()
	planLat := m.planLat.Clone()
	estLat := m.estLat.Clone()
	encodeNS := m.encodeNS.Clone()
	batchLat := m.batchLat.Clone()
	batchSize := m.batchSize.Clone()
	storeMemLat := m.storeMemLat.Clone()
	storeDiskLat := m.storeDiskLat.Clone()
	storePeerLat := m.storePeerLat.Clone()
	var stageLat [trace.NumStages]*stats.Histogram
	for i, h := range m.stageLat {
		if h.N() > 0 {
			stageLat[i] = h.Clone()
		}
	}
	batches := m.batches
	batchItems := m.batchItems
	batchCached := m.batchItemsCached
	batchComputed := m.batchItemsComputed
	batchShared := m.batchItemsCoalesced
	batchDegraded := m.batchItemsDegraded
	batchErrors := m.batchItemErrors
	m.mu.Unlock()
	// coalesced is loaded before the cache counters: each coalesced.Add is
	// sequenced after its caller's misses.Add, so this order guarantees
	// every observed coalesce has its miss observed too (coalesced ≤
	// misses) and the rate below never exceeds 1.
	coalesced := m.coalesced.Load()
	hits, misses := cache.hits.Load(), cache.misses.Load()
	rate := 0.0
	if hits+misses > 0 {
		// Every coalesced follower first missed the LRU (so coalesced ≤
		// misses) but was then served off another caller's flight without
		// recomputation; counting it as a plain miss would understate the
		// hit rate under exactly the duplicate-heavy load the cache and
		// flight group exist for.
		rate = float64(hits+coalesced) / float64(hits+misses)
	}
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Plans:         m.plans.Load(),
		Estimates:     m.estimates.Load(),
		Batches:       batches,
		Errors:        m.errors.Load(),
		Canceled:      m.canceled.Load(),
		Rejected:      m.rejected.Load(),
		Coalesced:     coalesced,
		InFlight:      m.inflight.Load(),
		Degraded:      m.degraded.Load(),
		Abandoned:     m.deadlineAbandoned.Load(),
		RetriesSeen:   m.retriesObserved.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheHitRate:  rate,
		CacheEntries:  cache.Len(),
		BatchItems:    batchItems,
		BatchCached:   batchCached,
		BatchComputed: batchComputed,
		BatchShared:   batchShared,
		BatchDegraded: batchDegraded,
		BatchErrors:   batchErrors,
		PlanLatency:   latencySnapshot(planLat),
		EstLatency:    latencySnapshot(estLat),
		BatchLatency:  latencySnapshot(batchLat),
		BatchSizes:    distSnapshot(batchSize),

		PayloadBytes: PayloadBytesSnapshot{
			EncodedCache: m.payloadBytesCache.Load(),
			ColdEncode:   m.payloadBytesCold.Load(),
		},
		FramesSpliced: m.framesSpliced.Load(),
		ColdEncodes:   m.coldEncodes.Load(),
		EncodeNS:      distSnapshot(encodeNS),
		DecodeHits:    m.decodeHits.Load(),
		DecodeMisses:  m.decodeMisses.Load(),

		PlansComputed:    m.plansComputed.Load(),
		StoreMemHits:     m.storeMemHits.Load(),
		StoreDiskHits:    m.storeDiskHits.Load(),
		StorePeerHits:    m.storePeerHits.Load(),
		StoreMisses:      m.storeMisses.Load(),
		StorePutErrors:   m.storePutErrors.Load(),
		StoreMemLatency:  latencySnapshot(storeMemLat),
		StoreDiskLatency: latencySnapshot(storeDiskLat),
		StorePeerLatency: latencySnapshot(storePeerLat),
		Stages:           stageSnapshots(stageLat),
	}
}

// stageSnapshots renders the observed stages under their canonical names;
// stages never observed are omitted, so a tracing-off /metrics document
// looks exactly like it did before the tracing layer existed.
func stageSnapshots(stageLat [trace.NumStages]*stats.Histogram) map[string]LatencySnapshot {
	var out map[string]LatencySnapshot
	for i, h := range stageLat {
		if h == nil {
			continue
		}
		if out == nil {
			out = make(map[string]LatencySnapshot, trace.NumStages)
		}
		out[trace.Stage(i).String()] = latencySnapshot(h)
	}
	return out
}
