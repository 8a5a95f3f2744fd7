// Package service turns the SUU library into a concurrent planning
// service: the request/response half of cmd/suud.
//
// The pieces, in request order:
//
//   - Planner accepts plan requests (LP-rounded oblivious schedules) and
//     estimate requests (Monte Carlo makespan distributions) and runs them
//     on a bounded worker pool. Each computation borrows a
//     rounding.Workspace from a shared pool, so the LP engine's
//     zero-allocation steady state — built for Monte Carlo workers —
//     carries over to request serving unchanged. Estimates also share one
//     planner-lifetime rounding.Cache: SEM's round-1 LP and its recurring
//     survivor-set re-solves are solved once per instance content, not
//     once per request, within a 1 MiB budget (lp1_cache_* in
//     /metrics).
//   - Admission control sits in front of the pool, with one cost model:
//     a plan miss — single or batch item — costs ⌈n·m/1024⌉ units (1 unit
//     = the n=64, m=16 reference instance; over Config.MaxItemCost it is a
//     bad request), an estimate miss one unit. QueueDepth bounds the cost
//     units waiting for a worker slot; running work is not counted. The
//     charge is taken before the store lookup and refunded on a store or
//     raced-cache hit, on joining another caller's flight, or when the
//     work gets its slot. A charge that would take the line past
//     max(QueueDepth, charge) is rejected immediately with ErrOverloaded
//     (HTTP 429) instead of building an unbounded goroutine backlog. Load
//     shedding this early keeps p99 bounded when the offered load exceeds
//     capacity — the property the suuload open-loop harness exists to
//     measure.
//   - Duplicate in-flight requests coalesce: requests are content-addressed
//     by sched.Fingerprint (a canonical 128-bit hash of (m, n, q, prec)),
//     and a singleflight group keyed by (fingerprint, kind, params) lets
//     one computation serve every concurrent caller asking the same
//     question.
//   - Finished responses land in a bounded response cache under the same
//     content-addressed keys, so repeated instances — the common case for
//     a planner fronting a fleet of similar workloads — are served from
//     memory. It, the decoded-instance cache, the LP1 memo and the store's
//     mem tier are all one internal/lru cache, charged per entry here and
//     per byte in the other three.
//   - Batches amortize the HTTP and JSON overhead: /v1/plan/batch
//     (Planner.PlanBatch) takes a list of plan items per request and
//     resolves each independently — cache hits immediately, duplicates
//     deduped within the batch by fingerprint before any flight
//     registration, the rest fanned across the same worker pool and
//     coalesced against in-flight singles and other batches. Items fail
//     individually (validation, per-item cost budget, compute errors, a
//     missed DeadlineMS in partial-results mode), never the batch; item
//     payloads are the canonical cached values, with the serving source
//     ("cached"/"computed"/"coalesced") in the per-item envelope. A batch
//     is charged the summed cost of its to-be-computed items in one
//     admission, so a batch of heavy instances sheds load like the many
//     requests it is; a single plan miss is admitted and resolved as a
//     batch of one.
//   - Metrics counts everything (hits, misses, coalesced, rejected,
//     in-flight, per-item batch outcomes, a batch-size distribution) and
//     records per-endpoint latency in stats.Histogram; Server exposes it
//     all as JSON on /metrics next to /healthz, /readyz, /v1/plan,
//     /v1/plan/batch, and /v1/estimate (which can stream NDJSON progress).
//     Within one /metrics document the batch item counters reconcile
//     exactly (items = cached + computed + coalesced + degraded + errors)
//     and cache_hit_rate ≤ 1 holds with per-item batch accounting folded
//     in.
//
// # Resilience
//
// Overload has two regimes. Below Config.BrownoutThreshold (a fraction of
// QueueDepth) the service rejects excess load with 429 and an adaptive
// Retry-After computed from live queue depth times a smoothed per-unit
// compute cost — the hint tracks how long the backlog actually takes to
// drain. Above the threshold, Config.DegradedPolicy may switch eligible
// requests to graceful degradation: instead of a 429 they receive a cheap
// LP-free greedy fallback plan (internal/baseline list scheduling) marked
// "degraded": true with no certificate (TStar and LowerBound zero).
// Degraded plans never enter the response cache and never register in the
// flight table — they are emergency output, not the canonical answer.
// DegradeIndependent limits fallbacks to independent-job instances, where
// greedy list scheduling is a principled approximation; DegradeAll extends
// them to precedence-constrained instances whose fallback ignores chain
// order (openly uncertified); DegradeNever keeps pure rejection.
//
// Requests may carry DeadlineMS, a client-side give-up hint. The deadline
// becomes a per-request context deadline, and the computation it admitted
// checks for abandonment at checkpoints (while queued for a worker slot,
// before an LP solve, between Monte Carlo chunks). A computation every
// waiter has abandoned stops early and refunds its queue charge — unless
// other callers coalesced onto it, in which case it runs to completion for
// them. A started LP solve always finishes and caches: solves are the
// expensive indivisible unit, so their work is never thrown away.
//
// Config.ComputeHook is the fault-injection seam: the planner calls it at
// every compute checkpoint, and internal/faults supplies hooks that stall,
// error, or panic at seeded-deterministic rates. Panics — injected or real
// — are isolated per computation and surface as errors to every waiter,
// never as a crashed process.
//
// Lifecycle: /readyz is distinct from /healthz. It reports 503 until
// Planner.Warmup() has pushed one tiny plan through the full stack, and
// flips back to 503 the moment BeginDrain() or Close() starts shutdown —
// before the listener closes — so load balancers stop routing while
// in-flight requests drain. Every accepted request reaches a terminal
// response during drain; Close waits for detached work.
//
// Responses handed out by the Planner are shared (cached and coalesced
// callers receive the same pointers); callers must treat them as
// immutable. The HTTP layer never mutates them — and, on hits, never
// re-serializes them either (see Wire format).
//
// # Wire format
//
// Every plan and estimate payload is served from a canonical frame: the
// compact (non-indented) json.Marshal encoding of the response struct
// with the serving flags (Cached, Coalesced) false, produced exactly once
// when the response is computed. The response LRU, the in-flight
// coalescing table, and the durable store all carry the frame next to the
// decoded struct (cachedFrame), so the same bytes flow through every
// tier:
//
//   - /v1/plan and /v1/estimate write the frame directly, splicing the
//     caller's serving flags over the constant-size "cached":false tail —
//     a cache or coalesced hit performs zero json.Marshal of the payload.
//   - /v1/plan/batch streams a hand-written envelope and copies each
//     item's pre-encoded frame verbatim; item payloads are byte-identical
//     to the canonical encoding regardless of how the item was resolved.
//   - The durable store persists the frame inside its envelope
//     (json.RawMessage, never re-marshaled), so a disk or peer hit
//     re-enters the zero-copy path with the exact bytes the original
//     computation produced.
//
// The contract this buys: payload bytes are byte-stable across the single
// endpoint, the batch endpoint, and store round-trips — byte-for-byte
// reproducible for a given instance and parameters — which makes
// responses content-addressable and proxy-cacheable. Single-plan and
// error responses carry an exact Content-Length (sized writes, no
// chunking); batch and streaming-estimate responses stream through pooled
// fixed-size buffers, so response memory cost is bounded by the buffer,
// not the batch. /metrics splits payload_bytes_served by
// encoded_cache/cold_encode and counts frames_spliced and cold_encodes;
// the encode cost is the "encode" entry of its stages map.
//
// The request side mirrors this: the HTTP handlers capture each request's
// instance as raw JSON and resolve it through a byte-keyed, 32 MiB
// decoded-instance cache (decodecache.go) — a repeated instance is
// decoded once while it stays resident, with a byte-for-byte comparison
// guarding every hit, so the cache can only change performance, never
// results.
// instance_decode_hits / instance_decode_misses in /metrics ledger it.
//
// # Observability
//
// Every request's pipeline stages — decode, queue, flight, store.mem,
// store.disk, store.peer, store.miss, solve, round, encode, degrade — are
// timed into per-stage latency histograms, whatever the trace sampling
// rate: one clock read per span, no allocation. These histograms are the
// one server-side record of stage time; /metrics' store hit/miss counters
// and cold_encodes are their sample counts. Warmup's probe solve is not a
// request and stays out.
//
// A request the HTTP layer accepts can also carry a trace context
// (internal/trace): a 128-bit ID plus the same per-stage duration/count
// aggregates for that one request. Contexts are pooled and refcounted;
// with tracing disabled (Config.TraceSample == 0 and no ring/log),
// Tracer.Begin returns nil and every trace call is a nil-check — the
// library default, and what keeps the zero-copy serving benchmarks at
// their committed allocation counts. Sampling decides only which traces
// are kept, never what the stage histograms record.
//
// Stage and trace data surface four ways, all views of one ledger:
//
//   - /metrics carries a "stages" map of per-stage latency summaries plus,
//     while tracing is on, trace counters (traced, sampled, forced,
//     ring/slow kept, log records/bytes). GET /metrics?format=prom renders
//     the identical snapshot as Prometheus text exposition (suu_ prefix,
//     counters as _total, latencies as summaries with quantile labels and
//     _sum/_count, stages as one suu_stage_seconds{stage="..."} family).
//     Because every stage is observed inside the same endpoint clock, the
//     stage _sum lines (decode excepted — it is measured in the handler,
//     before the planner's clock starts) reconcile against the endpoint
//     latency _sum within one scrape.
//   - Sampled responses carry an X-Suu-Trace header: the trace ID, the
//     serving source (cached/computed/coalesced/degraded/batch), the
//     total, and each nonzero stage as <stage>=<µs>[x<count>]. The client
//     surfaces it as Result.Trace; suuload parses it
//     (trace.ParseHeader) into a per-source server-side attribution table
//     — where server time went, split by how the request was served.
//   - /debug/traces serves a ring of recent traces and a slowest-N list
//     (filterable by op and outcome), and Config.TraceLog appends every
//     kept trace to a binary log of internal/framelog frames (trace.ReadLog
//     decodes it, tolerating torn tails) — the record half of
//     record/replay.
//   - Requests between replicas propagate the ID: peer store fetches and
//     replication fan-out stamp X-Suu-Trace-Id, so a fleet-wide search
//     for one ID finds every hop it touched.
//
// Head sampling (Config.TraceSample) decides at Begin; errors, degraded
// responses, and entries into the slowest-N list are force-kept, so the
// traces most worth reading survive any sampling rate.
package service
