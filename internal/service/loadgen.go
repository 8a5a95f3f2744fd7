package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// LoadConfig describes one suuload run against a running suud.
type LoadConfig struct {
	// BaseURL is the server root, e.g. http://127.0.0.1:8650.
	BaseURL string
	// BaseURLs, when set, runs fleet mode: each arrival is offered to the
	// replicas in a per-request rotation (spreading load evenly), and the
	// retrying client fails over across them — an arrival only errors when
	// every replica refuses it. BaseURL may be empty when BaseURLs is set;
	// if both are set, BaseURL is prepended.
	BaseURLs []string
	// Mode is "open" (arrivals at Rate regardless of completions — the
	// honest way to measure a service, per the fabbench/open-vs-closed
	// literature: closed loops hide queueing delay by self-throttling) or
	// "closed" (Concurrency workers issue back-to-back).
	Mode string
	// Arrival is "poisson" (exponential inter-arrivals) or "fixed"
	// (deterministic period); open mode only.
	Arrival string
	// Rate is the open-mode offered load in requests/second.
	Rate float64
	// Concurrency is the closed-mode worker count and the open-mode
	// in-flight cap (beyond it arrivals are counted dropped, not issued —
	// the harness refuses to turn into an unbounded goroutine pile).
	Concurrency int
	// Duration bounds the issuing phase; in-flight requests then drain.
	Duration time.Duration
	// Op is "plan", "estimate", or "plan-batch".
	Op string
	// BatchSize is the mean items per plan-batch request (default 8).
	BatchSize int
	// BatchDist draws each batch's size: "fixed" (every batch is
	// BatchSize) or "uniform" (uniform on [1, 2·BatchSize−1], mean
	// BatchSize). plan-batch only.
	BatchDist string
	// ItemRate, when positive, offers load in items/second instead of
	// requests/second: the request rate becomes ItemRate / BatchSize.
	// This is how batch and single runs are compared at equal offered
	// item rate. Open-mode plan-batch only.
	ItemRate float64
	// Specs are the instances arrivals draw from (see Popularity; the
	// default cycles them round-robin). Repeats are the point: they
	// measure the server's content-addressed cache.
	Specs []workload.Spec
	// Trials for estimate ops (0 = server default).
	Trials int
	// Seed drives the arrival process.
	Seed int64
	// Timeout is the per-attempt client timeout (default 30s).
	Timeout time.Duration
	// MaxAttempts is the retrying client's total tries per request
	// (default 1: no retries — measurement runs should see raw failures;
	// chaos runs turn retries on).
	MaxAttempts int
	// Curve shapes open-mode offered load over time: "" or "constant"
	// (stationary at Rate), "constant:<rps>", "linstep:<from>:<to>:<ramp>"
	// (linear ramp then hold), or "switching:<hi>:<lo>:<period>" (square
	// wave). The dispatcher inverts the curve's cumulative rate, so the
	// offered count over the run matches the curve's integral exactly.
	Curve string
	// Popularity picks which pre-built body each arrival requests: "" or
	// "roundrobin" (cycle, the historical behavior), or "zipf:<s>" over
	// the body pool with index 0 hottest. Seeded from Seed.
	Popularity string
	// RecordPath, when set, appends one framed binary record per issued
	// request (issue time, op, body index, batch size, latency, outcome,
	// serving source) plus a header that lets a replay rebuild the
	// identical bodies from the file alone.
	RecordPath string
	// ReplayPath re-issues a recorded trace: the op, spec catalog, batch
	// shape, and seed come from the recording's header, and arrivals
	// follow the recorded schedule scaled by ReplaySpeed. Mode, Arrival,
	// Rate, Curve, Popularity, Specs, and Duration are ignored.
	ReplayPath string
	// ReplaySpeed scales the replayed schedule (2 = twice as fast;
	// 0 means 1).
	ReplaySpeed float64
}

// LoadReport is the measured outcome. Latencies are seconds and are
// per-request — for plan-batch, per batch. Item accounting reconciles by
// construction: ItemsIssued counts the items of every request actually
// sent, and each of those items ends in ItemsDone or ItemsErrors (a
// request-level failure counts all its items as errors; a 200 batch
// splits its items by per-item status). For single-item ops the item
// fields mirror the request fields, so single and batch runs compare
// directly at the item level.
type LoadReport struct {
	Mode            string  `json:"mode"`
	Op              string  `json:"op"`
	Arrival         string  `json:"arrival,omitempty"`
	Curve           string  `json:"curve,omitempty"`
	Popularity      string  `json:"popularity,omitempty"`
	OfferedRate     float64 `json:"offered_rate_rps,omitempty"`
	OfferedItemRate float64 `json:"offered_item_rate_rps,omitempty"`
	BatchSize       int     `json:"batch_size,omitempty"`
	BatchDist       string  `json:"batch_dist,omitempty"`
	// DurationS is the issuing window — run start to the last arrival
	// offered — and DrainS is the extra time spent waiting for in-flight
	// requests to finish. Throughput, ItemThroughput, and BytesPerSec
	// divide by the issuing window only: dividing by window+drain (the
	// old behavior) let one slow straggler deflate every reported rate.
	DurationS      float64 `json:"duration_s"`
	DrainS         float64 `json:"drain_s"`
	Issued         uint64  `json:"issued"` // requests actually sent; Issued = Done + Errors after the drain
	Done           uint64  `json:"done"`
	Errors         uint64  `json:"errors"`
	Rejected       uint64  `json:"rejected"` // server 429s, a subset of Errors
	Dropped        uint64  `json:"dropped"`  // open-mode arrivals over the in-flight cap, never issued
	ItemsIssued    uint64  `json:"items_issued"`
	ItemsDone      uint64  `json:"items_done"`
	ItemsErrors    uint64  `json:"items_errors"`
	Throughput     float64 `json:"throughput_rps"`
	ItemThroughput float64 `json:"item_throughput_rps"`
	// Wire-cost ledger: BytesRead sums every response body the harness
	// read (and discarded), across successes and failures alike, and
	// BytesPerSec normalizes it over the run — items/s can stay flat while
	// a serving change silently doubles payload bytes, so the wire cost is
	// reported next to the item throughput it pays for.
	BytesRead   uint64  `json:"bytes_read"`
	BytesPerSec float64 `json:"bytes_rps"`
	// Resilience ledger. Degraded splits Done (and ItemsDegraded splits
	// ItemsDone): those requests succeeded but carried the brownout
	// fallback. InjectedErrors and OrganicServerErrors split the 5xx part
	// of Errors by the X-Suu-Injected response header — the only injected
	// marker; an organic failure whose message happens to contain the word
	// "injected" counts as organic. A chaos run asserts the organic half
	// is zero. Retries/ConnErrors/BreakerOpens come off the retrying
	// client.
	Degraded            uint64 `json:"degraded"`
	ItemsDegraded       uint64 `json:"items_degraded"`
	InjectedErrors      uint64 `json:"injected_errors"`
	OrganicServerErrors uint64 `json:"organic_5xx"`
	Retries             uint64 `json:"retries"`
	ConnErrors          uint64 `json:"conn_errors"`
	BreakerOpens        uint64 `json:"breaker_opens"`
	// Record/replay ledger: Recorded counts trace records written (one
	// per issued request), RecordErrors counts swallowed write failures,
	// and ReplaySpeed is the schedule scale of a replay run.
	Recorded     uint64  `json:"recorded,omitempty"`
	RecordErrors uint64  `json:"record_errors,omitempty"`
	ReplaySpeed  float64 `json:"replay_speed,omitempty"`

	LatMean       float64          `json:"lat_mean_s"`
	LatP50        float64          `json:"lat_p50_s"`
	LatP95        float64          `json:"lat_p95_s"`
	LatP99        float64          `json:"lat_p99_s"`
	LatMax        float64          `json:"lat_max_s"`
	ServerMetrics *MetricsSnapshot `json:"server_metrics,omitempty"`

	// Fleet mode: one post-run snapshot per replica (nil slot for an
	// unreachable replica — a killed one stays in the ledger), and the
	// fleet-wide effectiveness numbers. FleetHitRate counts every request
	// answered without a fresh computation anywhere — LRU hits, coalesced
	// flights, and store tiers — over all lookups; FleetStoreHits is the
	// disk+peer share of that; FleetPlansComputed is the total number of
	// plans any replica actually computed, the denominator of the "how much
	// work did replication save" question.
	Fleet              []*MetricsSnapshot `json:"fleet,omitempty"`
	FleetHitRate       float64            `json:"fleet_hit_rate,omitempty"`
	FleetStoreHits     uint64             `json:"fleet_store_hits,omitempty"`
	FleetPlansComputed uint64             `json:"fleet_plans_computed,omitempty"`

	// Server-side attribution, parsed from the X-Suu-Trace headers of
	// traced responses (run suud with -trace-sample 1 for full coverage).
	// TracedBySource counts traced responses per serving source (cached /
	// computed / coalesced / degraded / batch); ServerStageSeconds breaks
	// the server's time down as source → stage → total seconds, and
	// ServerTotalSeconds is each source's total server-side time — the
	// difference between client latency and these is the network plus
	// client-side cost, now measurable per source instead of guessed.
	TracedResponses    uint64                        `json:"traced_responses,omitempty"`
	TracedBySource     map[string]uint64             `json:"traced_by_source,omitempty"`
	ServerStageSeconds map[string]map[string]float64 `json:"server_stage_seconds,omitempty"`
	ServerTotalSeconds map[string]float64            `json:"server_total_seconds,omitempty"`
	// ServerVersion is the target's /version document (first replica),
	// so every saved report names the build it measured.
	ServerVersion *VersionInfo `json:"server_version,omitempty"`

	// Latencies is the merged histogram backing the quantiles above.
	Latencies *stats.Histogram `json:"-"`
}

// loadSources is the serving-source vocabulary the attribution tables are
// keyed by, in display order.
var loadSources = [nLoadSources]string{"cached", "computed", "coalesced", "degraded", "batch"}

const nLoadSources = 5

func loadSourceIndex(src string) int {
	for i, s := range loadSources {
		if s == src {
			return i
		}
	}
	return -1
}

// loadWorkerState is one issuing goroutine's recorder; kept per-worker so
// the hot path never contends, merged into the report at the end.
type loadWorkerState struct {
	hist *stats.Histogram
	// Per-source server-side attribution in microseconds, accumulated
	// from parsed X-Suu-Trace headers.
	traced  [nLoadSources]uint64
	stageUS [nLoadSources][trace.NumStages]int64
	totalUS [nLoadSources]int64
}

// observeTrace folds one parsed trace summary into the worker ledger.
func (ws *loadWorkerState) observeTrace(sum trace.Summary) {
	si := loadSourceIndex(sum.Source)
	if si < 0 {
		return
	}
	ws.traced[si]++
	ws.totalUS[si] += sum.TotalUS
	for st := 0; st < trace.NumStages; st++ {
		ws.stageUS[si][st] += sum.DurUS[st]
	}
}

// rotationOf picks the preferred-replica rotation for one arrival. Every
// block of n consecutive arrivals covers each replica exactly once (the
// even spread fleet warmth comparisons rely on), but the block's phase is
// a SplitMix64 hash of the block number, so the choice is decorrelated
// from any periodic body sequence. Deriving the rotation from the body
// index (the old behavior) pinned each spec to one replica whenever the
// body count was a multiple of the replica count — round-robin over 8
// specs against 2 replicas sent every even spec to replica 0, silently
// doubling the apparent per-replica cache hit rate.
func rotationOf(arrival uint64, seed int64, n int) int {
	if n <= 1 {
		return 0
	}
	x := rng.Mix64(arrival/uint64(n) + uint64(seed) + rng.Golden)
	return int((arrival + x) % uint64(n))
}

// RunLoad drives the configured load and reports. The context cancels the
// run early (in-flight requests still drain).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	bases := make([]string, 0, 1+len(cfg.BaseURLs))
	if cfg.BaseURL != "" {
		bases = append(bases, cfg.BaseURL)
	}
	bases = append(bases, cfg.BaseURLs...)
	if len(bases) == 0 {
		return nil, fmt.Errorf("service: load needs a base URL")
	}
	var replay *traffic.Trace
	if cfg.ReplayPath != "" {
		if cfg.RecordPath == cfg.ReplayPath {
			return nil, fmt.Errorf("service: record and replay cannot share a path")
		}
		tr, err := traffic.OpenTrace(cfg.ReplayPath)
		if err != nil {
			return nil, err
		}
		if len(tr.Requests) == 0 {
			return nil, fmt.Errorf("service: replay trace %s has no requests", cfg.ReplayPath)
		}
		if cfg.ReplaySpeed == 0 {
			cfg.ReplaySpeed = 1
		}
		if !(cfg.ReplaySpeed > 0) || math.IsInf(cfg.ReplaySpeed, 1) {
			return nil, fmt.Errorf("service: replay speed %g (want finite > 0)", cfg.ReplaySpeed)
		}
		// The recording's header rebuilds the exact bodies the trace
		// indexes into; the caller's shape flags do not apply. Duration
		// becomes the recording's own issuing window, scaled — the
		// caller's context still cancels a replay early.
		h := tr.Header
		cfg.Mode, cfg.Arrival, cfg.Curve, cfg.Popularity = "open", "replay", "", ""
		cfg.Op, cfg.Specs, cfg.Seed = h.Op, h.Specs, h.Seed
		cfg.BatchSize, cfg.BatchDist, cfg.Rate, cfg.ItemRate = h.BatchSize, h.BatchDist, 0, 0
		cfg.Duration = time.Duration(float64(tr.Duration())/cfg.ReplaySpeed) + time.Second
		replay = tr
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("service: load needs at least one instance spec")
	}
	if cfg.Mode == "" {
		cfg.Mode = "open"
	}
	if cfg.Mode != "open" && cfg.Mode != "closed" {
		return nil, fmt.Errorf("service: load mode %q (want open or closed)", cfg.Mode)
	}
	if replay == nil {
		if cfg.Arrival == "" {
			cfg.Arrival = "poisson"
		}
		if cfg.Arrival != "poisson" && cfg.Arrival != "fixed" {
			return nil, fmt.Errorf("service: arrival %q (want poisson or fixed)", cfg.Arrival)
		}
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Op == "" {
		cfg.Op = "plan"
	}
	if cfg.Op != "plan" && cfg.Op != "estimate" && cfg.Op != "plan-batch" {
		return nil, fmt.Errorf("service: op %q (want plan, estimate, or plan-batch)", cfg.Op)
	}
	if cfg.Op == "plan-batch" {
		if cfg.BatchSize <= 0 {
			cfg.BatchSize = 8
		}
		if cfg.BatchDist == "" {
			cfg.BatchDist = "fixed"
		}
		if cfg.BatchDist != "fixed" && cfg.BatchDist != "uniform" {
			return nil, fmt.Errorf("service: batch dist %q (want fixed or uniform)", cfg.BatchDist)
		}
		if cfg.ItemRate > 0 {
			if cfg.Mode != "open" {
				return nil, fmt.Errorf("service: item-rate pacing needs open mode")
			}
			// Offer items, not requests: both distributions have mean
			// BatchSize, so this hits the configured item rate in
			// expectation.
			cfg.Rate = cfg.ItemRate / float64(cfg.BatchSize)
		}
	} else if cfg.BatchSize > 0 || cfg.BatchDist != "" || cfg.ItemRate > 0 {
		return nil, fmt.Errorf("service: batch options need op plan-batch, got %q", cfg.Op)
	}
	// The rate curve subsumes the old "open mode needs rate > 0" check:
	// the default curve is constant at cfg.Rate and ParseCurve rejects a
	// nonpositive rate. A constant spelled as "constant:<rps>" overrides
	// cfg.Rate so the offered-rate report stays truthful.
	var curve traffic.RateCurve
	if replay == nil {
		switch {
		case cfg.Mode == "open":
			c, err := traffic.ParseCurve(cfg.Curve, cfg.Rate)
			if err != nil {
				return nil, err
			}
			if cv, ok := c.(traffic.Constant); ok {
				cfg.Rate = cv.RPS
			} else if cfg.ItemRate > 0 {
				return nil, fmt.Errorf("service: item-rate pacing needs a constant curve, got %q", cfg.Curve)
			}
			curve = c
		case cfg.Curve != "" && cfg.Curve != "constant":
			return nil, fmt.Errorf("service: rate curve %q needs open mode", cfg.Curve)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}

	// Pre-generate and pre-marshal every request body: the harness must
	// not spend its issuing budget on instance generation or JSON
	// encoding, or measured latency drifts with client cost.
	instances := make([]*PlanRequest, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		ins, err := workload.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("service: generating spec %d: %w", i, err)
		}
		instances[i] = &PlanRequest{Instance: ins}
	}
	var path string
	var bodies [][]byte
	var bodyItems []uint64 // items per body, parallel to bodies
	{
		var err error
		switch cfg.Op {
		case "plan":
			path = "/v1/plan"
			bodies = make([][]byte, len(instances))
			for i, req := range instances {
				if bodies[i], err = json.Marshal(req); err != nil {
					return nil, fmt.Errorf("service: marshaling spec %d: %w", i, err)
				}
			}
		case "estimate":
			path = "/v1/estimate"
			bodies = make([][]byte, len(instances))
			for i, req := range instances {
				er := &EstimateRequest{Instance: req.Instance, Trials: cfg.Trials, Seed: 1}
				if bodies[i], err = json.Marshal(er); err != nil {
					return nil, fmt.Errorf("service: marshaling spec %d: %w", i, err)
				}
			}
		case "plan-batch":
			// A pool of pre-built batches: sizes drawn from the configured
			// distribution, items cycling the specs round-robin across
			// bodies so every spec appears regardless of batch boundaries.
			path = "/v1/plan/batch"
			nBodies := 4 * len(instances)
			if nBodies < 32 {
				nBodies = 32
			}
			bodies = make([][]byte, nBodies)
			bodyItems = make([]uint64, nBodies)
			sizeSrc := rng.New(cfg.Seed + 0xba7c)
			next := 0
			lastSize := 0
			for b := range bodies {
				size := cfg.BatchSize
				if cfg.BatchDist == "uniform" {
					// Antithetic pairs: body 2k draws uniform[1, 2B−1],
					// body 2k+1 takes its mirror 2B−draw, so the pool's
					// mean size is exactly BatchSize and the reported
					// offered item rate (request rate × BatchSize) is the
					// rate actually offered, not off by the pool's
					// sampling error. nBodies is even (a multiple of 4).
					if b%2 == 0 {
						size = 1 + int(sizeSrc.Uint64()%uint64(2*cfg.BatchSize-1))
						lastSize = size
					} else {
						size = 2*cfg.BatchSize - lastSize
					}
				}
				items := make([]PlanRequest, size)
				for k := range items {
					items[k] = *instances[next%len(instances)]
					next++
				}
				if bodies[b], err = json.Marshal(&BatchPlanRequest{Items: items}); err != nil {
					return nil, fmt.Errorf("service: marshaling batch body %d: %w", b, err)
				}
				bodyItems[b] = uint64(size)
			}
		}
	}
	// Popularity draws over the pre-built body pool (for plan-batch, over
	// batches rather than specs — the batch bodies already cycle every
	// spec). Replay has no distribution to draw: the trace is the draw.
	var pop traffic.Popularity
	if replay == nil {
		p, err := traffic.ParsePopularity(cfg.Popularity, len(bodies), cfg.Seed+0x909)
		if err != nil {
			return nil, err
		}
		pop = p
	}
	var recorder *traffic.Recorder
	if cfg.RecordPath != "" {
		hdr := traffic.Header{
			Op:          cfg.Op,
			Specs:       cfg.Specs,
			BatchSize:   cfg.BatchSize,
			BatchDist:   cfg.BatchDist,
			Seed:        cfg.Seed,
			StartUnixNS: time.Now().UnixNano(),
		}
		switch {
		case replay != nil:
			// Label a re-recorded replay by its provenance; the schedule
			// in the records is what a future replay uses, so the curve
			// string is documentation, not configuration.
			hdr.Curve = fmt.Sprintf("replay:%gx:%s", cfg.ReplaySpeed, replay.Header.Curve)
			hdr.Popularity = replay.Header.Popularity
		case curve != nil:
			hdr.Curve = curve.String()
			hdr.Popularity = pop.String()
		default:
			hdr.Popularity = pop.String()
		}
		rec, err := traffic.Create(cfg.RecordPath, hdr)
		if err != nil {
			return nil, err
		}
		recorder = rec
	}
	// Fleet mode pre-builds every rotation of the replica URL list:
	// each arrival prefers one replica (see rotationOf) but hands the
	// retrying client the whole ring, so failover costs an attempt, not an
	// error. Precomputing keeps the per-arrival hot path allocation-free.
	urls := make([]string, len(bases))
	for i, b := range bases {
		urls[i] = b + path
	}
	rotations := make([][]string, len(urls))
	for r := range rotations {
		rot := make([]string, len(urls))
		for i := range urls {
			rot[i] = urls[(r+i)%len(urls)]
		}
		rotations[r] = rot
	}

	transport := &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
	}
	// FetchMetrics and other plain GETs share the pooled transport.
	plainClient := &http.Client{Timeout: cfg.Timeout, Transport: transport}
	suu := client.New(client.Config{
		MaxAttempts:    cfg.MaxAttempts,
		AttemptTimeout: cfg.Timeout,
		Seed:           cfg.Seed + 0xc11e,
		Transport:      transport,
	})

	var issued, done, errs, rejected, dropped atomic.Uint64
	var itemsIssued, itemsDone, itemsErr, bytesRead atomic.Uint64
	var degraded, itemsDegraded, injectedErrs, organic5xx atomic.Uint64
	workers := make([]loadWorkerState, cfg.Concurrency)
	for i := range workers {
		workers[i].hist = stats.NewLatencyHistogram()
	}

	batchOp := cfg.Op == "plan-batch"
	// rel is the arrival's scheduled offset from run start — computed by
	// the dispatcher, not measured in the worker, so the recorded
	// schedule is strictly ordered and free of dispatch jitter: a replay
	// of a recording re-issues the exact same sequence.
	issue := func(ws *loadWorkerState, arrival uint64, idx int, rel time.Duration) {
		items := uint64(1)
		if batchOp {
			items = bodyItems[idx]
		}
		itemsIssued.Add(items)
		start := time.Now()
		res, err := suu.DoAny(ctx, rotations[rotationOf(arrival, cfg.Seed, len(rotations))], bodies[idx])
		latD := time.Since(start)
		lat := latD.Seconds()
		outcome, source := "ok", ""
		if recorder != nil {
			defer func() {
				recorder.Append(&traffic.Request{
					Rel:     rel,
					Latency: latD,
					Op:      cfg.Op,
					Outcome: outcome,
					Source:  source,
					Spec:    uint32(idx),
					Items:   uint32(items),
				})
			}()
		}
		if err != nil {
			// No response at all: every attempt died on the wire (or the
			// breaker was open). The client's own ledger has the split.
			errs.Add(1)
			itemsErr.Add(items)
			outcome = "error"
			return
		}
		bytesRead.Add(uint64(len(res.Body)))
		if res.Status != http.StatusOK {
			errs.Add(1)
			itemsErr.Add(items) // a failed request delivered none of its items
			outcome = "error"
			switch {
			case res.Status == http.StatusTooManyRequests:
				rejected.Add(1)
				outcome = "rejected"
			case res.Status >= 500:
				// Ledger injected separately from organic, on the
				// X-Suu-Injected header alone: injected faults must
				// announce themselves in-band, and matching on body text
				// misfiled any organic failure whose message happened to
				// contain the word "injected".
				if res.Injected {
					injectedErrs.Add(1)
				} else {
					organic5xx.Add(1)
				}
			}
			return
		}
		if res.Trace != "" {
			if sum, ok := trace.ParseHeader(res.Trace); ok {
				source = sum.Source
				ws.observeTrace(sum)
			}
		}
		if batchOp {
			// Split the batch's items by the per-item statuses the
			// envelope summarizes; ok + errors = size, so the item ledger
			// reconciles exactly like the request ledger.
			var sum struct {
				OK       uint64 `json:"ok"`
				Errors   uint64 `json:"errors"`
				Degraded uint64 `json:"degraded"`
			}
			if derr := json.Unmarshal(res.Body, &sum); derr != nil {
				errs.Add(1)
				itemsErr.Add(items)
				outcome = "error"
				return
			}
			itemsDone.Add(sum.OK)
			itemsErr.Add(sum.Errors)
			if sum.Degraded > 0 {
				degraded.Add(1)
				itemsDegraded.Add(sum.Degraded)
			}
		} else {
			itemsDone.Add(1)
			if cfg.Op == "plan" {
				var pr struct {
					Degraded bool `json:"degraded"`
				}
				if json.Unmarshal(res.Body, &pr) == nil && pr.Degraded {
					degraded.Add(1)
					itemsDegraded.Add(1)
				}
			}
		}
		ws.hist.Observe(lat)
		done.Add(1)
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var issuingS float64
	startWall := time.Now()

	if cfg.Mode == "closed" {
		var wg sync.WaitGroup
		var arrivals atomic.Uint64
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ws := &workers[w]
				for runCtx.Err() == nil {
					a := arrivals.Add(1) - 1
					issued.Add(1)
					issue(ws, a, pop.Next(), time.Since(startWall))
				}
			}(w)
		}
		<-runCtx.Done()
		issuingS = time.Since(startWall).Seconds()
		wg.Wait()
	} else {
		// Open loop: a dispatcher paces arrivals from the configured
		// process; each arrival grabs a free worker slot or is dropped.
		slots := make(chan int, cfg.Concurrency)
		for w := 0; w < cfg.Concurrency; w++ {
			slots <- w
		}
		src := rng.New(cfg.Seed + 0x10ad)
		units := func() float64 {
			if cfg.Arrival == "fixed" {
				return 1
			}
			// Exp(1) draw via inverse CDF; the SplitMix draw is uniform
			// in [0,1). Pushed through the curve's cumulative rate this
			// is the time-change construction of an inhomogeneous
			// Poisson process.
			u := float64(src.Uint64()>>11) / (1 << 53)
			return -math.Log(1 - u)
		}
		// Arrivals follow an absolute-deadline schedule (fire arrival a
		// at start + curve⁻¹(Σ units), or at its recorded offset for
		// replay), not timer-chaining: resetting a timer after each fire
		// would add per-arrival dispatch latency to every gap and
		// systematically under-offer the configured shape. A late wakeup
		// fires immediately and catches up.
		var wg sync.WaitGroup
		virtual := time.Duration(0)
		timer := time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	dispatch:
		for a := uint64(0); ; a++ {
			var idx int
			var rel time.Duration
			if replay != nil {
				if a >= uint64(len(replay.Requests)) {
					break dispatch
				}
				r := &replay.Requests[a]
				if int(r.Spec) >= len(bodies) {
					// A record pointing outside the body pool its own
					// header defines: corrupt or hand-edited. Skip it —
					// it was never issuable.
					dropped.Add(1)
					continue
				}
				idx = int(r.Spec)
				rel = time.Duration(float64(r.Rel) / cfg.ReplaySpeed)
			} else {
				virtual = curve.Advance(virtual, units())
				idx = pop.Next()
				rel = virtual
			}
			wait := time.Until(startWall.Add(rel))
			if wait < 0 {
				wait = 0
			}
			timer.Reset(wait)
			select {
			case <-runCtx.Done():
				break dispatch
			case <-timer.C:
				select {
				case w := <-slots:
					// Count issued only once a slot is held: dropped
					// arrivals never reach the server, and keeping them
					// out of issued lets Issued = Done + Errors reconcile
					// after the drain.
					issued.Add(1)
					wg.Add(1)
					go func(w int, a uint64, idx int, rel time.Duration) {
						defer wg.Done()
						issue(&workers[w], a, idx, rel)
						slots <- w
					}(w, a, idx, rel)
				default:
					dropped.Add(1)
				}
			}
		}
		issuingS = time.Since(startWall).Seconds()
		wg.Wait()
	}
	totalS := time.Since(startWall).Seconds()

	merged := stats.NewLatencyHistogram()
	var traced [nLoadSources]uint64
	var stageUS [nLoadSources][trace.NumStages]int64
	var totalUS [nLoadSources]int64
	for i := range workers {
		if err := merged.Merge(workers[i].hist); err != nil {
			return nil, err
		}
		for si := range loadSources {
			traced[si] += workers[i].traced[si]
			totalUS[si] += workers[i].totalUS[si]
			for st := 0; st < trace.NumStages; st++ {
				stageUS[si][st] += workers[i].stageUS[si][st]
			}
		}
	}
	cm := suu.Snapshot()
	rep := &LoadReport{
		Mode:                cfg.Mode,
		Op:                  cfg.Op,
		DurationS:           issuingS,
		DrainS:              totalS - issuingS,
		Issued:              issued.Load(),
		Done:                done.Load(),
		Errors:              errs.Load(),
		Rejected:            rejected.Load(),
		Dropped:             dropped.Load(),
		ItemsIssued:         itemsIssued.Load(),
		ItemsDone:           itemsDone.Load(),
		ItemsErrors:         itemsErr.Load(),
		Degraded:            degraded.Load(),
		ItemsDegraded:       itemsDegraded.Load(),
		InjectedErrors:      injectedErrs.Load(),
		OrganicServerErrors: organic5xx.Load(),
		Retries:             cm.Retries,
		ConnErrors:          cm.ConnErrors,
		BreakerOpens:        cm.BreakerOpens,
		Throughput:          float64(done.Load()) / issuingS,
		ItemThroughput:      float64(itemsDone.Load()) / issuingS,
		BytesRead:           bytesRead.Load(),
		BytesPerSec:         float64(bytesRead.Load()) / issuingS,
		Latencies:           merged,
	}
	if recorder != nil {
		recs, recErrs := recorder.Stats()
		if err := recorder.Close(); err != nil {
			recErrs++
		}
		rep.Recorded = recs
		rep.RecordErrors = recErrs
	}
	if batchOp {
		rep.BatchSize = cfg.BatchSize
		rep.BatchDist = cfg.BatchDist
	}
	if cfg.Mode == "open" {
		rep.Arrival = cfg.Arrival
		if replay != nil {
			rep.ReplaySpeed = cfg.ReplaySpeed
			rep.Curve = replay.Header.Curve
			rep.Popularity = replay.Header.Popularity
			if issuingS > 0 {
				// A replay's offered rate is whatever the recording
				// offered, scaled: measured, not configured.
				rep.OfferedRate = float64(issued.Load()+dropped.Load()) / issuingS
			}
		} else {
			rep.Curve = curve.String()
			rep.Popularity = pop.String()
			// The mean of r(t) over the window, so shaped curves report
			// the rate they actually offered instead of a flag value.
			rep.OfferedRate = traffic.Integral(curve, cfg.Duration) / cfg.Duration.Seconds()
		}
		rep.OfferedItemRate = rep.OfferedRate
		if batchOp {
			rep.OfferedItemRate = rep.OfferedRate * float64(cfg.BatchSize)
		}
	} else {
		rep.Popularity = pop.String()
	}
	for si, src := range loadSources {
		if traced[si] == 0 {
			continue
		}
		rep.TracedResponses += traced[si]
		if rep.TracedBySource == nil {
			rep.TracedBySource = make(map[string]uint64)
			rep.ServerStageSeconds = make(map[string]map[string]float64)
			rep.ServerTotalSeconds = make(map[string]float64)
		}
		rep.TracedBySource[src] = traced[si]
		rep.ServerTotalSeconds[src] = float64(totalUS[si]) / 1e6
		stages := make(map[string]float64)
		for st := 0; st < trace.NumStages; st++ {
			if stageUS[si][st] > 0 {
				stages[trace.Stage(st).String()] = float64(stageUS[si][st]) / 1e6
			}
		}
		rep.ServerStageSeconds[src] = stages
	}
	if merged.N() > 0 {
		rep.LatMean = merged.Mean()
		rep.LatP50 = merged.Quantile(0.50)
		rep.LatP95 = merged.Quantile(0.95)
		rep.LatP99 = merged.Quantile(0.99)
		rep.LatMax = merged.Max()
	}
	// Best-effort server-side view (hit rate, in-flight peaks) to pair
	// with the client-side latencies. ServerMetrics stays the first
	// replica's snapshot so single-replica consumers read the same field
	// they always did; fleet mode adds the per-replica list and the
	// fleet-wide aggregates on top.
	if snap, err := FetchMetrics(ctx, plainClient, bases[0]); err == nil {
		rep.ServerMetrics = snap
	}
	if vi, err := FetchVersion(ctx, plainClient, bases[0]); err == nil {
		rep.ServerVersion = vi
	}
	if len(bases) > 1 {
		rep.Fleet = make([]*MetricsSnapshot, len(bases))
		var lookups, notComputed uint64
		for i, b := range bases {
			snap, err := FetchMetrics(ctx, plainClient, b)
			if err != nil {
				continue // replica down (maybe on purpose); nil marks it
			}
			rep.Fleet[i] = snap
			lookups += snap.CacheHits + snap.CacheMisses
			notComputed += snap.CacheHits + snap.Coalesced + snap.StoreDiskHits + snap.StorePeerHits
			rep.FleetStoreHits += snap.StoreDiskHits + snap.StorePeerHits
			rep.FleetPlansComputed += snap.PlansComputed
		}
		if lookups > 0 {
			rep.FleetHitRate = float64(notComputed) / float64(lookups)
		}
	}
	return rep, nil
}

// FetchVersion GETs and decodes /version.
func FetchVersion(ctx context.Context, client *http.Client, baseURL string) (*VersionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/version", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: /version status %d", resp.StatusCode)
	}
	var vi VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&vi); err != nil {
		return nil, err
	}
	return &vi, nil
}

// FetchMetrics GETs and decodes /metrics.
func FetchMetrics(ctx context.Context, client *http.Client, baseURL string) (*MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: /metrics status %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
