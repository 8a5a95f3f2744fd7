package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

// refItemWork is the n·m product of the reference batch item (the n=64,
// m=16 cell the service benchmarks center on): one admission cost unit.
// The LP1 behind a plan has n·m+1 variables, so n·m is the natural
// first-cut proxy for expected compute cost — ROADMAP's "weigh requests,
// not count them" backpressure, seeded here for the batch path.
const refItemWork = 64 * 16

// itemCost converts an instance's size into admission cost units:
// ⌈n·m/refItemWork⌉, at least 1. A plan miss charges it against the queue
// budget, and a batch the sum over its to-be-computed items, so ten large
// instances consume the capacity of ten, not of one request.
func itemCost(ins *model.Instance) int {
	c := (ins.N*ins.M + refItemWork - 1) / refItemWork
	if c < 1 {
		c = 1
	}
	return c
}

// planCost prices a plan miss, single or batch item alike, and rejects
// one over the per-item budget as a bad request.
func (p *Planner) planCost(ins *model.Instance) (int, error) {
	c := itemCost(ins)
	if c > p.cfg.MaxItemCost {
		return c, badRequestf("item cost %d units (n=%d, m=%d) over the per-item budget %d", c, ins.N, ins.M, p.cfg.MaxItemCost)
	}
	return c, nil
}

// BatchPlanRequest asks for rounded schedules for a list of instances in
// one round trip. Items are independent: each is validated, admitted, and
// computed (or served from cache / coalesced) on its own, and one bad item
// yields a per-item error, never a failed batch.
type BatchPlanRequest struct {
	Items []PlanRequest `json:"items"`
	// DeadlineMS, when positive, turns on partial-results mode: items
	// still unfinished after the deadline report a per-item error while
	// finished items return normally. A computation the deadline strands
	// keeps running only while some other caller still wants it; work
	// nobody waits for stops at its next checkpoint instead of burning a
	// pool slot.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Batch item serving sources.
const (
	sourceCached    = "cached"    // served from the response LRU
	sourceComputed  = "computed"  // this batch led the computation
	sourceCoalesced = "coalesced" // served off shared work: an in-flight request or an intra-batch duplicate
	sourceDegraded  = "degraded"  // brownout fallback: LP-free list schedule, never cached
)

// BatchItemResult is one item's outcome. Exactly one of Plan or Error is
// set. Plan payloads are the canonical cached values — their Cached and
// Coalesced flags are always false; how the item was served is the
// envelope's Source, which (unlike the payload) depends on request order
// and cache state.
type BatchItemResult struct {
	Status string        `json:"status"` // "ok" or "error"
	Source string        `json:"source,omitempty"`
	Plan   *PlanResponse `json:"plan,omitempty"`
	Error  string        `json:"error,omitempty"`
	// frame is Plan's canonical pre-encoded payload, shared with the
	// response LRU; the HTTP layer splices it into the batch envelope
	// instead of re-marshaling Plan. Library callers read Plan and never
	// see it (unexported, invisible to encoding/json).
	frame []byte
}

// BatchPlanResponse is the per-item results plus the batch's own
// accounting: Size = OK + Errors and OK = Cached + Computed + Coalesced +
// Degraded always reconcile. CostUnits is what admission charged for the
// computed items (cache hits, rejected items, and degraded fallbacks are
// free).
type BatchPlanResponse struct {
	Size      int               `json:"size"`
	OK        int               `json:"ok"`
	Errors    int               `json:"errors"`
	Cached    int               `json:"cached"`
	Computed  int               `json:"computed"`
	Coalesced int               `json:"coalesced"`
	Degraded  int               `json:"degraded"`
	CostUnits int               `json:"cost_units"`
	Items     []BatchItemResult `json:"items"`
}

// batchGroup is one unique requestKey's worth of batch items: idxs are the
// item positions sharing the key (intra-batch duplicates dedupe here,
// before any flight registration), cost its admission charge once it
// missed the cache.
type batchGroup struct {
	key    requestKey
	idxs   []int
	cost   int
	ins    *model.Instance
	fp     sched.Fingerprint
	target float64
	class  dag.Class

	val    *cachedFrame
	err    error
	source string
}

// PlanBatch computes (or serves from cache) rounded schedules for every
// item of req. Batch-level errors are reserved for the request itself
// (malformed envelope, overload, shutdown, a gone client); anything wrong
// with an individual item — validation, an over-budget instance, a compute
// failure, a missed deadline — comes back as that item's error.
func (p *Planner) PlanBatch(ctx context.Context, req *BatchPlanRequest) (*BatchPlanResponse, error) {
	return p.planBatchServe(ctx, req, nil)
}

// planBatchServe is PlanBatch with the request's trace context; the HTTP
// layer passes its Ctx, library callers go through PlanBatch with nil.
func (p *Planner) planBatchServe(ctx context.Context, req *BatchPlanRequest, tc *trace.Ctx) (*BatchPlanResponse, error) {
	if err := p.begin(); err != nil {
		return nil, err
	}
	defer p.end()
	start := time.Now()
	resp, err := p.planBatch(ctx, req, tc)
	p.metrics.observeBatch(time.Since(start), resp, err)
	return resp, err
}

func (p *Planner) planBatch(ctx context.Context, req *BatchPlanRequest, tc *trace.Ctx) (*BatchPlanResponse, error) {
	if req == nil || len(req.Items) == 0 {
		return nil, badRequestf("batch needs at least one item")
	}
	if len(req.Items) > p.cfg.MaxBatchItems {
		return nil, badRequestf("batch of %d items over the cap %d (split the batch)", len(req.Items), p.cfg.MaxBatchItems)
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		return nil, err
	}

	items := make([]BatchItemResult, len(req.Items))

	// Validate every item and dedupe by content key: duplicate items —
	// within the batch or across different decodings of the same instance —
	// collapse onto one group before anything touches the flight table.
	groups := make(map[requestKey]*batchGroup)
	var order []*batchGroup
	for i := range req.Items {
		ins, target, class, err := p.validatePlan(&req.Items[i])
		if err != nil {
			items[i] = BatchItemResult{Status: "error", Error: err.Error()}
			continue
		}
		fp := sched.FingerprintInstance(ins)
		key := requestKey{fp: fp, kind: kindPlan, target: target}
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{key: key, ins: ins, fp: fp, target: target, class: class}
			groups[key] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
	}

	// Pass 1 — peek the cache (uncounted: if admission rejects the batch
	// below, no response is delivered and no hit may be claimed) and price
	// the remaining work. Under brownout pressure, eligible miss groups
	// take the degraded fallback here — free of admission charge, exactly
	// like the single path.
	var misses []*batchGroup
	totalCost, kept := 0, 0
	degradeNow := p.pressure() >= p.cfg.BrownoutThreshold
	for _, g := range order {
		if v, ok := p.cache.peek(g.key); ok {
			g.val, g.source = v.(*cachedFrame), sourceCached
			continue
		}
		if g.cost, g.err = p.planCost(g.ins); g.err != nil {
			continue
		}
		if degradeNow && p.degradeAllowed(g.class) {
			// Tag now, mint after admission settles: if the batch's
			// non-degradable remainder rejects below, no response is
			// delivered and no degraded serve may be counted.
			g.source = sourceDegraded
			continue
		}
		misses = append(misses, g)
		totalCost += g.cost
		if !p.degradeAllowed(g.class) {
			kept += g.cost
		}
	}

	// Admission weighs items, not requests: the batch charges the summed
	// cost of its to-be-computed items against the same queue budget a
	// single plan's cost counts against. If the line filled between the
	// pressure check and here, degrade-eligible groups take the fallback
	// and only the remainder is charged.
	degrade, err := p.admit(totalCost, kept)
	if err != nil {
		return nil, fmt.Errorf("%w (batch of %d cost units)", err, kept)
	}
	if degrade {
		keep := misses[:0]
		for _, g := range misses {
			if p.degradeAllowed(g.class) {
				g.source = sourceDegraded
			} else {
				keep = append(keep, g)
			}
		}
		misses, totalCost = keep, kept
	}

	// The batch is fully admitted; mint the degraded fallbacks tagged
	// above. Building them after admission keeps the degraded-serve
	// counter equal to fallbacks actually delivered.
	for _, g := range order {
		if g.source == sourceDegraded {
			var sv served
			sv, g.err = p.degradedServe(g.ins, g.fp, g.target, g.class, tc)
			g.val = sv.cf
		}
	}

	// The batch is admitted: now record per-item cache accounting. Misses
	// land before any coalesced counts can (the fan-out below), keeping
	// coalesced ≤ misses — and the reported hit rate ≤ 1 — within any one
	// /metrics document.
	for _, g := range order {
		switch {
		case g.source == sourceCached:
			p.cache.hits.Add(uint64(len(g.idxs)))
		case g.err == nil:
			p.cache.misses.Add(uint64(len(g.idxs)))
		}
	}

	// Fan the misses across the worker pool, one resolver per unique key,
	// coalescing against in-flight singles and other batches through the
	// one flight table. A deadline expiry is the item's error; the
	// computation then runs on only while some other caller wants it.
	dctx, cancel := withDeadlineMS(ctx, req.DeadlineMS)
	defer cancel()
	var wg sync.WaitGroup
	for _, g := range misses {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			cf, follower, shared, err := p.resolve(dctx, g.key, g.cost, nil, tc, func(abandoned <-chan struct{}, _ func(Progress)) (any, error) {
				return p.computePlan(g.ins, g.fp, g.target, g.class, abandoned, tc)
			})
			g.val, g.err, g.source = cf, err, sourceComputed
			if follower || shared {
				g.source = sourceCoalesced
			}
			if err != nil && errors.Is(err, dctx.Err()) {
				g.err = fmt.Errorf("item unfinished at the batch deadline: %w", err)
			}
		}(g)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The client is gone; the response has no reader. Each resolver
		// already left its flight: work other callers still want runs to
		// completion and lands in the cache, the rest stops at its next
		// checkpoint.
		return nil, err
	}

	resp := &BatchPlanResponse{Size: len(req.Items), CostUnits: totalCost, Items: items}
	for _, g := range order {
		if g.err != nil {
			for _, i := range g.idxs {
				items[i] = BatchItemResult{Status: "error", Error: g.err.Error()}
			}
			continue
		}
		plan := g.val.val.(*PlanResponse)
		for k, i := range g.idxs {
			src := g.source
			if src == sourceComputed && k > 0 {
				src = sourceCoalesced // intra-batch duplicate of the computed item
			}
			items[i] = BatchItemResult{Status: "ok", Source: src, Plan: plan, frame: g.val.frame}
		}
	}
	coalescedItems := 0
	for i := range items {
		switch {
		case items[i].Status == "error":
			resp.Errors++
			continue
		case items[i].Source == sourceCached:
			resp.Cached++
		case items[i].Source == sourceComputed:
			resp.Computed++
		case items[i].Source == sourceDegraded:
			resp.Degraded++
		default:
			resp.Coalesced++
			coalescedItems++
		}
		resp.OK++
	}
	// Items served off shared work (flight followers, raced-cache peeks,
	// intra-batch duplicates) recorded a miss above but recomputed
	// nothing; fold them into the shared-work bucket exactly like the
	// single path's servedOf.
	if coalescedItems > 0 {
		p.metrics.coalesced.Add(uint64(coalescedItems))
	}
	return resp, nil
}
