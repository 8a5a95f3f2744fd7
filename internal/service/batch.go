package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/model"
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
func (p *Planner) planBatchServe(ctx context.Context, req *BatchPlanRequest, tc *trace.Ctx) (resp *BatchPlanResponse, err error) {
	err = p.serve(kindBatch, func() (*BatchPlanResponse, error) {
		resp, err = p.planBatch(ctx, req, tc)
		return resp, err
	})
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

	// Validate every item and dedupe by content key: duplicate items —
	// within the batch or across different decodings of the same instance —
	// collapse onto one group before anything touches the flight table.
	// of maps each item to its group, or to -1 when it failed validation.
	items := make([]BatchItemResult, len(req.Items))
	of := make([]int, len(req.Items))
	gs := make([]group, 0, len(req.Items))
	index := make(map[requestKey]int)
	for i := range req.Items {
		g, err := p.planGroup(&req.Items[i])
		if err != nil {
			items[i] = BatchItemResult{Status: "error", Error: err.Error()}
			of[i] = -1
			continue
		}
		k, ok := index[g.key]
		if ok {
			gs[k].n++
		} else {
			k = len(gs)
			index[g.key] = k
			gs = append(gs, g)
		}
		of[i] = k
	}

	// A deadline expiry is an item's error; the computation then runs on
	// only while some other caller wants it.
	dctx, cancel := withDeadlineMS(ctx, req.DeadlineMS)
	defer cancel()
	units, err := p.serveGroups(dctx, gs, tc)
	if err != nil {
		return nil, fmt.Errorf("%w (batch of %d cost units)", err, units)
	}
	if err := ctx.Err(); err != nil {
		// The client is gone; the response has no reader. Each resolver
		// already left its flight: work other callers still want runs to
		// completion and lands in the cache, the rest stops at its next
		// checkpoint.
		return nil, err
	}

	resp := &BatchPlanResponse{Size: len(req.Items), CostUnits: units, Items: items}
	for i, k := range of {
		if k < 0 {
			resp.Errors++
			continue
		}
		g := &gs[k]
		if err := g.err; err != nil {
			if errors.Is(err, dctx.Err()) {
				err = fmt.Errorf("item unfinished at the batch deadline: %w", err)
			}
			items[i] = BatchItemResult{Status: "error", Error: err.Error()}
			resp.Errors++
			continue
		}
		items[i] = BatchItemResult{Status: "ok", Source: g.source, Plan: g.cf.val.(*PlanResponse), frame: g.cf.frame}
		resp.OK++
		switch g.source {
		case sourceCached:
			resp.Cached++
		case sourceComputed:
			resp.Computed++
			g.source = sourceCoalesced // later items are intra-batch duplicates
		case sourceDegraded:
			resp.Degraded++
		default:
			resp.Coalesced++
		}
	}
	return resp, nil
}
