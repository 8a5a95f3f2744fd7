package service

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sched"
)

// canonicalPlanJSON marshals a plan response with its serving-source flags
// cleared: the canonical payload batch items carry, and the form in which
// single and batch responses are comparable regardless of cache state.
func canonicalPlanJSON(t *testing.T, resp *PlanResponse) string {
	t.Helper()
	if resp == nil {
		t.Fatal("nil plan response")
	}
	c := *resp
	c.Cached, c.Coalesced = false, false
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// jsonClone decodes a fresh copy of an instance-bearing request, so batch
// items share content but not pointers with their originals — the service
// must dedupe by fingerprint, never by pointer.
func jsonClone(t *testing.T, req *PlanRequest) PlanRequest {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out PlanRequest
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchMixedItems drives one batch through every per-item path at
// once: a fresh compute, an intra-batch duplicate (by content, not
// pointer), a pre-cached item, a missing instance, and an unsupported
// class — and checks the per-item results, the summary reconciliation,
// and payload equality with the single endpoint.
func TestBatchMixedItems(t *testing.T) {
	p := smallPlanner(nil)
	ctx := context.Background()

	fresh := testInstance(t, "uniform", 4, 8, 1)
	warm := testInstance(t, "uniform", 4, 8, 2)
	forest := testInstance(t, "forest", 3, 10, 3)
	warmResp, err := p.Plan(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}

	req := &BatchPlanRequest{Items: []PlanRequest{
		*fresh,
		jsonClone(t, fresh), // duplicate content, distinct pointers
		jsonClone(t, warm),
		{}, // missing instance
		*forest,
	}}
	resp, err := p.PlanBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Size != 5 || resp.OK != 3 || resp.Errors != 2 {
		t.Fatalf("summary: %+v", resp)
	}
	if resp.Cached != 1 || resp.Computed != 1 || resp.Coalesced != 1 {
		t.Fatalf("sources: %+v", resp)
	}
	if resp.CostUnits != 1 { // one small computed group
		t.Fatalf("cost units = %d", resp.CostUnits)
	}

	wantSources := []string{sourceComputed, sourceCoalesced, sourceCached, "", ""}
	for i, it := range resp.Items {
		if want := wantSources[i]; it.Source != want {
			t.Errorf("item %d source %q, want %q", i, it.Source, want)
		}
	}
	if resp.Items[3].Status != "error" || !strings.Contains(resp.Items[3].Error, "missing instance") {
		t.Errorf("missing-instance item: %+v", resp.Items[3])
	}
	if resp.Items[4].Status != "error" || !strings.Contains(resp.Items[4].Error, "class") {
		t.Errorf("forest item: %+v", resp.Items[4])
	}

	// Payloads are canonical (no serving flags set) and equal to the
	// single endpoint's, item for item.
	singleFresh, err := smallPlanner(nil).Plan(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalPlanJSON(t, resp.Items[0].Plan), canonicalPlanJSON(t, singleFresh); got != want {
		t.Errorf("fresh payload differs from single plan:\n%s\n%s", got, want)
	}
	if got, want := canonicalPlanJSON(t, resp.Items[1].Plan), canonicalPlanJSON(t, resp.Items[0].Plan); got != want {
		t.Errorf("duplicate payload differs from its first occurrence")
	}
	if got, want := canonicalPlanJSON(t, resp.Items[2].Plan), canonicalPlanJSON(t, warmResp); got != want {
		t.Errorf("cached payload differs from the earlier single response")
	}
	if resp.Items[0].Plan.Cached || resp.Items[0].Plan.Coalesced || resp.Items[2].Plan.Cached {
		t.Error("batch payloads must not carry serving flags; the envelope Source does")
	}

	// Per-item cache accounting: 1 hit (warm item), 2 misses (fresh + its
	// duplicate), 1 coalesced (the duplicate), and hit rate ≤ 1.
	snap := p.Metrics()
	if snap.CacheHits != 1 || snap.CacheMisses != 3 || snap.Coalesced != 1 {
		// 3 misses: warm's original single compute missed once too.
		t.Fatalf("cache accounting: %+v", snap)
	}
	if snap.CacheHitRate > 1 {
		t.Fatalf("hit rate %v > 1", snap.CacheHitRate)
	}
	if snap.Batches != 1 || snap.BatchItems != 5 || snap.BatchCached != 1 ||
		snap.BatchComputed != 1 || snap.BatchShared != 1 || snap.BatchErrors != 2 {
		t.Fatalf("batch metrics: %+v", snap)
	}
	if snap.BatchSizes.Count != 1 || snap.BatchSizes.Max < 4.5 {
		t.Fatalf("batch size histogram: %+v", snap.BatchSizes)
	}
}

func TestBatchEnvelopeValidation(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.MaxBatchItems = 4 })
	ctx := context.Background()
	if _, err := p.PlanBatch(ctx, nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil request: %v", err)
	}
	if _, err := p.PlanBatch(ctx, &BatchPlanRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: make([]PlanRequest, 5)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversized batch: %v", err)
	}
	if _, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: make([]PlanRequest, 1), DeadlineMS: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative deadline: %v", err)
	}
	// A deadline big enough to overflow the nanosecond conversion must be
	// a 400, not an instantly-expired context failing every item.
	if _, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: make([]PlanRequest, 1), DeadlineMS: 1 << 60}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("overflowing deadline: %v", err)
	}
}

// TestBatchAdmissionWeighsItems pins the cost-model backpressure: a batch
// charges ⌈n·m/1024⌉ units per to-be-computed item against the queue
// budget, cache hits are free, an oversized batch is admissible only
// against an idle line, and a single item over the per-item budget fails
// alone without failing its batch.
func TestBatchAdmissionWeighsItems(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.Workers = 2; c.QueueDepth = 2 })
	ctx := context.Background()
	big := testInstance(t, "uniform", 33, 64, 9) // n·m = 2112 → 3 cost units

	// Idle line: cost 3 > QueueDepth 2, admitted anyway (a batch that can
	// never run is not backpressure, it is a dead endpoint).
	resp, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: []PlanRequest{*big}})
	if err != nil || resp.OK != 1 || resp.CostUnits != 3 {
		t.Fatalf("idle-line big batch: resp=%+v err=%v", resp, err)
	}

	// Same batch content is now cached: zero cost, admitted even with the
	// line fully occupied.
	p.queued.Add(int64(p.cfg.QueueDepth))
	resp, err = p.PlanBatch(ctx, &BatchPlanRequest{Items: []PlanRequest{jsonClone(t, big)}})
	if err != nil || resp.OK != 1 || resp.CostUnits != 0 || resp.Cached != 1 {
		t.Fatalf("cached batch under load: resp=%+v err=%v", resp, err)
	}

	// An uncached 3-unit batch against the occupied line: rejected.
	other := testInstance(t, "uniform", 33, 64, 10)
	if _, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: []PlanRequest{*other}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if snap := p.Metrics(); snap.Rejected != 1 {
		t.Fatalf("rejected = %d", snap.Rejected)
	}
	p.queued.Add(-int64(p.cfg.QueueDepth))

	// Per-item budget: the big item errors alone, its small sibling plans.
	tight := smallPlanner(func(c *Config) { c.MaxItemCost = 2 })
	small := testInstance(t, "uniform", 4, 8, 11)
	resp, err = tight.PlanBatch(ctx, &BatchPlanRequest{Items: []PlanRequest{*big, *small}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK != 1 || resp.Errors != 1 {
		t.Fatalf("per-item budget summary: %+v", resp)
	}
	if it := resp.Items[0]; it.Status != "error" || !strings.Contains(it.Error, "per-item budget") {
		t.Fatalf("big item: %+v", it)
	}
	if resp.Items[1].Status != "ok" {
		t.Fatalf("small item: %+v", resp.Items[1])
	}
}

// TestBatchDeadlinePartialResults pins partial-results mode: items that
// cannot finish by the deadline report per-item errors while the batch
// still succeeds. A computation the deadline strands with no other caller
// is abandoned at its slot-wait checkpoint — queue charge refunded,
// nothing cached — so a retry recomputes it rather than finding it warm.
func TestBatchDeadlinePartialResults(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.Workers = 1 })
	ctx := context.Background()
	warm := testInstance(t, "uniform", 3, 6, 20)
	if _, err := p.Plan(ctx, warm); err != nil {
		t.Fatal(err)
	}
	cold := testInstance(t, "uniform", 3, 6, 21)

	p.slots <- struct{}{} // occupy the only worker: cold items cannot start
	resp, err := p.PlanBatch(ctx, &BatchPlanRequest{
		Items:      []PlanRequest{jsonClone(t, warm), *cold},
		DeadlineMS: 30,
	})
	if err != nil {
		t.Fatalf("deadline mode must not fail the batch: %v", err)
	}
	if resp.OK != 1 || resp.Errors != 1 || resp.Items[0].Source != sourceCached {
		t.Fatalf("partial results: %+v", resp)
	}
	if it := resp.Items[1]; it.Status != "error" || !strings.Contains(it.Error, "deadline") {
		t.Fatalf("deadlined item: %+v", it)
	}

	// The stranded computation had no other caller: it must be abandoned
	// (charge refunded, never cached) instead of burning the worker.
	for p.Metrics().Abandoned != 1 {
		runtime.Gosched()
	}
	if q := p.queued.Load(); q != 0 {
		t.Fatalf("abandonment did not refund the queue charge: queued=%d", q)
	}
	<-p.slots // free the worker
	key := requestKey{fp: sched.FingerprintInstance(cold.Instance), kind: kindPlan, target: 0.5}
	if _, ok := p.cache.peek(key); ok {
		t.Fatal("abandoned batch computation landed in the cache")
	}
	// A retry recomputes the item from scratch and succeeds.
	resp, err = p.PlanBatch(ctx, &BatchPlanRequest{Items: []PlanRequest{jsonClone(t, cold)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items[0].Status != "ok" || resp.Items[0].Source != sourceComputed {
		t.Fatalf("retry after abandonment: %+v", resp.Items[0])
	}
	p.Close() // every detached goroutine must drain cleanly
}

// TestBatchCoalescesWithInFlightSingle holds the one worker busy, parks a
// single plan in the queue, then sends a batch for the same content: the
// batch item must attach to the single's flight (one compute total) and
// return the identical payload.
func TestBatchCoalescesWithInFlightSingle(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.Workers = 1; c.QueueDepth = 8 })
	ctx := context.Background()
	req := testInstance(t, "uniform", 4, 8, 30)

	p.slots <- struct{}{} // stall the worker so the single stays in flight
	singleOut := make(chan *PlanResponse, 1)
	singleErr := make(chan error, 1)
	go func() {
		r, err := p.Plan(ctx, req)
		singleOut <- r
		singleErr <- err
	}()
	// Wait until the single leads its flight. Admission charges the queue
	// just before resolve joins the flight table, so waiting on the queue
	// charge alone lets a fast batch lead instead of follow.
	for {
		p.flight.mu.Lock()
		led := len(p.flight.m) == 1
		p.flight.mu.Unlock()
		if led {
			break
		}
		runtime.Gosched()
	}

	batchOut := make(chan *BatchPlanResponse, 1)
	batchErr := make(chan error, 1)
	go func() {
		r, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: []PlanRequest{jsonClone(t, req)}})
		batchOut <- r
		batchErr <- err
	}()
	// Wait until the batch group has joined the single's flight.
	for {
		p.flight.mu.Lock()
		dups := 0
		for _, c := range p.flight.m {
			dups += c.dups
		}
		p.flight.mu.Unlock()
		if dups == 1 {
			break
		}
		runtime.Gosched()
	}

	<-p.slots // release the worker
	if err := <-singleErr; err != nil {
		t.Fatal(err)
	}
	if err := <-batchErr; err != nil {
		t.Fatal(err)
	}
	single, batch := <-singleOut, <-batchOut
	if batch.Coalesced != 1 || batch.Items[0].Source != sourceCoalesced {
		t.Fatalf("batch item should have coalesced: %+v", batch)
	}
	if got, want := canonicalPlanJSON(t, batch.Items[0].Plan), canonicalPlanJSON(t, single); got != want {
		t.Error("coalesced batch payload differs from the single's")
	}
	// One compute total: both callers missed, one led, one coalesced.
	snap := p.Metrics()
	if computes := snap.CacheMisses - snap.Coalesced; computes != 1 {
		t.Fatalf("computes = %d (misses=%d coalesced=%d)", computes, snap.CacheMisses, snap.Coalesced)
	}
}
