package service

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testInstance(t *testing.T, family string, m, n int, seed int64) *PlanRequest {
	t.Helper()
	ins, err := workload.Generate(workload.Spec{Family: family, M: m, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &PlanRequest{Instance: ins}
}

func smallPlanner(extra func(*Config)) *Planner {
	cfg := Config{Workers: 2, QueueDepth: 8, CacheCap: 64,
		MaxTrials: 500, DefaultTrials: 20, TrialWorkers: 2, ProgressChunk: 8}
	if extra != nil {
		extra(&cfg)
	}
	return NewPlanner(cfg)
}

func TestPlanMatchesDirectRounding(t *testing.T) {
	p := smallPlanner(nil)
	req := testInstance(t, "uniform", 4, 10, 7)
	resp, err := p.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]int, req.Instance.N)
	for j := range jobs {
		jobs[j] = j
	}
	direct, err := rounding.RoundLP1(req.Instance, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TStar != direct.TFrac {
		t.Errorf("tstar %v vs direct %v", resp.TStar, direct.TFrac)
	}
	o := direct.Schedule
	if resp.Length != o.Length {
		t.Errorf("length %d vs direct %d", resp.Length, o.Length)
	}
	wantLower := direct.TFrac / 2
	if wantLower < 1 {
		wantLower = 1
	}
	if resp.LowerBound != wantLower {
		t.Errorf("lower bound %v, want %v", resp.LowerBound, wantLower)
	}
	if len(resp.Machines) != req.Instance.M {
		t.Fatalf("machines rows = %d", len(resp.Machines))
	}
	for i, runs := range o.Runs {
		if len(resp.Machines[i]) != len(runs) {
			t.Fatalf("machine %d: %d runs vs direct %d", i, len(resp.Machines[i]), len(runs))
		}
		for k, r := range runs {
			if got := resp.Machines[i][k]; got.Job != r.Job || got.Steps != r.Steps {
				t.Fatalf("machine %d run %d: %+v vs %+v", i, k, got, r)
			}
		}
	}
	if resp.Class != "independent" || resp.Cached {
		t.Errorf("class %q cached %v", resp.Class, resp.Cached)
	}
}

func TestPlanChainsUsesLP2(t *testing.T) {
	p := smallPlanner(nil)
	req := testInstance(t, "chains", 4, 12, 3)
	resp, err := p.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := req.Instance.Chains()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := rounding.RoundLP2(req.Instance, chains)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TStar != direct.TFrac {
		t.Errorf("tstar %v vs direct LP2 %v", resp.TStar, direct.TFrac)
	}
	if want := direct.Assignment.Serialize().Length; resp.Length != want {
		t.Errorf("length %d vs %d", resp.Length, want)
	}
	if resp.Class != "chains" || resp.LowerBound != 0 {
		t.Errorf("class %q lower %v", resp.Class, resp.LowerBound)
	}
}

func TestPlanSecondCallHitsCache(t *testing.T) {
	p := smallPlanner(nil)
	// Same content decoded into two distinct instances: the fingerprint,
	// not the pointer, must address the cache.
	reqA := testInstance(t, "uniform", 4, 8, 1)
	reqB := testInstance(t, "uniform", 4, 8, 1)
	a, err := p.Plan(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Plan(context.Background(), reqB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cached || !b.Cached {
		t.Fatalf("cached flags: first %v second %v", a.Cached, b.Cached)
	}
	if a.TStar != b.TStar || a.Fingerprint != b.Fingerprint {
		t.Fatal("cached response differs")
	}
	snap := p.Metrics()
	if snap.CacheHits != 1 || snap.Plans != 2 {
		t.Fatalf("metrics: %+v", snap)
	}
}

func TestEstimateMatchesMonteCarlo(t *testing.T) {
	p := smallPlanner(nil)
	req := testInstance(t, "uniform", 4, 10, 11)
	got, err := p.Estimate(context.Background(), &EstimateRequest{
		Instance: req.Instance, Policy: "sem", Trials: 40, Seed: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a fresh policy and a different worker count must produce
	// the identical sample (the engine is deterministic in (i, seed)).
	ref, err := sim.MonteCarlo(req.Instance, freshPolicy("sem"), 40, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := ref.Summary
	if got.Mean != s.Mean || got.Median != s.Median || got.Min != s.Min || got.Max != s.Max {
		t.Fatalf("estimate %+v differs from direct Monte Carlo %+v", got, s)
	}
}

// freshPolicy builds a throwaway policy instance outside any planner.
func freshPolicy(name string) sim.Policy {
	return NewPlanner(Config{}).policies[name]()
}

// TestEstimatePolicyPerComputation pins the per-computation policy
// contract: every estimate that actually computes builds a fresh policy
// from the factory (so its workspace pool and LP2 cache die with the
// computation), while response-cache hits build nothing.
func TestEstimatePolicyPerComputation(t *testing.T) {
	p := smallPlanner(nil)
	var built atomic.Int32
	p.policies["counted"] = func() sim.Policy {
		built.Add(1)
		return freshPolicy("sem")
	}
	ins := testInstance(t, "uniform", 3, 6, 8).Instance
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := p.Estimate(context.Background(), &EstimateRequest{
			Instance: ins, Policy: "counted", Trials: 5, Seed: seed,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := built.Load(); got != 3 {
		t.Fatalf("policy built %d times for 3 uncached estimates", got)
	}
	// A repeat hits the response cache: no computation, no new policy.
	if _, err := p.Estimate(context.Background(), &EstimateRequest{
		Instance: ins, Policy: "counted", Trials: 5, Seed: 1,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != 3 {
		t.Fatalf("response-cache hit built a policy (%d builds total)", got)
	}
}

// TestEstimateDoesNotRetainInstance is the unbounded-growth regression:
// LP caches keyed by instance pointer once retained every distinct
// estimated instance forever. After an estimate finishes, nothing in the
// planner may keep the decoded instance reachable — the response cache,
// the flight group and the planner-lifetime LP1 rounding cache key by
// content fingerprint, and the policy (with its workspace pool, whose
// workspaces remember the last instance they solved) dies with its
// computation.
func TestEstimateDoesNotRetainInstance(t *testing.T) {
	p := smallPlanner(nil)
	collected := make(chan struct{})
	err := func() error {
		ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 3, N: 6, Seed: 123})
		if err != nil {
			return err
		}
		runtime.SetFinalizer(ins, func(*model.Instance) { close(collected) })
		_, err = p.Estimate(context.Background(), &EstimateRequest{
			Instance: ins, Policy: "sem", Trials: 5, Seed: 1,
		}, nil)
		return err
	}()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("instance still reachable after its estimate finished: the planner retains it")
}

func TestEstimateChunkingInvariant(t *testing.T) {
	reqA := testInstance(t, "uniform", 3, 8, 5)
	reqB := testInstance(t, "uniform", 3, 8, 5)
	fine := smallPlanner(func(c *Config) { c.ProgressChunk = 7 })
	coarse := smallPlanner(func(c *Config) { c.ProgressChunk = 1000 })
	er := &EstimateRequest{Policy: "obl", Trials: 33, Seed: 9}
	ra := *er
	ra.Instance = reqA.Instance
	rb := *er
	rb.Instance = reqB.Instance
	a, err := fine.Estimate(context.Background(), &ra, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := coarse.Estimate(context.Background(), &rb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Std != b.Std || a.Median != b.Median {
		t.Fatalf("chunk size changed the estimate: %+v vs %+v", a, b)
	}
}

func TestEstimateProgress(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.ProgressChunk = 10 })
	req := testInstance(t, "uniform", 3, 6, 2)
	var progress []Progress
	resp, err := p.Estimate(context.Background(), &EstimateRequest{
		Instance: req.Instance, Trials: 35, Seed: 1,
	}, func(pr Progress) { progress = append(progress, pr) })
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) != 3 { // after 10, 20, 30; 35 is the final result
		t.Fatalf("progress calls = %d (%+v)", len(progress), progress)
	}
	for i, pr := range progress {
		if pr.Done != (i+1)*10 || pr.Total != 35 || pr.Mean <= 0 {
			t.Fatalf("progress %d = %+v", i, pr)
		}
	}
	if resp.Trials != 35 {
		t.Fatalf("resp trials = %d", resp.Trials)
	}
}

func TestRequestValidation(t *testing.T) {
	p := smallPlanner(nil)
	ctx := context.Background()
	indep := testInstance(t, "uniform", 3, 6, 1).Instance
	forest := testInstance(t, "forest", 3, 10, 1).Instance

	if _, err := p.Plan(ctx, &PlanRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("missing instance: %v", err)
	}
	if _, err := p.Plan(ctx, &PlanRequest{Instance: indep, Target: -1}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative target: %v", err)
	}
	// NaN never equals itself as a map key: letting it through would leak
	// singleflight entries and plant unfindable cache entries.
	if _, err := p.Plan(ctx, &PlanRequest{Instance: indep, Target: math.NaN()}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("NaN target: %v", err)
	}
	if _, err := p.Plan(ctx, &PlanRequest{Instance: forest}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("forest plan: %v", err)
	}
	if _, err := p.Estimate(ctx, &EstimateRequest{Instance: indep, Policy: "nope"}, nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown policy: %v", err)
	}
	if _, err := p.Estimate(ctx, &EstimateRequest{Instance: indep, Trials: 501}, nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("over-budget trials: %v", err)
	}
	if _, err := p.Estimate(ctx, &EstimateRequest{Instance: indep, Trials: -5}, nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative trials: %v", err)
	}
	if _, err := p.Estimate(ctx, &EstimateRequest{Instance: forest, Policy: "sem"}, nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("sem on forest: %v", err)
	}
	// Auto policy resolves by class and works on every class.
	if resp, err := p.Estimate(ctx, &EstimateRequest{Instance: forest, Trials: 5}, nil); err != nil {
		t.Errorf("auto on forest: %v", err)
	} else if resp.Policy != "forest" {
		t.Errorf("auto resolved to %q", resp.Policy)
	}

	// A MaxTrials below the default clamps DefaultTrials: trial-less
	// requests must stay serveable.
	tight := NewPlanner(Config{MaxTrials: 150})
	if got := tight.Config().DefaultTrials; got != 150 {
		t.Errorf("DefaultTrials = %d with MaxTrials 150", got)
	}
}

// gatePolicy blocks every trial until the gate closes, making in-flight
// states deterministic for the coalescing and shutdown tests.
type gatePolicy struct {
	entered chan struct{} // receives one token per Run that reached the gate
	gate    chan struct{}
}

func (g *gatePolicy) Name() string { return "gate" }

func (g *gatePolicy) Run(w *sim.World) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	for _, j := range w.Remaining() {
		if _, err := w.SoloAll(j); err != nil {
			return err
		}
	}
	return nil
}

func TestEstimateCoalescesDuplicates(t *testing.T) {
	p := smallPlanner(nil)
	gp := &gatePolicy{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	p.policies["gate"] = func() sim.Policy { return gp }
	ins := testInstance(t, "uniform", 3, 5, 4).Instance
	req := &EstimateRequest{Instance: ins, Policy: "gate", Trials: 4, Seed: 1}

	type out struct {
		resp *EstimateResponse
		err  error
	}
	outs := make(chan out, 2)
	go func() {
		r, err := p.Estimate(context.Background(), req, nil)
		outs <- out{r, err}
	}()
	<-gp.entered // leader is mid-computation
	go func() {
		r, err := p.Estimate(context.Background(), req, nil)
		outs <- out{r, err}
	}()
	// Wait until the follower has attached to the leader's flight.
	key := requestKey{fp: sched.FingerprintInstance(ins), kind: kindEstimate, policy: "gate", trials: 4, seed: 1}
	for {
		p.flight.mu.Lock()
		c := p.flight.m[key]
		dups := 0
		if c != nil {
			dups = c.dups
		}
		p.flight.mu.Unlock()
		if dups == 1 {
			break
		}
		runtime.Gosched()
	}
	close(gp.gate)
	a, b := <-outs, <-outs
	if a.err != nil || b.err != nil {
		t.Fatalf("errors: %v / %v", a.err, b.err)
	}
	if a.resp.Mean != b.resp.Mean {
		t.Fatal("coalesced responses differ")
	}
	if a.resp.Coalesced == b.resp.Coalesced {
		t.Fatalf("want exactly one coalesced response, got %v/%v", a.resp.Coalesced, b.resp.Coalesced)
	}
	snap := p.Metrics()
	if snap.Coalesced != 1 {
		t.Fatalf("coalesced counter = %d", snap.Coalesced)
	}
	// Both callers missed the LRU, but the follower was served off the
	// leader's flight: the reported hit rate counts it as served-from-
	// shared-work, not as a plain miss.
	if snap.CacheHits != 0 || snap.CacheMisses != 2 || snap.CacheHitRate != 0.5 {
		t.Fatalf("hit-rate accounting: hits=%d misses=%d rate=%v",
			snap.CacheHits, snap.CacheMisses, snap.CacheHitRate)
	}
}

// TestResolveLeaderServesRacedCache pins the leader's late cache
// re-check, for plan and estimate keys alike: when an identical flight
// landed between a caller's cache miss and its join, the new leader serves
// the cached result (reported shared, so the endpoints label it cached)
// instead of recomputing, refunds the caller's admission charge — and the
// uncounted peek leaves the hit/miss counters alone (the caller already
// recorded its miss).
func TestResolveLeaderServesRacedCache(t *testing.T) {
	for _, tc := range []struct {
		key requestKey
		val any
	}{
		{requestKey{kind: kindPlan, target: 0.25}, &PlanResponse{Fingerprint: "raced"}},
		{requestKey{kind: kindEstimate, policy: "sem", trials: 20, seed: 3}, &EstimateResponse{Fingerprint: "raced"}},
	} {
		p := smallPlanner(nil)
		want := newCachedFrame(tc.val, []byte(`{"cached":false}`))
		p.cache.put(tc.key, want)
		p.queued.Add(1) // the caller's admission charge
		cf, follower, shared, err := p.resolve(context.Background(), tc.key, 1, nil, nil, func(<-chan struct{}, func(Progress)) (any, error) {
			t.Error("computation ran despite a cached result for its key")
			return nil, errors.New("unreachable")
		})
		if err != nil || follower || !shared || cf != want {
			t.Fatalf("kind %d: cf=%v err=%v follower=%v shared=%v", tc.key.kind, cf, err, follower, shared)
		}
		if h, m := p.cache.hits.Load(), p.cache.misses.Load(); h != 0 || m != 0 {
			t.Fatalf("kind %d: peek touched the counters: hits=%d misses=%d", tc.key.kind, h, m)
		}
		if q := p.queued.Load(); q != 0 {
			t.Fatalf("kind %d: raced peek did not refund the charge: queued=%d", tc.key.kind, q)
		}
		// The inline finish removed the flight: a fresh caller leads again.
		if _, follower := p.flight.join(tc.key); follower {
			t.Fatalf("kind %d: flight entry leaked after the peek-served finish", tc.key.kind)
		}
	}
}

// TestFollowerSurvivesLeaderCancellation pins the detached-computation
// contract: the leader's client disconnecting must not poison the flight
// for coalesced followers.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	p := smallPlanner(nil)
	gp := &gatePolicy{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	p.policies["gate"] = func() sim.Policy { return gp }
	ins := testInstance(t, "uniform", 3, 5, 61).Instance
	req := &EstimateRequest{Instance: ins, Policy: "gate", Trials: 4, Seed: 1}
	key := requestKey{fp: sched.FingerprintInstance(ins), kind: kindEstimate, policy: "gate", trials: 4, seed: 1}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := p.Estimate(leaderCtx, req, nil)
		leaderErr <- err
	}()
	<-gp.entered // computation is running

	followerOut := make(chan *EstimateResponse, 1)
	followerErrCh := make(chan error, 1)
	go func() {
		r, err := p.Estimate(context.Background(), req, nil)
		followerOut <- r
		followerErrCh <- err
	}()
	for { // wait until the follower attached
		p.flight.mu.Lock()
		c := p.flight.m[key]
		dups := 0
		if c != nil {
			dups = c.dups
		}
		p.flight.mu.Unlock()
		if dups >= 1 {
			break
		}
		runtime.Gosched()
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	close(gp.gate) // computation finishes after the leader is gone
	if err := <-followerErrCh; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if r := <-followerOut; r == nil || r.Trials != 4 {
		t.Fatalf("follower response: %+v", r)
	}
	p.Close() // the detached computation must be drained by now
}

func TestAdmissionControl(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.Workers = 1; c.QueueDepth = 1 })
	p.slots <- struct{}{} // occupy the only worker from outside

	reqA := testInstance(t, "uniform", 3, 5, 21)
	reqB := testInstance(t, "uniform", 3, 5, 22)
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Plan(context.Background(), reqA)
		errCh <- err
	}()
	for p.queued.Load() != 1 {
		runtime.Gosched()
	}
	// The line is full: a different request must bounce immediately.
	if _, err := p.Plan(context.Background(), reqB); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if snap := p.Metrics(); snap.Rejected != 1 {
		t.Fatalf("rejected counter = %d", snap.Rejected)
	}
	<-p.slots // free the worker; the queued request completes
	if err := <-errCh; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}

	// A caller whose client gives up gets its context error immediately;
	// with nobody else attached, the computation is abandoned at its
	// slot-wait checkpoint — the queue charge is refunded without a worker
	// slot ever being consumed, the flight table is cleared, and nothing
	// lands in the cache. (Work with live followers still completes: see
	// TestFollowerSurvivesLeaderCancellation.)
	p2 := smallPlanner(func(c *Config) { c.Workers = 1; c.QueueDepth = 2 })
	p2.slots <- struct{}{} // keep the only worker busy for the whole test
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p2.Plan(ctx, reqB); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for p2.Metrics().Abandoned != 1 {
		runtime.Gosched()
	}
	if q := p2.queued.Load(); q != 0 {
		t.Fatalf("abandonment did not refund the queue charge: queued=%d", q)
	}
	key := requestKey{fp: sched.FingerprintInstance(reqB.Instance), kind: kindPlan, target: 0.5}
	if _, ok := p2.cache.peek(key); ok {
		t.Fatal("abandoned computation landed in the cache")
	}
	p2.flight.mu.Lock()
	flights := len(p2.flight.m)
	p2.flight.mu.Unlock()
	if flights != 0 {
		t.Fatalf("flight table has %d entries after abandonment", flights)
	}
	// The abandoned wait is a cancellation, not a server error.
	if snap := p2.Metrics(); snap.Canceled != 1 || snap.Errors != 0 {
		t.Fatalf("canceled/errors = %d/%d", snap.Canceled, snap.Errors)
	}
	<-p2.slots
	p2.Close() // the detached goroutine must have untracked itself
}

// TestSingleChargesItemCost pins the one cost model: a single plan is
// charged ⌈n·m/1024⌉ admission units like a batch item, not one unit per
// request, and the charge is refunded when every caller abandons the
// flight before it reaches a worker slot.
func TestSingleChargesItemCost(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.Workers = 1 })
	p.slots <- struct{}{} // the only worker is busy
	// n·m = 2112 → 3 cost units
	big := testInstance(t, "uniform", 33, 64, 9)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Plan(ctx, big)
		errCh <- err
	}()
	for p.queued.Load() == 0 {
		runtime.Gosched()
	}
	if q := p.queued.Load(); q != 3 {
		t.Fatalf("queued = %d after a 33×64 single plan, want 3", q)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for p.Metrics().Abandoned != 1 {
		runtime.Gosched()
	}
	if q := p.queued.Load(); q != 0 {
		t.Fatalf("abandonment did not refund the charge: queued=%d", q)
	}
	<-p.slots
	p.Close()
}

func TestCloseDrainsInFlight(t *testing.T) {
	p := smallPlanner(nil)
	gp := &gatePolicy{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	p.policies["gate"] = func() sim.Policy { return gp }
	ins := testInstance(t, "uniform", 3, 5, 31).Instance

	respCh := make(chan error, 1)
	go func() {
		_, err := p.Estimate(context.Background(), &EstimateRequest{
			Instance: ins, Policy: "gate", Trials: 2, Seed: 1,
		}, nil)
		respCh <- err
	}()
	<-gp.entered

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close is underway: new requests bounce, the in-flight one lives.
	for !p.ShuttingDown() {
		runtime.Gosched()
	}
	if _, err := p.Plan(context.Background(), testInstance(t, "uniform", 3, 5, 32)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a request still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(gp.gate)
	if err := <-respCh; err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight request drained")
	}
}

// TestPlannerConcurrentMixed fires overlapping plans and estimates from
// many goroutines through one planner — the -race exercise for the
// sharded cache, the flight group, and the per-request policies, with a cache
// small enough to force eviction mid-run.
func TestPlannerConcurrentMixed(t *testing.T) {
	p := smallPlanner(func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 256
		c.CacheCap = 8
	})
	instances := make([]*PlanRequest, 6)
	for i := range instances {
		instances[i] = testInstance(t, "uniform", 3, 6, int64(100+i))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				ins := instances[(g+i)%len(instances)].Instance
				if i%2 == 0 {
					if _, err := p.Plan(context.Background(), &PlanRequest{Instance: ins}); err != nil {
						errCh <- err
						return
					}
				} else {
					if _, err := p.Estimate(context.Background(), &EstimateRequest{
						Instance: ins, Policy: "sem", Trials: 6, Seed: int64(i % 3),
					}, nil); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	snap := p.Metrics()
	if snap.CacheHits == 0 {
		t.Error("no cache hits across 96 overlapping requests")
	}
	if snap.InFlight != 0 {
		t.Errorf("in-flight = %d after drain", snap.InFlight)
	}
}
