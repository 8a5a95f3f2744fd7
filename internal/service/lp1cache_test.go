package service

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sharedCachePlanner is smallPlanner with the shared LP1 cache at the
// given budget.
func sharedCachePlanner(budget int64) *Planner {
	return newPlanner(Config{Workers: 2, QueueDepth: 16, CacheCap: 64,
		MaxTrials: 500, TrialWorkers: 2, ProgressChunk: 16}, rounding.NewCacheBytes(budget))
}

// checkEstimateExact requires resp to be bit-identical to a fresh-cache
// Monte Carlo of SEM on ins — the contract that lets estimates share one
// planner-lifetime cache.
func checkEstimateExact(t *testing.T, resp *EstimateResponse, ins *model.Instance, trials int, seed int64) {
	t.Helper()
	ref, err := sim.MonteCarlo(ins, &core.SEM{Cache: rounding.NewCache()}, trials, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := ref.Summary
	if resp.Mean != s.Mean || resp.Std != s.Std || resp.Min != s.Min || resp.Max != s.Max ||
		resp.Median != s.Median || resp.P90 != s.P90 {
		t.Fatalf("seed %d: estimate %+v differs from fresh-cache Monte Carlo %+v", seed, resp, s)
	}
}

// TestEstimateSharedLP1CacheBitIdentical interleaves estimates over five
// instances and several seeds through one planner, alternating between
// two separately generated copies of every instance, and requires each
// to equal a fresh-cache Monte Carlo bit for bit. The second pass runs
// under a budget of a few entries, so eviction churns throughout.
func TestEstimateSharedLP1CacheBitIdentical(t *testing.T) {
	const trials = 40
	type pair struct{ a, b *model.Instance }
	var catalog []pair
	for k := int64(0); k < 5; k++ {
		spec := workload.Spec{Family: "uniform", M: 4, N: 14, Seed: 300 + k}
		a, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		catalog = append(catalog, pair{a, b})
	}
	for _, budget := range []int64{rounding.DefaultCacheBytes, 4 << 10} {
		p := sharedCachePlanner(budget)
		for seed := int64(1); seed <= 4; seed++ {
			for k, c := range catalog {
				ins := c.a
				if (seed+int64(k))%2 == 0 {
					ins = c.b
				}
				resp, err := p.Estimate(context.Background(), &EstimateRequest{
					Instance: ins, Policy: "sem", Trials: trials, Seed: seed,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Cached {
					t.Fatalf("seed %d instance %d: response cache hit, want a computed estimate", seed, k)
				}
				checkEstimateExact(t, resp, ins, trials, seed)
			}
		}
		st := p.Metrics()
		if st.LP1CacheHits == 0 || st.LP1CacheBytes > st.LP1CacheBudget || st.LP1CacheBudget != budget {
			t.Fatalf("budget %d: lp1 cache metrics %+v", budget, st)
		}
		if budget < rounding.DefaultCacheBytes && st.LP1CacheEvictions == 0 {
			t.Fatalf("budget %d forced no evictions", budget)
		}
	}
}

// TestEstimateSharesLP1AcrossEqualInstances: two distinct decoded values
// of one instance share the memo — OBL's single full-set rounding is
// solved for the first copy and served to the second.
func TestEstimateSharesLP1AcrossEqualInstances(t *testing.T) {
	spec := workload.Spec{Family: "uniform", M: 4, N: 12, Seed: 77}
	a, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := sharedCachePlanner(0)
	est := func(ins *model.Instance, seed int64) {
		t.Helper()
		if _, err := p.Estimate(context.Background(), &EstimateRequest{
			Instance: ins, Policy: "obl", Trials: 10, Seed: seed,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	est(a, 1)
	first := p.Metrics()
	est(b, 2)
	second := p.Metrics()
	if first.LP1CacheEntries != 1 || second.LP1CacheEntries != 1 {
		t.Fatalf("entries %d then %d, want one shared full-set entry", first.LP1CacheEntries, second.LP1CacheEntries)
	}
	if second.LP1CacheMisses != first.LP1CacheMisses || second.LP1CacheHits <= first.LP1CacheHits {
		t.Fatalf("second copy did not hit: before %+v after %+v", first, second)
	}
}

// TestLP1CacheMetricsExposed: the memo's counters reach /metrics in both
// the JSON and the Prometheus form.
func TestLP1CacheMetricsExposed(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	postJSON(t, ts, "/v1/estimate", map[string]any{
		"instance": testInstance(t, "uniform", 3, 8, 5).Instance, "policy": "sem", "trials": 10, "seed": 3,
	})
	var snap map[string]any
	getJSON(t, ts, "/metrics", &snap)
	for _, k := range []string{"lp1_cache_hits", "lp1_cache_misses", "lp1_cache_evictions",
		"lp1_cache_entries", "lp1_cache_bytes", "lp1_cache_budget_bytes"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("/metrics lacks %q", k)
		}
	}
	if snap["lp1_cache_misses"].(float64) == 0 || snap["lp1_cache_budget_bytes"].(float64) != rounding.DefaultCacheBytes {
		t.Fatalf("lp1 cache metrics after an estimate: misses %v budget %v",
			snap["lp1_cache_misses"], snap["lp1_cache_budget_bytes"])
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := checkPromExposition(t, body)
	for _, k := range []string{"suu_lp1_cache_hits_total", "suu_lp1_cache_misses_total",
		"suu_lp1_cache_evictions_total", "suu_lp1_cache_entries", "suu_lp1_cache_bytes",
		"suu_lp1_cache_budget_bytes"} {
		if _, ok := samples[k]; !ok {
			t.Fatalf("prom exposition lacks %s", k)
		}
	}
	if samples["suu_lp1_cache_misses_total"] != snap["lp1_cache_misses"].(float64) {
		t.Fatalf("prom misses %v, JSON %v", samples["suu_lp1_cache_misses_total"], snap["lp1_cache_misses"])
	}
}

// BenchmarkEstimateCatalog is the service-level view of the shared LP1
// memo: SEM estimates of 200 trials, a fresh seed per op (so the response
// cache never answers), round-robin over an 8-instance n=64/m=16 uniform
// catalog, through Planner.Estimate. Op i seeds its trials from i·200, the
// trial count, so no two ops share a trial seed: consecutive seeds would
// make op i+8 replay 192 of op i's trials and turn nearly every survivor
// solve into a cache hit, which a client sending fresh seeds never sees.
func BenchmarkEstimateCatalog(b *testing.B) {
	catalog := make([]*model.Instance, 8)
	for k := range catalog {
		catalog[k] = testInstanceB(b, "uniform", 16, 64, int64(500+k)).Instance
	}
	p := NewPlanner(Config{})
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Estimate(context.Background(), &EstimateRequest{
			Instance: catalog[i%len(catalog)], Policy: "sem", Trials: 200, Seed: int64(i) * 200,
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
