// Package suu is a Go implementation of "Improved Approximations for
// Multiprocessor Scheduling Under Uncertainty" (Crutchfield, Dzunic,
// Fineman, Karger, Scott — SPAA 2008).
//
// The SUU problem: n unit-step jobs must be completed by m machines; job j
// fails on machine i in any given step with probability q_ij,
// independently; precedence constraints form a DAG; several machines may
// work the same job in one step. The objective is the expected makespan.
//
// The package exposes:
//
//   - the problem model (Instance) and instance generators (Generate),
//   - the paper's algorithms: SEM — the O(log log min{m,n})-approximation
//     for independent jobs, OBL — the oblivious O(log n)-approximation,
//     Chains (SUU-C) for disjoint-chain precedence, Forest (SUU-T) for
//     directed forests, and Layered for MapReduce-style layered DAGs,
//   - baselines (Greedy, Sequential, EligibleSplit),
//   - the SUU* simulator (NewWorld, MonteCarlo) built on the paper's
//     deferred-decision reformulation (Appendix A),
//   - the exact optimum for small instances (ExactOptimal), and
//   - the experiment harness that regenerates the paper's Table 1
//     (Experiments, RunExperiment).
//
// Quickstart:
//
//	ins, _ := suu.Generate(suu.Spec{Family: "uniform", M: 8, N: 32, Seed: 1})
//	res, _ := suu.Estimate(ins, suu.NewSEM(), 100, 1)
//	fmt.Println(res.Summary) // estimated expected makespan
//
// # Performance
//
// The Monte Carlo engine runs an allocation-free hot path: each estimator
// worker owns one simulation World and one SplitMix64 random stream
// (internal/rng), both recycled across trials. Rewinding for trial i is a
// single-word reseed plus a buffer-reusing World.Reset — no per-trial
// world, RNG table, or per-step map allocations. Trial i always runs on
// the stream seeded with seed+i, so estimates are identical for any
// worker count.
//
// The pooling contract for Policy implementations: the World passed to
// Run may be recycled for another trial as soon as Run returns. Policies
// must not retain the World, its Rng, or any slice obtained from it
// (completion lists from Step/StepMulti are additionally invalidated by
// the next step). Policies that loop over steps should use the
// World.AppendRemaining/AppendEligible variants with a caller-owned
// buffer to stay allocation-free themselves.
//
// The LP layer mirrors the simulator's pooling: each Monte Carlo worker's
// trial stream runs on one rounding.Workspace, which owns a sparse
// revised-simplex solver — compressed-column constraint storage, an
// LU-factorized basis with product-form eta updates, and candidate-list
// partial pricing (internal/lp, the only engine; a dense tableau survives
// in its tests as the differential reference). Every relaxation starts
// cold: SEM's round re-solves, so each survivor set's rounding is a pure
// function of (instance, survivors, target) and rounding.Cache shares it
// across trials and requests, and SUU-T's per-block LP2 solves, so each
// block's rounding is a pure function of (instance, chains) and
// rounding.LP2Cache shares it across trials. The rounding path
// (roundByFlow's group sums, flow network, and edge lists) runs on
// workspace scratch too, so steady-state trials allocate only their
// escaping results. The sparse engine turned
// the n=128/m=32 full-set LP1 from ~250 ms (dense) into single-digit
// milliseconds and opened the n=256/m=64 Table-1 cells (t1-xlarge).
//
// # Service
//
// internal/service + cmd/suud turn the library into an online planning
// service: POST /v1/plan returns the LP-rounded oblivious schedule for an
// instance (LP1 for independent jobs, LP2 for chains), POST /v1/estimate
// returns a Monte Carlo makespan estimate (NDJSON progress streaming with
// "stream": true), /healthz and /metrics expose liveness and counters.
// Requests are admission-controlled (bounded queue, fast 429s), coalesced
// (duplicate in-flight requests share one computation via a singleflight
// keyed on sched.Fingerprint, a canonical content hash of (m, n, q,
// prec)), and cached in a sharded LRU under the same content-addressed
// keys. Computations run on the same pooled rounding.Workspace / policy
// machinery the Monte Carlo engine uses (race-tested for concurrent
// sharing). Estimates share LP1 roundings across requests through one
// planner-lifetime rounding.Cache keyed by content fingerprint and
// bounded by an LRU byte budget, so finished computations retain no
// instance. cmd/suuload is the fabbench-style open-loop
// load harness (Poisson or fixed-rate arrivals, per-op latency in a
// log-scale stats.Histogram, BENCH-compatible JSON reports);
// examples/service runs the whole loop in one process.
//
// Benchmarks: `go test -bench . -benchmem` runs reduced-scale experiment
// benchmarks (bench_test.go) plus engine micro-benchmarks in
// internal/sim, internal/lp, and internal/rounding. The committed
// BENCH_*.json records track measured performance PR over PR; regenerate
// with
//
//	go run ./cmd/suubench -run t1-indep -scale-large -json -note "..." > BENCH_<tag>.json
package suu
