// Benchmarks regenerating the paper's evaluation, one per table row and
// validation figure (run `suubench -list` for the experiment index). Each
// benchmark iteration runs the corresponding experiment at reduced scale;
// cmd/suubench runs the full sweeps, and its -json flag records measured
// results in the committed BENCH_*.json files.
package suu_test

import (
	"testing"

	suu "repro"
)

// benchScale keeps -bench=. runs fast while still executing the real
// pipeline (LP solve → rounding → simulation) end to end.
const benchScale = 0.3

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := suu.RunExperiment(id, suu.ExperimentConfig{
			Scale:  benchScale,
			Trials: 8,
			Seed:   int64(i + 1),
		})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// BenchmarkTable1Independent regenerates Table 1 row 1 (independent jobs):
// SEM (ours) vs OBL/greedy baselines, ratio to the LP lower bound.
func BenchmarkTable1Independent(b *testing.B) { runExperiment(b, "t1-indep") }

// BenchmarkTable1Chains regenerates Table 1 row 2 (disjoint chains):
// SUU-C vs the Lin–Rajaraman-style variant, ratio to the LP2 bound.
func BenchmarkTable1Chains(b *testing.B) { runExperiment(b, "t1-chains") }

// BenchmarkTable1Forest regenerates Table 1 row 3 (directed forests):
// SUU-T via heavy-path chain decomposition.
func BenchmarkTable1Forest(b *testing.B) { runExperiment(b, "t1-forest") }

// BenchmarkFigRounds validates Theorem 4: SEM uses ~2–3 of its K rounds.
func BenchmarkFigRounds(b *testing.B) { runExperiment(b, "f-rounds") }

// BenchmarkFigDelay validates Theorem 7: random delays bound congestion.
func BenchmarkFigDelay(b *testing.B) { runExperiment(b, "f-delay") }

// BenchmarkFigBatch isolates the long-job batch component: the log k vs
// log log k separation between OBL and SEM, with its crossover near k≈m.
func BenchmarkFigBatch(b *testing.B) { runExperiment(b, "f-batch") }

// BenchmarkFigExactRatio measures true approximation ratios against the
// exact DP optimum on small instances.
func BenchmarkFigExactRatio(b *testing.B) { runExperiment(b, "f-exact") }

// BenchmarkFigStoch regenerates the Appendix C stochastic-scheduling
// comparison (STC-I vs sequential-fastest).
func BenchmarkFigStoch(b *testing.B) { runExperiment(b, "f-stoch") }

// BenchmarkAblRounding is the Lemma 2 ablation: flow rounding vs naive
// per-entry ceilings.
func BenchmarkAblRounding(b *testing.B) { runExperiment(b, "a-rounding") }

// BenchmarkAblEquivalence is the Theorem 10 check: coin-flip SUU vs
// threshold SUU* agree in distribution.
func BenchmarkAblEquivalence(b *testing.B) { runExperiment(b, "a-equiv") }

// BenchmarkTable1IndependentLarge regenerates the large-instance cells
// (n=64/m=16, n=128/m=32) on pooled workspaces and the shared LP1 cache;
// BENCH_pr2.json records the full-scale run of this and its cold-engine
// baseline arm (t1-large-cold).
func BenchmarkTable1IndependentLarge(b *testing.B) { runExperiment(b, "t1-large") }

// BenchmarkSEMTrial measures one full SEM Monte Carlo trial on the
// n=64/m=16 large cell: after the first iteration warms the round-1 cache,
// steady-state cost is the survivor-set re-solves the cache misses,
// rounding, and fast-forward execution — the per-trial hot path of every large estimate.
func BenchmarkSEMTrial(b *testing.B) {
	ins, err := suu.Generate(suu.Spec{Family: "uniform", M: 16, N: 64, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	p := suu.NewSEM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := suu.Run(ins, p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSEM measures raw simulator throughput for the flagship
// algorithm on a mid-size instance (LP solves cached after the first
// iteration, so steady-state cost is rounding + fast-forward execution).
func BenchmarkSimulateSEM(b *testing.B) {
	ins, err := suu.Generate(suu.Spec{Family: "uniform", M: 16, N: 64, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	p := suu.NewSEM()
	for i := 0; i < b.N; i++ {
		if _, err := suu.Run(ins, p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateChains measures SUU-C end to end on a chains instance.
func BenchmarkSimulateChains(b *testing.B) {
	ins, err := suu.Generate(suu.Spec{Family: "chains", M: 8, N: 32, Z: 4, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	p := suu.NewChains()
	for i := 0; i < b.N; i++ {
		if _, err := suu.Run(ins, p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
