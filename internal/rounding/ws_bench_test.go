package rounding

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// chainSets builds a deterministic SEM-style re-solve chain: the full job
// set, then survivor subsets with ~30% retention per round.
func chainSets(ins *model.Instance, rounds int) [][]int {
	rng := rand.New(rand.NewSource(99))
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	sets := [][]int{jobs}
	for r := 1; r < rounds; r++ {
		var surv []int
		for _, j := range sets[r-1] {
			if rng.Float64() < 0.3 {
				surv = append(surv, j)
			}
		}
		if len(surv) == 0 {
			break
		}
		sets = append(sets, surv)
	}
	return sets
}

// BenchmarkLP1SolveSparse pins the flagship solve — the n=128/m=32
// full-set LP1, solved cold on the default (sparse revised simplex)
// engine. CI holds its ns/op against the committed baseline
// (.github/bench-baseline.txt): this is the solve the LU-factorized basis
// and candidate pricing turned from ~250 ms (dense tableau) into
// single-digit milliseconds, and a regression here means the sparse engine
// rotted.
func BenchmarkLP1SolveSparse(b *testing.B) {
	cell := workload.Spec{Family: "uniform", M: 32, N: 128, Seed: 9}
	ins, err := workload.Generate(cell)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.solveLP1(ins, jobs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundLP1 measures the full rounding path — LP solve plus the
// grouping/flow rounding — on one workspace, extending the allocs/op
// coverage to roundByFlow: with the group window, flow network, and edge
// list threaded through the workspace, steady-state allocations are only
// the escaping result (Solution + Assignment).
func BenchmarkRoundLP1(b *testing.B) {
	cell := workload.Spec{Family: "uniform", M: 16, N: 64, Seed: 9}
	ins, err := workload.Generate(cell)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.roundLP1(ins, jobs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLP1Solve pins the LP engine itself on the large Table-1 cells:
// one iteration solves a whole SEM re-solve chain (full set at L=1/2, then
// shrinking survivor subsets at doubling targets), each link cold on a
// fresh workspace (SolveLP1), as SEM's rounds solve them.
func BenchmarkLP1Solve(b *testing.B) {
	for _, cell := range workload.Table1LargeCells() {
		cell.Seed = 9
		ins, err := workload.Generate(cell)
		if err != nil {
			b.Fatal(err)
		}
		sets := chainSets(ins, 4)
		b.Run(fmt.Sprintf("cold/n=%d/m=%d", cell.N, cell.M), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := 0.5
				for _, jobs := range sets {
					if _, _, err := SolveLP1(ins, jobs, l); err != nil {
						b.Fatal(err)
					}
					l *= 2
				}
			}
		})
	}
}

// BenchmarkLP2Solve pins the chain plan's LP: one cold (LP2) solve at
// m=16, n=64 on the chains family, the shape every fresh chain instance of
// a plan batch solves. Row generation solves it on its 96 core rows (cover,
// machine and chain) and finds no x ≤ d cap violated, so this is a single
// core solve; the full relaxation's 1024 cap rows are never built. CI
// holds its ns/op, and that of the two cells below, against the committed
// baseline (.github/bench-baseline.txt).
func BenchmarkLP2Solve(b *testing.B) {
	benchLP2Solve(b, "chains")
}

// BenchmarkLP2SolveHard is the chains-hard cell of BenchmarkLP2Solve: its
// specialist head jobs violate caps, so row generation adds a few dozen
// over a few warm re-solves.
func BenchmarkLP2SolveHard(b *testing.B) {
	benchLP2Solve(b, "chains-hard")
}

// BenchmarkLP2SolveSkewed is the chains-skewed cell of BenchmarkLP2Solve:
// its long chains pin d near 1, so caps bind on many machines and row
// generation runs the most rounds of the three families.
func BenchmarkLP2SolveSkewed(b *testing.B) {
	benchLP2Solve(b, "chains-skewed")
}

// benchLP2Solve solves the family's seed-9 (LP2) at m=16, n=64 cold once
// per iteration and reports row generation's re-solves and caps per solve.
func benchLP2Solve(b *testing.B, family string) {
	ins, err := workload.Generate(workload.Spec{Family: family, M: 16, N: 64, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	chains, err := ins.Chains()
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := ws.solveLP2(ins, chains); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ws.LP2CapRounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(ws.LP2Caps)/float64(b.N), "caps/op")
}
