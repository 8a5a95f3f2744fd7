package lp_test

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// buildLP1 assembles the LP1(J, L) relaxation of an instance directly (the
// same structure internal/rounding builds): variables x_{i,j} at i·n+j and
// t at m·n, cover rows Σ_i min(ℓ_ij, L)·x_ij ≥ L per job, machine rows
// Σ_j x_ij − t ≤ 0. Building it here keeps the test a pure LP-engine
// check with no rounding layer in the loop.
func buildLP1(ins *model.Instance, L float64) *lp.Problem {
	m, n := ins.M, ins.N
	p := lp.NewProblem(m*n + 1)
	p.C[m*n] = 1
	for j := 0; j < n; j++ {
		var terms []lp.Term
		for i := 0; i < m; i++ {
			if l := math.Min(ins.L[i][j], L); l > 0 {
				terms = append(terms, lp.Term{Var: i*n + j, Coef: l})
			}
		}
		p.AddConstraint(terms, lp.GE, L)
	}
	for i := 0; i < m; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			terms = append(terms, lp.Term{Var: i*n + j, Coef: 1})
		}
		terms = append(terms, lp.Term{Var: m * n, Coef: -1})
		p.AddConstraint(terms, lp.LE, 0)
	}
	return p
}

// permuted returns the instance with machines mapped through σ and jobs
// through π: q'[i][j] = q[σ(i)][π(j)].
func permuted(t *testing.T, ins *model.Instance, sigma, pi []int) *model.Instance {
	t.Helper()
	q := make([][]float64, ins.M)
	for i := range q {
		q[i] = make([]float64, ins.N)
		for j := range q[i] {
			q[i][j] = ins.Q[sigma[i]][pi[j]]
		}
	}
	out, err := model.New(ins.M, ins.N, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randPerm(src *rng.SplitMix64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(src.Uint64() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestLP1MetamorphicPermutationInvariance is a standing differential check
// the family-based suites do not cover: LP1's optimal value is invariant
// under any relabeling of machines and jobs, so for generated instances —
// including degenerate rates and duplicated job columns, which reorder
// pivot ties — the sparse engine, the dense tableau reference, and both on
// a permuted copy must all report the same t* to 1e-6. A pivot-order or
// pricing bug that happens to cancel on nicely-ordered inputs cannot
// cancel on all 4 views at once.
func TestLP1MetamorphicPermutationInvariance(t *testing.T) {
	const L = 0.5
	count := 120
	if testing.Short() {
		count = 25
	}
	g := scenario.New(777)
	src := rng.New(778)
	sparse := lp.NewSolver()
	for sc := 0; sc < count; sc++ {
		ins, err := g.Instance(scenario.Independent)
		if err != nil {
			t.Fatal(err)
		}
		perm := permuted(t, ins, randPerm(src, ins.M), randPerm(src, ins.N))

		var tstars [4]float64
		for k, view := range []struct {
			ins   *model.Instance
			solve func(*lp.Problem) (*lp.Solution, error)
			name  string
		}{
			{ins, sparse.Solve, "sparse"},
			{ins, lp.SolveDenseReference, "dense"},
			{perm, sparse.Solve, "sparse/permuted"},
			{perm, lp.SolveDenseReference, "dense/permuted"},
		} {
			sol, err := view.solve(buildLP1(view.ins, L))
			if err != nil {
				t.Fatalf("scenario %d (%s, m=%d n=%d): %v", sc, view.name, view.ins.M, view.ins.N, err)
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("scenario %d (%s, m=%d n=%d): status %v", sc, view.name, view.ins.M, view.ins.N, sol.Status)
			}
			tstars[k] = sol.Obj
		}
		for k := 1; k < 4; k++ {
			if math.Abs(tstars[k]-tstars[0]) > 1e-6 {
				t.Fatalf("scenario %d (m=%d n=%d): t* disagrees across views: sparse=%.12g dense=%.12g sparse/perm=%.12g dense/perm=%.12g",
					sc, ins.M, ins.N, tstars[0], tstars[1], tstars[2], tstars[3])
			}
		}
	}
}
