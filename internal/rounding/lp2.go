package rounding

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/sched"
)

// LP2Result is a rounded solution of (LP2) for disjoint chains (Section 4).
// The chains may cover only a subset of the instance's jobs (SUU-T solves
// one (LP2) per decomposition block); uncovered jobs get no assignment.
type LP2Result struct {
	// Assignment gives every covered job log mass ≥ 1 (capped ℓ′=min(ℓ,1)).
	Assignment *sched.Assignment
	// JobLength is d̂_j = max(1, max_i x̂_ij) for covered jobs, 0 otherwise.
	JobLength []int64
	// TFrac is the LP optimum t*, which Lemma 5 lower-bounds against
	// O(E[T_OPT]).
	TFrac float64
	// Load is the max machine load of the rounded assignment.
	Load int64
	// Repairs counts post-rounding fix-up steps (0 in practice).
	Repairs int
}

// SolveLP2 solves the relaxation of (LP2):
//
//	min t  s.t.  Σ_i ℓ′_ij x_ij ≥ 1 (j covered),  Σ_j x_ij ≤ t (i),
//	             Σ_{j∈C_k} d_j ≤ t (C_k),  x_ij ≤ d_j,  d_j ≥ 1,  x ≥ 0,
//
// with ℓ′ = min(ℓ, 1). The d_j ≥ 1 bound is folded in by the substitution
// d_j = 1 + e_j, e_j ≥ 0, which spares n artificial variables. The m·k cap
// rows x_ij ≤ d_j are generated lazily: the LP is solved on the cover,
// machine and chain rows, and only the caps the solution violates are
// added back (see lp2Solution). The answer satisfies every cap and has the
// full relaxation's optimum t*. It returns the fractional x*[i][pos] and
// d*[pos] indexed by position in the flattened chain order, the flattened
// job list, and t*. One-shot callers only; hot paths hold a Workspace.
func SolveLP2(ins *model.Instance, chains []dag.Chain) ([][]float64, []float64, []int, float64, error) {
	return NewWorkspace().solveLP2(ins, chains)
}

// LP2 variable layout: t first, then e_pos (d_pos = 1 + e_pos), then
// x_{i,pos}. The simplex's candidate-list scan and its ratio-test ties
// follow column order, so the order steers the pivot path: with t and e
// ahead of the m·k x columns the cold core solve on chains (seeds 1–10)
// takes 0.7 ms against 1.7 ms with t last at m=16/n=64, and 3 ms against
// 9.5 ms at m=32/n=128.
const lp2T = 0

func lp2E(pos int) int { return 1 + pos }

func lp2X(k, i, pos int) int { return 1 + k + i*k + pos }

// buildLP2 assembles the core of the (LP2) relaxation for the given chains
// into the workspace's reusable Problem (sharing the LP1 build arenas — a
// workspace builds one problem at a time), in the lp2T/lp2E/lp2X variable
// layout. Row order: cover rows (one per job, in flattened chain order),
// machine rows, then chain rows; no x ≤ d cap rows, which row generation
// appends after them (appendCap). The term arena is sized for the core
// plus every cap, so appended caps never reallocate it. It returns the
// flattened job list, which aliases a workspace arena valid until the
// next build.
func (ws *Workspace) buildLP2(ins *model.Instance, chains []dag.Chain) (*lp.Problem, []int, error) {
	m := ins.M
	jobs := ws.lp2Jobs[:0]
	for _, c := range chains {
		for _, j := range c {
			if j < 0 || j >= ins.N {
				return nil, nil, fmt.Errorf("rounding: chain job %d out of range", j)
			}
			jobs = append(jobs, j)
		}
	}
	ws.lp2Jobs = jobs
	k := len(jobs)
	if k == 0 {
		return nil, nil, nil
	}
	if cap(ws.lp2Pos) < ins.N {
		ws.lp2Pos = make([]int32, ins.N)
	}
	posOf := ws.lp2Pos[:ins.N]
	for j := range posOf {
		posOf[j] = -1
	}
	for pos, j := range jobs {
		if posOf[j] >= 0 {
			return nil, nil, fmt.Errorf("rounding: job %d appears in two chains", j)
		}
		posOf[j] = int32(pos)
	}
	nv := m*k + k + 1
	// Term capacity for the core rows — cover (≤ m terms each), machine
	// (k+1), chain (len+1) — plus 2 for each of the m·k possible caps.
	nt := m*(k+1) + 3*m*k + len(chains)
	for _, c := range chains {
		nt += len(c)
	}
	p := &ws.prob
	p.NumVars = nv
	ws.cbuf = growFloats(ws.cbuf, nv)
	p.C = ws.cbuf
	p.C[lp2T] = 1
	p.Cons = p.Cons[:0]
	if cap(ws.terms) < nt {
		ws.terms = make([]lp.Term, 0, nt)
	}
	arena := ws.terms[:0]
	for pos, j := range jobs {
		start := len(arena)
		for i := 0; i < m; i++ {
			if l := math.Min(ins.L[i][j], 1); l > 0 {
				arena = append(arena, lp.Term{Var: lp2X(k, i, pos), Coef: l})
			}
		}
		if len(arena) == start {
			return nil, nil, fmt.Errorf("rounding: job %d has zero log failure on every machine", j)
		}
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.GE, 1)
	}
	for i := 0; i < m; i++ {
		start := len(arena)
		for pos := 0; pos < k; pos++ {
			arena = append(arena, lp.Term{Var: lp2X(k, i, pos), Coef: 1})
		}
		arena = append(arena, lp.Term{Var: lp2T, Coef: -1})
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.LE, 0)
	}
	for _, c := range chains {
		start := len(arena)
		for _, j := range c {
			arena = append(arena, lp.Term{Var: lp2E(int(posOf[j])), Coef: 1})
		}
		arena = append(arena, lp.Term{Var: lp2T, Coef: -1})
		// Σ (1+e_j) ≤ t  ⇔  Σ e_j − t ≤ −|C_k|.
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.LE, -float64(len(c)))
	}
	ws.terms = arena
	return p, jobs, nil
}

// appendCap appends the cap row x_{i,pos} ≤ d_pos = 1 + e_pos to the
// problem buildLP2 assembled, taking its two terms from the arena's
// reserved tail.
func (ws *Workspace) appendCap(p *lp.Problem, k, i, pos int) {
	start := len(ws.terms)
	ws.terms = append(ws.terms, lp.Term{Var: lp2X(k, i, pos), Coef: 1}, lp.Term{Var: lp2E(pos), Coef: -1})
	p.AddConstraint(ws.terms[start:len(ws.terms):len(ws.terms)], lp.LE, 1)
}

// lp2MaxCapRounds and lp2WorkBudget bound row generation. After a
// re-solve that still violates caps, lp2Solution hands over to the full LP
// (solved cold) once it has made lp2MaxCapRounds re-solves or once the
// re-solves' simplex work, Σ pivots × rows, exceeds lp2WorkBudget times
// an estimate of the full LP's: the core solve's pivots times the full
// row count. The budget is what stops the costly case: a warm re-solve
// whose dual repair runs out of iterations re-solves cold, and a run of
// those costs more than the full LP: with the round limit alone,
// chains-skewed seed 1 at m=16/n=64 ran 12 such re-solves, 0.20 s against
// 0.02 s for the full LP.
//
// Measured against the full-row LP solved cold (GOMAXPROCS=1, 2-vCPU Xeon
// VM; seeds 1–10 at m=8/n=40 and m=16/n=64, 1–4 at m=32/n=128), summed
// time, generation/full:
//   - chains: 0.22, 0.13, 0.08 — no cap is ever violated past m=8.
//   - chains-hard: 0.59, 0.34, 0.65; 1–11 re-solves; one m=32 seed is
//     slower (0.24 s against 0.20 s).
//   - chains-skewed: 1.86, 0.65, 0.59. Nine of ten m=8 seeds are slower
//     (0.8–10 ms against 2.7–5.5 ms), as are seeds 1 and 6 at m=16
//     (48 and 36 ms against 20 and 19 ms) and seed 1 at m=32 (0.41 s
//     against 0.22 s); each of those ends in the full LP.
//
// Replaying the measured per-round costs, a budget of 0.3 sends more
// chains-hard solves to the fallback and 0.75 makes the failing
// chains-skewed ones costlier; 0.5 minimised the summed time. No
// converging solve needed more than 11 re-solves.
const (
	lp2MaxCapRounds = 12
	lp2WorkBudget   = 0.5
)

// lp2CapTol is the violation a cap may keep without being generated: the
// engine's own primal feasibility tolerance.
const lp2CapTol = 1e-9

// solveLP2 solves the (LP2) relaxation on the workspace's solver (see
// lp2Solution) and unpacks the optimum into x*, d*, the flattened job list
// and t*.
func (ws *Workspace) solveLP2(ins *model.Instance, chains []dag.Chain) ([][]float64, []float64, []int, float64, error) {
	m := ins.M
	sol, jobs, err := ws.lp2Solution(ins, chains)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	k := len(jobs)
	if k == 0 {
		return make([][]float64, m), nil, nil, 0, nil
	}
	x := make([][]float64, m)
	for i := 0; i < m; i++ {
		x[i] = sol.X[lp2X(k, i, 0):lp2X(k, i+1, 0)]
	}
	dstar := make([]float64, k)
	for pos := 0; pos < k; pos++ {
		dstar[pos] = 1 + sol.X[lp2E(pos)]
	}
	return x, dstar, jobs, sol.Obj, nil
}

// lp2Solution solves the (LP2) relaxation by row generation and returns
// the final solve's Solution with the flattened job list (nil Solution for
// an empty job list).
//
// The first solve covers the core rows only and is cold, so the result
// depends only on (instance, chains), never on what the workspace solved
// before: SUU-T's decomposition blocks each solve from scratch, and a
// block's rounding is shared by every trial and every caller that solves
// the same chains.
//
// Each round then appends every cap the solution violates, in (machine,
// position) order, and re-solves warm from the previous basis with the
// new rows hinted NoHint: a new cap enters with its slack basic, the old
// basis stays dual feasible, and the solver's dual repair restores primal
// feasibility. When that repair gives up the solver re-solves the same
// rows cold, which is still that round's optimum, so generation goes on
// from it. Caps are chosen from the solution alone, so equal inputs give
// equal row sets and SUU-T's Monte Carlo stays deterministic across
// worker counts. When caps are still violated after lp2MaxCapRounds
// re-solves, or after the re-solves have spent lp2WorkBudget of the full
// LP's estimated work, the rows are reset to the core plus every cap in
// (machine, position) order and solved cold — the full relaxation.
// Correctness never depends on a hint or on the generated row set: every
// returned solution satisfies every cap to within lp2CapTol and is optimal
// for the full relaxation.
func (ws *Workspace) lp2Solution(ins *model.Instance, chains []dag.Chain) (*lp.Solution, []int, error) {
	p, jobs, err := ws.buildLP2(ins, chains)
	if err != nil || len(jobs) == 0 {
		return nil, jobs, err
	}
	m, k := ins.M, len(jobs)
	coreRows, coreTerms := len(p.Cons), len(ws.terms)
	sol, err := ws.solver.Solve(p)
	var budget, spent int
	for round, full := 0, false; ; round++ {
		if err != nil {
			return nil, nil, fmt.Errorf("rounding: LP2 solve: %w", err)
		}
		if sol.Status != lp.Optimal {
			// LP2 is feasible and bounded by construction, so any other
			// status is the engine's tolerances failing this instance.
			return nil, nil, fmt.Errorf("rounding: LP2 status %v: %w", sol.Status, lp.ErrUnsolvable)
		}
		if full {
			return sol, jobs, nil
		}
		if round == 0 {
			// The core's row count floors the budget's pivot estimate.
			budget = int(lp2WorkBudget * float64(max(sol.Iters, coreRows)*(coreRows+m*k)))
		}
		prevRows := len(p.Cons)
		for i := 0; i < m; i++ {
			for pos := 0; pos < k; pos++ {
				if sol.X[lp2X(k, i, pos)] > 1+sol.X[lp2E(pos)]+lp2CapTol {
					ws.appendCap(p, k, i, pos)
				}
			}
		}
		added := len(p.Cons) - prevRows
		if added == 0 {
			return sol, jobs, nil
		}
		ws.LP2Caps += added
		if round == lp2MaxCapRounds || spent > budget {
			ws.LP2FullSolves++
			full = true
			p.Cons, ws.terms = p.Cons[:coreRows], ws.terms[:coreTerms]
			for i := 0; i < m; i++ {
				for pos := 0; pos < k; pos++ {
					ws.appendCap(p, k, i, pos)
				}
			}
			sol, err = ws.solver.Solve(p)
			continue
		}
		ws.LP2CapRounds++
		hint := resizeInts(ws.lp2Hint, len(p.Cons))
		ws.lp2Hint = hint
		copy(hint, sol.Basis)
		for r := prevRows; r < len(hint); r++ {
			hint[r] = lp.NoHint
		}
		sol, err = ws.solver.SolveWarm(p, hint)
		if err == nil {
			spent += sol.Iters * len(p.Cons)
		}
	}
}

// BeginLP2 is a no-op. LP2 solves carry no state from one block to the
// next, so a block sequence needs no reset; the method remains for
// existing callers.
func (ws *Workspace) BeginLP2() {}

// RoundLP2 implements Lemma 6: the Lemma 2 rounding with per-job edge
// capacities ⌈6d*_j⌉ in the flow network, which keeps every chain's total
// length within a constant factor of t*.
func RoundLP2(ins *model.Instance, chains []dag.Chain) (*LP2Result, error) {
	return roundLP2(ins, chains, NewWorkspace())
}

func roundLP2(ins *model.Instance, chains []dag.Chain, ws *Workspace) (*LP2Result, error) {
	xfrac, dstar, jobs, tstar, err := ws.solveLP2(ins, chains)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return &LP2Result{
			Assignment: sched.NewAssignment(ins.M, ins.N),
			JobLength:  make([]int64, ins.N),
		}, nil
	}
	edgeCap := func(pos, i int) int64 {
		return int64(math.Ceil(6*dstar[pos] - capEps))
	}
	asn := sched.NewAssignment(ins.M, ins.N)
	repairs, err := roundByFlow(ins, jobs, 1, xfrac, tstar, edgeCap, &ws.flow, asn)
	if err != nil {
		return nil, err
	}
	dl := make([]int64, ins.N)
	for _, j := range jobs {
		dl[j] = asn.JobLength(j)
		if dl[j] < 1 {
			dl[j] = 1
		}
	}
	return &LP2Result{
		Assignment: asn,
		JobLength:  dl,
		TFrac:      tstar,
		Load:       asn.MaxLoad(),
		Repairs:    repairs,
	}, nil
}
