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
	// Basis is the LP solver's optimal basis for the relaxation (see
	// lp.Solution.Basis), recorded so SUU-T's next decomposition block can
	// seed its machine rows from this one (the LP2 cross-block warm chain;
	// see Workspace).
	Basis []int
}

// SolveLP2 solves the relaxation of (LP2):
//
//	min t  s.t.  Σ_i ℓ′_ij x_ij ≥ 1 (j covered),  Σ_j x_ij ≤ t (i),
//	             Σ_{j∈C_k} d_j ≤ t (C_k),  x_ij ≤ d_j,  d_j ≥ 1,  x ≥ 0,
//
// with ℓ′ = min(ℓ, 1). The d_j ≥ 1 bound is folded in by the substitution
// d_j = 1 + e_j, e_j ≥ 0, which spares n artificial variables. It returns
// the fractional x*[i][pos] and d*[pos] indexed by position in the
// flattened chain order, the flattened job list, and t*. One-shot callers
// only; hot paths hold a Workspace.
func SolveLP2(ins *model.Instance, chains []dag.Chain) ([][]float64, []float64, []int, float64, error) {
	return NewWorkspace().solveLP2(ins, chains)
}

// buildLP2 assembles the (LP2) relaxation for the given chains into the
// workspace's reusable Problem (sharing the LP1 build arenas — a workspace
// builds one problem at a time). Row order: cover rows (one per job, in
// flattened chain order), machine rows, chain rows, then the x ≤ d cap
// rows. Variables: x_{i,pos} at i*k+pos, e_pos at m*k+pos (d = 1+e), t
// last. It returns the flattened job list, which aliases a workspace arena
// valid until the next build.
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
	if cap(ws.newPos) < ins.N {
		ws.newPos = make([]int32, ins.N)
	}
	posOf := ws.newPos[:ins.N]
	for j := range posOf {
		posOf[j] = -1
	}
	for pos, j := range jobs {
		if posOf[j] >= 0 {
			return nil, nil, fmt.Errorf("rounding: job %d appears in two chains", j)
		}
		posOf[j] = int32(pos)
	}
	xv := func(i, pos int) int { return i*k + pos }
	ev := func(pos int) int { return m*k + pos }
	tv := m*k + k
	nv := m*k + k + 1
	// Exact term count so the arena never reallocates mid-build: cover
	// rows (≤ m terms each), machine rows (k+1), chain rows (len+1), cap
	// rows (2 each).
	nt := m*(k+1) + 3*m*k + len(chains)
	for _, c := range chains {
		nt += len(c)
	}
	p := &ws.prob
	p.NumVars = nv
	ws.cbuf = growFloats(ws.cbuf, nv)
	p.C = ws.cbuf
	p.C[tv] = 1
	p.Cons = p.Cons[:0]
	if cap(ws.terms) < nt {
		ws.terms = make([]lp.Term, 0, nt)
	}
	arena := ws.terms[:0]
	for pos, j := range jobs {
		start := len(arena)
		for i := 0; i < m; i++ {
			if l := math.Min(ins.L[i][j], 1); l > 0 {
				arena = append(arena, lp.Term{Var: xv(i, pos), Coef: l})
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
			arena = append(arena, lp.Term{Var: xv(i, pos), Coef: 1})
		}
		arena = append(arena, lp.Term{Var: tv, Coef: -1})
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.LE, 0)
	}
	for _, c := range chains {
		start := len(arena)
		for _, j := range c {
			arena = append(arena, lp.Term{Var: ev(int(posOf[j])), Coef: 1})
		}
		arena = append(arena, lp.Term{Var: tv, Coef: -1})
		// Σ (1+e_j) ≤ t  ⇔  Σ e_j − t ≤ −|C_k|.
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.LE, -float64(len(c)))
	}
	for i := 0; i < m; i++ {
		for pos := 0; pos < k; pos++ {
			start := len(arena)
			// x_ij ≤ d_j = 1 + e_j.
			arena = append(arena, lp.Term{Var: xv(i, pos), Coef: 1}, lp.Term{Var: ev(pos), Coef: -1})
			p.AddConstraint(arena[start:len(arena):len(arena)], lp.LE, 1)
		}
	}
	ws.terms = arena[:0]
	return p, jobs, nil
}

// solveLP2 solves the (LP2) relaxation on the workspace's solver,
// warm-started from the LP2 cross-block chain when one is recorded. SUU-T
// solves one (LP2) per forest-decomposition block on the same machine set;
// the blocks' job sets are disjoint, so job columns carry nothing across,
// but the machine rows do: the previous block's machine-row basics (slack
// vs t) are remapped onto this block's machine rows and every other row
// defaults to its own slack/artificial, exactly the Workspace treatment
// SEM's LP1 rounds get. Correctness never depends on the hint — the solver
// falls back to a cold solve on any trouble. Advancing the chain is the
// caller's job (advanceLP2), so cache hits can advance it identically.
func (ws *Workspace) solveLP2(ins *model.Instance, chains []dag.Chain) ([][]float64, []float64, []int, float64, error) {
	m := ins.M
	p, jobs, err := ws.buildLP2(ins, chains)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	k := len(jobs)
	if k == 0 {
		// No solve happened; clear the last-basis slot so an empty block
		// can never publish a previous block's basis through LP2Result.
		ws.lp2LastBasis = nil
		return make([][]float64, m), nil, nil, 0, nil
	}
	var sol *lp.Solution
	if ws.lp2Compatible(ins) {
		sol, err = ws.solver.SolveWarm(p, ws.buildLP2Hint(ins, chains, k))
	} else {
		sol, err = ws.solver.Solve(p)
	}
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("rounding: LP2 solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		// LP2 is feasible and bounded by construction, so any other
		// status is the engine's tolerances failing this instance.
		return nil, nil, nil, 0, fmt.Errorf("rounding: LP2 status %v: %w", sol.Status, lp.ErrUnsolvable)
	}
	x := make([][]float64, m)
	for i := 0; i < m; i++ {
		x[i] = sol.X[i*k : (i+1)*k]
	}
	ev := func(pos int) int { return m*k + pos }
	dstar := make([]float64, k)
	for pos := 0; pos < k; pos++ {
		dstar[pos] = 1 + sol.X[ev(pos)]
	}
	ws.lp2LastBasis = sol.Basis
	return x, dstar, jobs, sol.Obj, nil
}

// lp2Compatible reports whether the LP2 chain can seed a solve on this
// instance: same instance (hence same machine set) and a recorded basis.
func (ws *Workspace) lp2Compatible(ins *model.Instance) bool {
	return ws.lp2Ins == ins && len(ws.lp2Basis) > 0
}

// buildLP2Hint remaps the previous block's machine-row basis entries onto
// the new block's rows: machine row i keeps its basic column when that was
// its own slack or the t variable; every other row (cover, chain, cap —
// all tied to departed jobs) gets NoHint and defaults to its initial
// slack/artificial.
func (ws *Workspace) buildLP2Hint(ins *model.Instance, chains []dag.Chain, k int) []int {
	m := ins.M
	prevK := ws.lp2K
	prevTv := m*prevK + prevK
	nRows := k + m + len(chains) + m*k
	hint := resizeInts(ws.hint, nRows)
	ws.hint = hint
	for r := range hint {
		hint[r] = lp.NoHint
	}
	tv := m*k + k
	for i := 0; i < m; i++ {
		e := ws.lp2Basis[prevK+i]
		switch {
		case e == prevTv:
			hint[k+i] = tv
		case e != lp.NoHint && e < 0:
			if rr := -1 - e; rr >= prevK && rr < prevK+m {
				hint[k+i] = -1 - (k + (rr - prevK))
			}
		}
	}
	return hint
}

// BeginLP2 resets the LP2 cross-block chain. Call it before the first
// block of an independent block sequence (SUU-T does, once per trial) so
// chain state never leaks between Monte Carlo trials.
func (ws *Workspace) BeginLP2() {
	ws.lp2Ins = nil
	ws.lp2Basis = nil
	ws.lp2K = 0
	ws.lp2Hash = 0
}

// advanceLP2 records a solved block as the new chain tail so the next
// block's machine rows can warm-start from it. An empty basis (empty
// block) resets the chain instead.
func (ws *Workspace) advanceLP2(ins *model.Instance, basis []int, k int, chainsHash uint64) {
	if len(basis) == 0 || k == 0 {
		ws.BeginLP2()
		return
	}
	ws.lp2Ins = ins
	ws.lp2Basis = basis
	ws.lp2K = k
	ws.lp2Hash = mix2(ws.lp2Hash, chainsHash)
}

// lp2KeyHash is the cache-key hash for solving this chain structure as the
// next block of the workspace's LP2 chain. With no chain history it equals
// the plain structure hash, so a sequence's first (cold, deterministic)
// block shares its cache entry with standalone SUU-C callers.
func (ws *Workspace) lp2KeyHash(chainsHash uint64) uint64 {
	if ws.lp2Hash != 0 {
		return mix2(ws.lp2Hash, chainsHash)
	}
	return chainsHash
}

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
		Basis:      ws.lp2LastBasis,
	}, nil
}
