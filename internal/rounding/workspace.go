package rounding

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/sched"
)

// Workspace is a per-goroutine LP engine for the paper's relaxations. It
// owns a reusable lp.Solver (sparse simplex state, grown monotonically —
// see package lp), arenas for building the LP1/LP2 constraint rows without
// per-solve allocation, and the warm-start chain state for SEM's
// shrinking-subset / doubling-target re-solves.
//
// The warm chain works like this: after each LP1 solve the workspace
// remembers (instance, job list, target L, optimal basis). When the next
// solve asks for a subset of those jobs at target 2L — exactly how
// SUU-I-SEM's round k+1 relates to round k — the previous basis is
// remapped onto the new problem's columns (departed job columns dropped,
// cover and machine rows re-indexed) and handed to lp.Solver.SolveWarm,
// which skips phase 1 and repairs feasibility with dual pivots. Any other
// request solves cold. Begin resets the chain; call it at the start of
// each independent solve sequence (SEM does, once per subproblem) so state
// never leaks between Monte Carlo trials.
//
// A Workspace is not safe for concurrent use. Monte Carlo workers should
// each hold one for their whole trial stream; WorkspacePool hands them out.
type Workspace struct {
	solver *lp.Solver

	// problem-build arenas, reused across solves
	prob  lp.Problem
	cbuf  []float64
	terms []lp.Term
	hint  []int

	// fpIns/fp memoize the content fingerprint Cache keys on, so a worker
	// hashes its computation's instance once, not once per lookup.
	fpIns *model.Instance
	fp    sched.Fingerprint

	// warm chain: the previous LP1 solve this workspace can extend
	chainIns   *model.Instance
	chainJobs  []int
	chainL     float64
	chainBasis []int
	chainHash  uint64
	chainPos   []int32 // job id -> position in chainJobs, -1 otherwise
	newPos     []int32 // scratch: job id -> position in the current solve

	// LP2 cross-block warm chain (see solveLP2): the previous forest-
	// decomposition block this workspace solved, whose machine-row basis
	// seeds the next block's solve.
	lp2Ins       *model.Instance
	lp2Basis     []int
	lp2K         int    // previous block's flattened job count
	lp2Hash      uint64 // block-sequence history, keys chained cache entries
	lp2Jobs      []int  // flattened-job-list arena for buildLP2
	lp2LastBasis []int  // basis recorded by the most recent solveLP2

	// LP2 row-generation diagnostics (see lp2Solution), cumulative over
	// the workspace's life and readable between solves like lp.Solver's
	// counters: cap rows generated, warm re-solves after adding caps, and
	// solves handed to the full relaxation by the round limit or the work
	// budget.
	LP2Caps, LP2CapRounds, LP2FullSolves int

	// flow is the rounding scratch (group buffers, flow network, edge
	// list) roundByFlow reuses across trials.
	flow roundScratch
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{solver: lp.NewSolver()}
}

// Solver exposes the underlying LP solver (diagnostics: warm/cold counts).
func (ws *Workspace) Solver() *lp.Solver { return ws.solver }

// fingerprint returns ins's content fingerprint, computed once per
// instance the workspace sees in a row. Instances are immutable once
// built, so the pointer identifies the content while the workspace holds
// it.
func (ws *Workspace) fingerprint(ins *model.Instance) sched.Fingerprint {
	if ws.fpIns != ins {
		ws.fp = sched.FingerprintInstance(ins)
		ws.fpIns = ins
	}
	return ws.fp
}

// Begin resets the warm chain. Call it before the first solve of an
// independent re-solve sequence; solves before the next chain link is
// recorded run cold.
func (ws *Workspace) Begin() {
	if ws.chainIns != nil {
		for _, j := range ws.chainJobs {
			ws.chainPos[j] = -1
		}
	}
	ws.chainIns = nil
	ws.chainJobs = ws.chainJobs[:0]
	ws.chainBasis = nil
	ws.chainL = 0
	ws.chainHash = 0
}

// buildLP1 assembles the LP1(jobs, L) relaxation into the workspace's
// reusable Problem. The constraint structure matches SolveLP1's doc
// comment: variables x_{i,pos} at i*k+pos, t at m*k; cover rows first,
// then machine rows.
func (ws *Workspace) buildLP1(ins *model.Instance, jobs []int, L float64) (*lp.Problem, error) {
	k := len(jobs)
	m := ins.M
	nv := m*k + 1
	// Exact term count: one per positive capped rate, plus the machine
	// rows' k+1 terms each — so the arena never reallocates mid-build and
	// every constraint's Terms slice stays valid.
	nt := m * (k + 1)
	for _, j := range jobs {
		if j < 0 || j >= ins.N {
			return nil, fmt.Errorf("rounding: job %d out of range", j)
		}
		for i := 0; i < m; i++ {
			if math.Min(ins.L[i][j], L) > 0 {
				nt++
			}
		}
	}
	p := &ws.prob
	p.NumVars = nv
	ws.cbuf = growFloats(ws.cbuf, nv)
	p.C = ws.cbuf
	p.C[m*k] = 1
	p.Cons = p.Cons[:0]
	if cap(ws.terms) < nt {
		ws.terms = make([]lp.Term, 0, nt)
	}
	arena := ws.terms[:0]
	for pos, j := range jobs {
		start := len(arena)
		for i := 0; i < m; i++ {
			if l := math.Min(ins.L[i][j], L); l > 0 {
				arena = append(arena, lp.Term{Var: i*k + pos, Coef: l})
			}
		}
		if len(arena) == start {
			return nil, fmt.Errorf("rounding: job %d has zero log failure on every machine", j)
		}
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.GE, L)
	}
	for i := 0; i < m; i++ {
		start := len(arena)
		for pos := 0; pos < k; pos++ {
			arena = append(arena, lp.Term{Var: i*k + pos, Coef: 1})
		}
		arena = append(arena, lp.Term{Var: m * k, Coef: -1})
		p.AddConstraint(arena[start:len(arena):len(arena)], lp.LE, 0)
	}
	ws.terms = arena[:0]
	return p, nil
}

// solveLP1 solves the LP1(jobs, L) relaxation on the workspace's solver.
// With warm true it warm-starts from the chain when (jobs, L) extends it
// (jobs ⊆ previous jobs, L = 2·previous L); correctness never depends on
// the hint — the solver falls back to a cold solve on any trouble. The
// returned x rows alias the Solution and stay valid until the caller drops
// them; the basis is what advanceChain and LP1Result.Basis carry.
func (ws *Workspace) solveLP1(ins *model.Instance, jobs []int, L float64, warm bool) ([][]float64, float64, []int, error) {
	if L <= 0 {
		return nil, 0, nil, fmt.Errorf("rounding: target L = %g must be positive", L)
	}
	k := len(jobs)
	if k == 0 {
		return make([][]float64, ins.M), 0, nil, nil
	}
	p, err := ws.buildLP1(ins, jobs, L)
	if err != nil {
		return nil, 0, nil, err
	}
	var sol *lp.Solution
	if warm && ws.chainCompatible(ins, jobs, L) {
		sol, err = ws.solver.SolveWarm(p, ws.buildHint(ins, jobs))
	} else {
		sol, err = ws.solver.Solve(p)
	}
	if err != nil {
		return nil, 0, nil, fmt.Errorf("rounding: LP1 solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		// LP1 is feasible and bounded by construction, so any other
		// status is the engine's tolerances failing this instance.
		return nil, 0, nil, fmt.Errorf("rounding: LP1 status %v: %w", sol.Status, lp.ErrUnsolvable)
	}
	m := ins.M
	x := make([][]float64, m)
	for i := 0; i < m; i++ {
		x[i] = sol.X[i*k : (i+1)*k]
	}
	return x, sol.Obj, sol.Basis, nil
}

// chainCompatible reports whether (jobs, L) is the next link of the warm
// chain: same instance, jobs a subset of the chain's, target doubled.
func (ws *Workspace) chainCompatible(ins *model.Instance, jobs []int, L float64) bool {
	if ws.chainIns != ins || len(ws.chainBasis) == 0 || len(jobs) > len(ws.chainJobs) {
		return false
	}
	if d := L - 2*ws.chainL; d > 1e-12*L || d < -1e-12*L {
		return false
	}
	for _, j := range jobs {
		if ws.chainPos[j] < 0 {
			return false
		}
	}
	return true
}

// buildHint remaps the chain's basis onto the new problem's encoding:
// surviving jobs keep their columns and cover rows under new positions,
// departed jobs' entries become NoHint, machine rows shift with k, and the
// t variable maps to the new t.
func (ws *Workspace) buildHint(ins *model.Instance, jobs []int) []int {
	m := ins.M
	prevK, k := len(ws.chainJobs), len(jobs)
	if cap(ws.newPos) < ins.N {
		ws.newPos = make([]int32, ins.N)
	}
	np := ws.newPos[:ins.N]
	ws.newPos = np
	for _, j := range ws.chainJobs {
		np[j] = -1
	}
	for pos, j := range jobs {
		np[j] = int32(pos)
	}
	hint := resizeInts(ws.hint, k+m)
	ws.hint = hint
	tPrev := m * prevK
	for r := range hint {
		var prevRow int
		if r < k {
			prevRow = int(ws.chainPos[jobs[r]])
		} else {
			prevRow = prevK + (r - k)
		}
		e := ws.chainBasis[prevRow]
		h := lp.NoHint
		switch {
		case e == tPrev:
			h = m * k
		case e >= 0:
			i, pos := e/prevK, e%prevK
			if p2 := np[ws.chainJobs[pos]]; p2 >= 0 {
				h = i*k + int(p2)
			}
		default:
			rr := -1 - e
			if rr < prevK {
				if p2 := np[ws.chainJobs[rr]]; p2 >= 0 {
					h = -1 - int(p2)
				}
			} else if rr < prevK+m {
				h = -1 - (k + (rr - prevK))
			}
		}
		hint[r] = h
	}
	return hint
}

// advanceChain records (jobs, L, basis) as the new chain tail so the next
// solve on a subset at 2L can warm-start. A nil basis (empty job set)
// resets the chain instead — there is nothing to extend.
func (ws *Workspace) advanceChain(ins *model.Instance, jobs []int, L float64, basis []int) {
	if len(basis) == 0 || len(jobs) == 0 {
		ws.Begin()
		return
	}
	nextHash := chainMix(ws.chainHash, hashJobs(jobs), L)
	switch {
	case cap(ws.chainPos) < ins.N:
		ws.chainPos = make([]int32, ins.N)
		for i := range ws.chainPos {
			ws.chainPos[i] = -1
		}
	case ws.chainIns == ins:
		ws.chainPos = ws.chainPos[:ins.N]
		for _, j := range ws.chainJobs {
			ws.chainPos[j] = -1
		}
	default:
		ws.chainPos = ws.chainPos[:ins.N]
		for i := range ws.chainPos {
			ws.chainPos[i] = -1
		}
	}
	ws.chainJobs = append(ws.chainJobs[:0], jobs...)
	for pos, j := range jobs {
		ws.chainPos[j] = int32(pos)
	}
	ws.chainIns = ins
	ws.chainL = L
	ws.chainBasis = basis
	ws.chainHash = nextHash
}

// chainKeyHash is the cache-key hash for solving (jobs, …) as the next
// link of the current chain. With no chain history it equals the plain
// hashJobs key, so a chain's first (cold, deterministic) solve shares its
// cache entry with non-chained callers of the same subproblem.
func (ws *Workspace) chainKeyHash(jobs []int) uint64 {
	h := hashJobs(jobs)
	if ws.chainHash != 0 {
		h = mix2(ws.chainHash, h)
	}
	return h
}

// roundLP1 solves (warm-aware when warm is set) and applies the Lemma 2
// rounding into the workspace's scratch assignment, serializing the
// result; the result carries the LP basis for chain advancement.
func (ws *Workspace) roundLP1(ins *model.Instance, jobs []int, L float64, warm bool) (*LP1Result, error) {
	if len(jobs) == 0 {
		return emptyLP1(ins), nil
	}
	x, tstar, basis, err := ws.solveLP1(ins, jobs, L, warm)
	if err != nil {
		return nil, err
	}
	asn := ws.flow.assignment(ins.M, ins.N, jobs)
	repairs, err := roundByFlow(ins, jobs, L, x, tstar, nil, &ws.flow, asn)
	if err != nil {
		return nil, err
	}
	return newLP1Result(asn, jobs, tstar, repairs, basis), nil
}

// WorkspacePool hands out Workspaces to concurrent Monte Carlo workers.
// The zero value is ready to use; policies embed one next to their caches
// so each worker's trial stream reuses one solver workspace end to end.
type WorkspacePool struct {
	p sync.Pool
}

// Get returns a workspace, creating one if the pool is empty.
func (wp *WorkspacePool) Get() *Workspace {
	if ws, ok := wp.p.Get().(*Workspace); ok {
		return ws
	}
	return NewWorkspace()
}

// Put returns a workspace to the pool.
func (wp *WorkspacePool) Put(ws *Workspace) {
	if ws != nil {
		wp.p.Put(ws)
	}
}

// growFloats returns buf resized to n, zeroed, reusing its backing array
// when capacity allows.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// resizeInts returns buf resized to n WITHOUT zeroing reused capacity
// (unlike package lp's growInts) — the caller must overwrite every entry.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
