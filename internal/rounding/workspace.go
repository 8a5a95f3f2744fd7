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
// see package lp) and arenas for building the LP1/LP2 constraint rows
// without per-solve allocation. Every LP1 and LP2 solve starts cold, so
// an LP1 rounding depends only on (instance, jobs, L) and an LP2 rounding
// only on (instance, chains) — never on what the workspace solved before.
// SEM's survivor roundings and SUU-T's block roundings therefore share
// cache entries across trials. The only warm solves are LP2 row
// generation's re-solves within one relaxation (see lp2Solution).
//
// A Workspace is not safe for concurrent use. Monte Carlo workers should
// each hold one for their whole trial stream; WorkspacePool hands them out.
type Workspace struct {
	solver *lp.Solver

	// problem-build arenas, reused across solves
	prob  lp.Problem
	cbuf  []float64
	terms []lp.Term

	// fpIns/fp memoize the content fingerprint Cache keys on, so a worker
	// hashes its computation's instance once, not once per lookup.
	fpIns *model.Instance
	fp    sched.Fingerprint

	// LP2 build and row-generation arenas (see buildLP2, lp2Solution).
	lp2Jobs []int   // flattened job list
	lp2Pos  []int32 // job id -> position, -1 if absent
	lp2Hint []int   // re-solve basis hint for SolveWarm

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

// Begin is a no-op. LP1 solves carry no state from one to the next, so an
// independent solve sequence needs no reset; the method remains for
// existing callers.
func (ws *Workspace) Begin() {}

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

// solveLP1 solves the LP1(jobs, L) relaxation cold on the workspace's
// solver. The returned x rows alias the Solution and stay valid until the
// caller drops them.
func (ws *Workspace) solveLP1(ins *model.Instance, jobs []int, L float64) ([][]float64, float64, error) {
	if L <= 0 {
		return nil, 0, fmt.Errorf("rounding: target L = %g must be positive", L)
	}
	k := len(jobs)
	if k == 0 {
		return make([][]float64, ins.M), 0, nil
	}
	p, err := ws.buildLP1(ins, jobs, L)
	if err != nil {
		return nil, 0, err
	}
	sol, err := ws.solver.Solve(p)
	if err != nil {
		return nil, 0, fmt.Errorf("rounding: LP1 solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		// LP1 is feasible and bounded by construction, so any other
		// status is the engine's tolerances failing this instance.
		return nil, 0, fmt.Errorf("rounding: LP1 status %v: %w", sol.Status, lp.ErrUnsolvable)
	}
	m := ins.M
	x := make([][]float64, m)
	for i := 0; i < m; i++ {
		x[i] = sol.X[i*k : (i+1)*k]
	}
	return x, sol.Obj, nil
}

// roundLP1 solves LP1(jobs, L) and applies the Lemma 2 rounding into the
// workspace's scratch assignment, serializing the result.
func (ws *Workspace) roundLP1(ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if len(jobs) == 0 {
		return emptyLP1(ins), nil
	}
	x, tstar, err := ws.solveLP1(ins, jobs, L)
	if err != nil {
		return nil, err
	}
	asn := ws.flow.assignment(ins.M, ins.N, jobs)
	repairs, err := roundByFlow(ins, jobs, L, x, tstar, nil, &ws.flow, asn)
	if err != nil {
		return nil, err
	}
	return newLP1Result(asn, jobs, tstar, repairs), nil
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
