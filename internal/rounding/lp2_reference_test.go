package rounding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// buildLP2Full is the full-row (LP2) builder solveLP2 used before row
// generation, kept as the reference the generated solve is held to. Its
// problem is the relaxation lp2Solution's fallback solves, with the
// columns in the old x, e, t order. It assembles the whole
// relaxation into the workspace's reusable Problem. Row order: cover rows
// (one per job, in flattened chain order), machine rows, chain rows, then
// the m·k x ≤ d cap rows. Variables: x_{i,pos} at i*k+pos, e_pos at
// m*k+pos (d = 1+e), t last. It returns the flattened job list, which
// aliases a workspace arena valid until the next build.
func (ws *Workspace) buildLP2Full(ins *model.Instance, chains []dag.Chain) (*lp.Problem, []int, error) {
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

// fullLP2 solves the reference full relaxation cold on a fresh workspace.
// ok is false when the engine cannot finish the full LP (scenario draws
// wander into numerically hopeless corners); there is nothing to compare
// against then.
func fullLP2(t *testing.T, ins *model.Instance, chains []dag.Chain) (p *lp.Problem, sol *lp.Solution, ok bool) {
	t.Helper()
	ws := NewWorkspace()
	p, jobs, err := ws.buildLP2Full(ins, chains)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		return nil, nil, false
	}
	sol, err = ws.solver.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		return nil, nil, false
	}
	return p, sol, true
}

// checkMatchesFull holds one row-generated solve (x*, d*, t* from
// solveLP2) to the full relaxation: t* equal to 1e-9 relative, and the
// point feasible for every row of the full problem, caps included.
func checkMatchesFull(t *testing.T, name string, ins *model.Instance, chains []dag.Chain, x [][]float64, d []float64, tstar float64) {
	t.Helper()
	p, full, ok := fullLP2(t, ins, chains)
	if !ok {
		t.Logf("%s: reference full LP unsolvable, skipped", name)
		return
	}
	if diff := math.Abs(tstar - full.Obj); diff > 1e-9*math.Max(1, math.Abs(full.Obj)) {
		t.Errorf("%s: row-generated t* = %.17g, full LP t* = %.17g (diff %g)", name, tstar, full.Obj, diff)
	}
	m, k := ins.M, len(d)
	pt := make([]float64, p.NumVars)
	for i := 0; i < m; i++ {
		copy(pt[i*k:(i+1)*k], x[i])
	}
	for pos := 0; pos < k; pos++ {
		pt[m*k+pos] = d[pos] - 1
	}
	pt[m*k+k] = tstar
	if r := p.Residual(pt); r > 1e-9 {
		t.Errorf("%s: row-generated solution violates the full LP by %g", name, r)
	}
}

// TestLP2RowGenMatchesFull holds solveLP2's row generation to the full
// relaxation (buildLP2Full) on the golden corpus's LP2 shapes, the
// scenario harness's chain and forest shapes, and the three chain
// families at the chain-plan shape. Forest instances run their
// decomposition blocks in order on one workspace, as SUU-T does.
func TestLP2RowGenMatchesFull(t *testing.T) {
	solve := func(name string, ins *model.Instance, chains []dag.Chain) {
		t.Helper()
		x, d, _, tstar, err := NewWorkspace().solveLP2(ins, chains)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMatchesFull(t, name, ins, chains, x, d, tstar)
	}
	blocks := func(name string, ins *model.Instance, blocks [][]dag.Chain) {
		t.Helper()
		ws := NewWorkspace()
		for bi, block := range blocks {
			x, d, jobs, tstar, err := ws.solveLP2(ins, block)
			if err != nil {
				t.Fatalf("%s block %d: %v", name, bi, err)
			}
			if len(jobs) > 0 {
				checkMatchesFull(t, fmt.Sprintf("%s block %d", name, bi), ins, block, x, d, tstar)
			}
		}
	}
	chainsOfIns := func(ins *model.Instance) []dag.Chain {
		t.Helper()
		chains, err := ins.Chains()
		if err != nil {
			t.Fatal(err)
		}
		return chains
	}
	forestOf := func(ins *model.Instance) [][]dag.Chain {
		t.Helper()
		raw, err := ins.Prec.DecomposeForest()
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]dag.Chain, len(raw))
		for i, b := range raw {
			out[i] = []dag.Chain(b)
		}
		return out
	}
	gen := func(family string, seed int64) *model.Instance {
		t.Helper()
		ins, err := workload.Generate(workload.Spec{Family: family, M: 16, N: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}

	// The golden corpus (simplexCorpus): seed 11 chain families and the
	// SUU-T block sequence.
	for _, fam := range []string{"chains", "chains-skewed", "chains-hard"} {
		ins := gen(fam, 11)
		solve("golden/"+fam, ins, chainsOfIns(ins))
	}
	ins, fb := forestBlocks(t, 4)
	blocks("golden/suut-blocks", ins, fb)

	// The scenario harness's chain and forest shapes.
	draws := 60
	if testing.Short() {
		draws = 15
	}
	for _, shape := range []scenario.Shape{scenario.Chains, scenario.Forest} {
		g := scenario.New(4200 + int64(len(shape)))
		for sc := 0; sc < draws; sc++ {
			ins, err := g.Instance(shape)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("scenario/%s/%d", shape, sc)
			if shape == scenario.Chains {
				solve(name, ins, chainsOfIns(ins))
			} else {
				blocks(name, ins, forestOf(ins))
			}
		}
	}

	// The three chain families at the chain-plan shape.
	for _, fam := range []string{"chains", "chains-hard", "chains-skewed"} {
		for seed := int64(1); seed <= 10; seed++ {
			ins := gen(fam, seed)
			solve(fmt.Sprintf("%s/seed%d", fam, seed), ins, chainsOfIns(ins))
		}
	}
}

// TestLP2RowGenCounters pins row generation's path on two instances by its
// diagnostic counters, without timing: the chains family at the
// chain-plan shape violates no cap, so one core solve finishes it, while
// chains-skewed seed 1 keeps violating caps until the work budget hands
// it to the full relaxation within the round limit.
func TestLP2RowGenCounters(t *testing.T) {
	run := func(family string, seed int64) *Workspace {
		t.Helper()
		ins, err := workload.Generate(workload.Spec{Family: family, M: 16, N: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		chains, err := ins.Chains()
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		if _, _, _, _, err := ws.solveLP2(ins, chains); err != nil {
			t.Fatal(err)
		}
		return ws
	}
	ws := run("chains", 9)
	if s := ws.solver; ws.LP2Caps != 0 || ws.LP2CapRounds != 0 || ws.LP2FullSolves != 0 || s.ColdSolves+s.WarmSolves != 1 {
		t.Errorf("chains: %d caps, %d re-solves, %d full solves, %d LP solves; want one core solve",
			ws.LP2Caps, ws.LP2CapRounds, ws.LP2FullSolves, s.ColdSolves+s.WarmSolves)
	}
	ws = run("chains-skewed", 1)
	if ws.LP2CapRounds > lp2MaxCapRounds || ws.LP2FullSolves != 1 || ws.LP2Caps == 0 {
		t.Errorf("chains-skewed seed 1: %d caps, %d re-solves, %d full solves; want one fallback within %d re-solves",
			ws.LP2Caps, ws.LP2CapRounds, ws.LP2FullSolves, lp2MaxCapRounds)
	}
}
