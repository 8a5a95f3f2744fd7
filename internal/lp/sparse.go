package lp

// The sparse revised simplex engine. The constraint matrix (with
// slack/surplus/artificial columns appended) is built once per solve in
// compressed column form; the basis lives in an LU factorization with a
// product-form eta file (lu.go); entering columns are priced with a
// candidate-list rule (pricing.go). Per pivot the engine runs one BTRAN
// (duals), a handful of sparse dot products (pricing) and one FTRAN
// (entering column); the ratio test, the basic-solution update and the eta
// append then walk the FTRAN result's nonzero pattern, and the basic costs
// and the stall check's objective are kept per pivot over the positions
// with nonzero cost, so on LP2's near-identity bases a pivot costs about
// what the entering column's reach costs rather than O(rows) — and always
// independent of the column count, where a dense tableau pays
// O(rows·cols). Differential tests (sparse_test.go) hold it to the cold
// dense tableau reference (reference_test.go) on every workload family.

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// spState is the sparse engine's workspace, embedded in Solver. All slices
// are grown monotonically and reused across solves.
type spState struct {
	rows, cols, n int
	artStart      int // first artificial column

	// constraint matrix in CSC form, aux columns appended after the n
	// original variables: slacks/surpluses, then artificials
	colPtr []int32
	colRow []int32
	colVal []float64
	cur    []int32 // build cursor

	b      []float64
	cost   []float64 // current phase's cost vector, by column
	banned []bool
	auxOf  []int // per column: -1 for original vars, else owning row
	rowAux []int // per row: its slack/surplus column, -1 for EQ rows
	rowArt []int // per row: its artificial column, -1 if none
	rowCnt []int32

	basisCols []int     // basis position (= constraint row) -> basic column
	inBasis   []bool    // per column
	xB        []float64 // basic solution B⁻¹b, position space
	cB        []float64 // basic costs, position space
	costPos   []int32   // positions with cB != 0, ascending
	y         []float64 // duals cᵦB⁻¹, row space
	rho       []float64 // BTRAN'd unit row for dual pivots, row space
	w         []float64 // FTRAN'd entering column, position space
	ev        []float64 // unit-vector scratch (kept all-zero between uses)
	dred      []float64 // dual repair: maintained reduced costs, per column
	alpha     []float64 // dual repair: pivot-row entries, per column

	lu luFactors
	pr pricer

	// refactorization column-ordering scratch
	order  []int32
	bucket []int32
}

// setupSparse normalizes the constraints and (re)builds the CSC matrix,
// cost/bound vectors, and the initial all-slack basis.
func (s *Solver) setupSparse(p *Problem) error {
	rows, slacks, artificials, err := s.normalize(p)
	if err != nil {
		return err
	}
	m := len(p.Cons)
	n := p.NumVars
	sp := &s.sp
	cols := n + slacks + artificials
	sp.rows, sp.cols, sp.n = m, cols, n
	sp.artStart = n + slacks

	nt := 0
	cp := growInt32s(sp.colPtr, cols+1)
	sp.colPtr = cp
	for i, ri := range rows {
		for _, t := range ri.terms {
			if t.Var < 0 || t.Var >= n {
				return fmt.Errorf("lp: constraint %d references variable %d (have %d)", i, t.Var, n)
			}
			cp[t.Var+1]++
		}
		nt += len(ri.terms)
	}
	for j := n; j < cols; j++ {
		cp[j+1] = 1
	}
	for j := 0; j < cols; j++ {
		cp[j+1] += cp[j]
	}
	nnz := nt + slacks + artificials
	sp.colRow = growInt32s(sp.colRow, nnz)
	sp.colVal = growFloats(sp.colVal, nnz)
	cur := growInt32s(sp.cur, cols)
	sp.cur = cur
	copy(cur, cp[:cols])

	sp.b = growFloats(sp.b, m)
	sp.cost = growFloats(sp.cost, cols)
	sp.banned = growBools(sp.banned, cols)
	sp.inBasis = growBools(sp.inBasis, cols)
	sp.auxOf = growInts(sp.auxOf, cols)
	sp.rowAux = growInts(sp.rowAux, m)
	sp.rowArt = growInts(sp.rowArt, m)
	sp.rowCnt = growInt32s(sp.rowCnt, m)
	sp.basisCols = growInts(sp.basisCols, m)
	sp.xB = growFloats(sp.xB, m)
	sp.cB = growFloats(sp.cB, m)
	sp.y = growFloats(sp.y, m)
	sp.rho = growFloats(sp.rho, m)
	sp.w = growFloats(sp.w, m)
	sp.costPos = growInt32s(sp.costPos, m)[:0]
	sp.lu.clearResult(m)
	sp.ev = growFloats(sp.ev, m)
	for j := 0; j < n; j++ {
		sp.auxOf[j] = -1
	}
	writeAux := func(j, row int, v float64) {
		pos := cur[j]
		cur[j]++
		sp.colRow[pos] = int32(row)
		sp.colVal[pos] = v
		sp.auxOf[j] = row
		sp.rowCnt[row]++
	}
	slackIdx, artIdx := n, sp.artStart
	for i, ri := range rows {
		for _, t := range ri.terms {
			pos := cur[t.Var]
			cur[t.Var]++
			sp.colRow[pos] = int32(i)
			sp.colVal[pos] = t.Coef
			sp.rowCnt[i]++
		}
		sp.b[i] = ri.b
		sp.rowAux[i], sp.rowArt[i] = -1, -1
		switch ri.op {
		case LE:
			writeAux(slackIdx, i, 1)
			sp.rowAux[i] = slackIdx
			sp.basisCols[i] = slackIdx
			slackIdx++
		case GE:
			writeAux(slackIdx, i, -1)
			sp.rowAux[i] = slackIdx
			slackIdx++
			writeAux(artIdx, i, 1)
			sp.rowArt[i] = artIdx
			sp.basisCols[i] = artIdx
			artIdx++
		case EQ:
			writeAux(artIdx, i, 1)
			sp.rowArt[i] = artIdx
			sp.basisCols[i] = artIdx
			artIdx++
		}
	}
	for i := 0; i < m; i++ {
		sp.inBasis[sp.basisCols[i]] = true
	}
	s.iters = 0
	s.prng.Seed(int64(m)*1e6 + int64(cols))
	sp.pr.reset(cols)
	return nil
}

// col returns column j's CSC row/value slices.
func (s *Solver) col(j int) ([]int32, []float64) {
	sp := &s.sp
	lo, hi := sp.colPtr[j], sp.colPtr[j+1]
	return sp.colRow[lo:hi], sp.colVal[lo:hi]
}

// colDot computes yᵀa_j for a row-space vector y.
func (s *Solver) colDot(y []float64, j int) float64 {
	rows, vals := s.col(j)
	d := 0.0
	for t, r := range rows {
		d += y[r] * vals[t]
	}
	return d
}

// ftranCol FTRANs column j into out (position space).
func (s *Solver) ftranCol(j int, out []float64) {
	rows, vals := s.col(j)
	if s.sp.lu.ftran(rows, vals, out) {
		s.HyperFtrans++
	}
	s.Ftrans++
}

// factorizeSparse (re)factorizes the current basis from scratch and
// recomputes the basic solution from the original right-hand side,
// discarding all eta-file drift. Columns are eliminated in ascending
// nonzero-count order (a static Markowitz-style column ordering that keeps
// fill low: LP1's two-entry job columns pivot before the dense t column).
// Returns false when the basis is numerically singular.
func (s *Solver) factorizeSparse() bool {
	sp := &s.sp
	m := sp.rows
	sp.lu.begin(m)
	order := growInt32s(sp.order, m)
	sp.order = order
	maxNnz := 0
	for pos := 0; pos < m; pos++ {
		c := sp.basisCols[pos]
		if n := int(sp.colPtr[c+1] - sp.colPtr[c]); n > maxNnz {
			maxNnz = n
		}
	}
	bucket := growInt32s(sp.bucket, maxNnz+2)
	sp.bucket = bucket
	for pos := 0; pos < m; pos++ {
		c := sp.basisCols[pos]
		bucket[sp.colPtr[c+1]-sp.colPtr[c]+1]++
	}
	for i := 1; i <= maxNnz+1; i++ {
		bucket[i] += bucket[i-1]
	}
	for pos := 0; pos < m; pos++ {
		c := sp.basisCols[pos]
		nz := sp.colPtr[c+1] - sp.colPtr[c]
		order[bucket[nz]] = int32(pos)
		bucket[nz]++
	}
	for _, pos := range order {
		rows, vals := s.col(sp.basisCols[pos])
		step, _ := sp.lu.addColumn(rows, vals, sp.rowCnt)
		if step < 0 {
			return false
		}
		sp.lu.setStepPos(step, int(pos))
	}
	sp.lu.ftranDense(sp.b, sp.xB)
	return true
}

// ensureFreshSparse refactorizes when the eta file hits its cap.
func (s *Solver) ensureFreshSparse() error {
	if s.sp.lu.nEtas >= luMaxEtas {
		if !s.factorizeSparse() {
			return errNumeric
		}
	}
	return nil
}

// solveSparse solves the problem from a cold (all-slack) start.
// errNumeric and ErrIterationLimit are the numerical bailouts Solve wraps
// in ErrUnsolvable.
func (s *Solver) solveSparse(p *Problem) (*Solution, error) {
	if err := s.setupSparse(p); err != nil {
		return nil, err
	}
	s.ColdSolves++
	if !s.factorizeSparse() {
		return nil, errNumeric
	}
	if infeasible, err := s.phase1Sparse(); err != nil {
		return nil, err
	} else if infeasible {
		return &Solution{Status: Infeasible, Iters: s.iters}, nil
	}
	s.phase2CostSparse(p)
	switch err := s.iterateSparse(); {
	case err == errUnbounded:
		return &Solution{Status: Unbounded, Iters: s.iters}, nil
	case err != nil:
		return nil, err
	}
	return s.extractSparse(p), nil
}

// phase1Sparse minimizes the sum of artificials, reports infeasibility,
// drives leftover artificials out of the basis, and bans them.
func (s *Solver) phase1Sparse() (infeasible bool, err error) {
	sp := &s.sp
	if sp.artStart == sp.cols {
		return false, nil
	}
	for j := 0; j < sp.artStart; j++ {
		sp.cost[j] = 0
	}
	for j := sp.artStart; j < sp.cols; j++ {
		sp.cost[j] = 1
	}
	if err := s.iterateSparse(); err != nil {
		if err == errUnbounded {
			// Phase 1 is bounded below by 0; an unbounded verdict is
			// numerical trouble.
			return false, errNumeric
		}
		return false, err
	}
	sum := 0.0
	for i := 0; i < sp.rows; i++ {
		if sp.basisCols[i] >= sp.artStart {
			sum += sp.xB[i]
		}
	}
	if sum > 1e-7*(1+math.Abs(sum)) && sum > 1e-7 {
		return true, nil
	}
	// Drive any remaining artificials out of the basis.
	for pos := 0; pos < sp.rows; pos++ {
		if sp.basisCols[pos] < sp.artStart {
			continue
		}
		if err := s.ensureFreshSparse(); err != nil {
			return false, err
		}
		sp.ev[pos] = 1
		sp.lu.btran(sp.ev, sp.rho)
		sp.ev[pos] = 0
		pivoted := false
		for j := 0; j < sp.artStart && !pivoted; j++ {
			if sp.inBasis[j] {
				continue
			}
			if math.Abs(s.colDot(sp.rho, j)) <= pivotTol {
				continue
			}
			s.ftranCol(j, sp.w)
			if math.Abs(sp.w[pos]) <= pivotTol {
				continue
			}
			s.pivotSparse(j, pos, sp.w)
			pivoted = true
		}
		if !pivoted {
			// Redundant row: the artificial stays basic at value 0.
			sp.xB[pos] = 0
		}
	}
	for j := sp.artStart; j < sp.cols; j++ {
		sp.banned[j] = true
	}
	return false, nil
}

// phase2CostSparse installs the original objective.
func (s *Solver) phase2CostSparse(p *Problem) {
	sp := &s.sp
	copy(sp.cost[:sp.n], p.C)
	for j := sp.n; j < sp.cols; j++ {
		sp.cost[j] = 0
	}
}

var errUnbounded = errors.New("lp: unbounded")

// pricing rules, escalating with degeneracy.
const (
	priceDantzig = iota // most negative reduced cost
	priceRandom         // uniform among negative columns (stall escape)
	priceBland          // first negative column (cannot cycle)
)

// stallGuard is the pricing escalation both engines run. Dantzig pricing
// runs while the objective improves. Degenerate stalls — endemic to the
// rank-1 "skill" instances, whose ratio tests tie massively — switch to
// randomized pricing after rows/2+40 pivots without strict improvement,
// which escapes degenerate vertices in a handful of pivots with high
// probability; if even that stalls, Bland's rule takes over after
// 4·rows+1000 and is the guaranteed backstop. Any strict improvement
// resets to Dantzig, so no basis can repeat across resets.
type stallGuard struct {
	rows    int
	stall   int
	lastObj float64 // +Inf until the first pivot
}

func newStallGuard(rows int) stallGuard {
	return stallGuard{rows: rows, lastObj: math.Inf(1)}
}

// next records the objective after a pivot and returns the pricing rule
// for the next one. The first pivot's objective is the reference: against
// +Inf the improvement test would compare with Inf−Inf = NaN and never
// register progress.
func (g *stallGuard) next(obj float64) int {
	if math.IsInf(g.lastObj, 1) || obj < g.lastObj-1e-12*(1+math.Abs(g.lastObj)) {
		g.lastObj = obj
		g.stall = 0
		return priceDantzig
	}
	g.stall++
	switch {
	case g.stall > 4*g.rows+1000:
		return priceBland
	case g.stall > g.rows/2+40:
		return priceRandom
	}
	return priceDantzig
}

// iterateSparse runs primal revised-simplex pivots until optimality,
// unboundedness, or the iteration budget is exhausted, with the Dantzig →
// randomized → Bland stall escalation of stallGuard.
func (s *Solver) iterateSparse() error {
	sp := &s.sp
	maxIter := 5000 + 60*(sp.rows+sp.cols)
	mode := priceDantzig
	guard := newStallGuard(sp.rows)
	s.loadBasicCosts()
	for iter := 0; iter < maxIter; iter++ {
		if err := s.ensureFreshSparse(); err != nil {
			return err
		}
		sp.lu.btran(sp.cB, sp.y)
		q := s.priceSparse(mode)
		if q < 0 {
			return nil // optimal
		}
		s.ftranCol(q, sp.w)
		r := s.ratioTestSparse()
		if r < 0 {
			return errUnbounded
		}
		if math.Abs(sp.w[r]) < pivotTol && sp.lu.nEtas > 0 {
			// Numerically unsafe pivot through a long eta chain: refresh
			// the factors and re-derive this iteration from scratch.
			if !s.factorizeSparse() {
				return errNumeric
			}
			continue
		}
		s.pivotSparse(q, r, sp.w)
		// Σ cB·xB over all positions, minus terms that are exact zeros.
		obj := 0.0
		for _, i := range sp.costPos {
			obj += sp.cB[i] * sp.xB[i]
		}
		mode = guard.next(obj)
	}
	return ErrIterationLimit
}

// loadBasicCosts fills cB and costPos from the current phase's costs;
// pivotSparse keeps both current from then on.
func (s *Solver) loadBasicCosts() {
	sp := &s.sp
	sp.costPos = sp.costPos[:0]
	for i := 0; i < sp.rows; i++ {
		c := sp.cost[sp.basisCols[i]]
		sp.cB[i] = c
		if c != 0 {
			sp.costPos = append(sp.costPos, int32(i))
		}
	}
}

// ratioTestSparse picks the leaving basis position for the FTRAN'd entering
// column in s.sp.w, scanning its pattern (positions outside it are zero and
// never qualify). Ratio ties (within eps) prefer the numerically larger
// pivot, then the smaller basic column id (a cheap anti-cycling tie-break).
// Returns -1 if the column is unbounded.
func (s *Solver) ratioTestSparse() int {
	sp := &s.sp
	best := -1
	bestRatio := math.Inf(1)
	for _, i32 := range sp.lu.res {
		i := int(i32)
		wi := sp.w[i]
		if wi <= eps {
			continue
		}
		r := sp.xB[i] / wi
		if r < bestRatio-eps {
			best, bestRatio = i, r
			continue
		}
		if r < bestRatio+eps && best >= 0 {
			wb := sp.w[best]
			if wi > 2*wb || (wi > 0.5*wb && sp.basisCols[i] < sp.basisCols[best]) {
				best, bestRatio = i, r
			}
		}
	}
	return best
}

// pivotSparse replaces the basic column at position r with column q, whose
// FTRAN image is w (the last ftranCol result), updating the basic solution
// over w's pattern, the basic costs, and the eta file.
func (s *Solver) pivotSparse(q, r int, w []float64) {
	sp := &s.sp
	t := sp.xB[r] / w[r]
	for _, i32 := range sp.lu.res {
		i := int(i32)
		if i == r {
			continue
		}
		if wi := w[i]; wi != 0 {
			v := sp.xB[i] - wi*t
			if v < 0 && v > -cleanEps {
				v = 0
			}
			sp.xB[i] = v
		}
	}
	if t < 0 && t > -cleanEps {
		t = 0
	}
	sp.xB[r] = t
	sp.lu.appendEta(r, w)
	if c := sp.cost[q]; (c != 0) != (sp.cB[r] != 0) {
		i, _ := slices.BinarySearch(sp.costPos, int32(r))
		if c != 0 {
			sp.costPos = slices.Insert(sp.costPos, i, int32(r))
		} else {
			sp.costPos = slices.Delete(sp.costPos, i, i+1)
		}
	}
	sp.cB[r] = sp.cost[q]
	sp.inBasis[sp.basisCols[r]] = false
	sp.inBasis[q] = true
	sp.basisCols[r] = q
	s.iters++
}

// extractSparse reads the optimal solution and basis out of the workspace.
func (s *Solver) extractSparse(p *Problem) *Solution {
	sp := &s.sp
	x := make([]float64, sp.n)
	for i := 0; i < sp.rows; i++ {
		if c := sp.basisCols[i]; c < sp.n {
			v := sp.xB[i]
			if v < 0 && v > -cleanEps {
				v = 0
			}
			x[c] = v
		}
	}
	obj := 0.0
	for j, cj := range p.C {
		obj += cj * x[j]
	}
	basis := make([]int, sp.rows)
	for i := 0; i < sp.rows; i++ {
		if c := sp.basisCols[i]; c < sp.n {
			basis[i] = c
		} else {
			basis[i] = -1 - sp.auxOf[c]
		}
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Iters: s.iters, Basis: basis}
}

// tryWarmSparse attempts the warm-start path: install the hinted basis
// into a fresh LU factorization, repair primal feasibility with dual
// pivots, finish with primal phase 2. A false ok means the caller should
// fall back to a cold solve; numerical trouble never escapes as an error.
func (s *Solver) tryWarmSparse(p *Problem, hint []int) (sol *Solution, ok bool, err error) {
	if err := s.setupSparse(p); err != nil {
		return nil, false, err
	}
	if !s.installBasisSparse(hint) {
		return nil, false, nil
	}
	sp := &s.sp
	sp.lu.ftranDense(sp.b, sp.xB)
	// Artificials may never (re-)enter; a hinted basis replaces phase 1.
	for j := sp.artStart; j < sp.cols; j++ {
		sp.banned[j] = true
	}
	// An artificial stuck basic at a meaningfully positive value means the
	// install did not reach a feasible basis of the original rows.
	for i := 0; i < sp.rows; i++ {
		if sp.basisCols[i] >= sp.artStart && sp.xB[i] > pivotTol {
			return nil, false, nil
		}
	}
	s.phase2CostSparse(p)
	if !s.dualRepairSparse() {
		return nil, false, nil
	}
	if err := s.iterateSparse(); err != nil {
		// Unbounded, stalled, or numerically stuck on the warm path: let
		// the cold solve decide.
		return nil, false, nil
	}
	// Re-check stuck artificials at the final basis: repair and phase-2
	// pivots can have grown a basic artificial's value since the
	// pre-repair check, and a positive artificial means the point violates
	// its original row even though the reduced costs look optimal.
	for i := 0; i < sp.rows; i++ {
		if sp.basisCols[i] >= sp.artStart && sp.xB[i] > pivotTol {
			return nil, false, nil
		}
	}
	return s.extractSparse(p), true, nil
}

// installBasisSparse builds a basis from the hint by LU-factorizing the
// desired columns directly: each column is forward-eliminated against the
// factors so far and claims the unclaimed row where its magnitude is
// largest (Gaussian elimination with row partial pivoting, so a basis
// hinted row-by-row can still install as a column set). Columns that
// cannot reach an acceptable pivot (departed-structure leftovers,
// dependent sets) are skipped; unclaimed rows are patched with their own
// slack/surplus (preferred — for a GE row this converts a would-be stuck
// artificial into a negative-b row that dualRepair fixes) or artificial.
// Returns false when no full basis could be assembled.
func (s *Solver) installBasisSparse(hint []int) bool {
	sp := &s.sp
	want := growBools(s.wantCol, sp.cols)
	s.wantCol = want
	des := growInts(s.desired, sp.rows)[:0]
	for _, h := range hint {
		c := -1
		switch {
		case h >= 0 && h < sp.n:
			c = h
		case h != NoHint && h < 0:
			if rr := -1 - h; rr >= 0 && rr < sp.rows {
				c = sp.rowAux[rr]
			}
		}
		if c >= 0 && !want[c] {
			want[c] = true
			des = append(des, c)
		}
	}
	s.desired = des
	// The hint decides the basis from scratch; drop the initial aux basis.
	for i := 0; i < sp.rows; i++ {
		sp.inBasis[sp.basisCols[i]] = false
		sp.basisCols[i] = -1
	}
	sp.lu.begin(sp.rows)
	install := func(c int) bool {
		rows, vals := s.col(c)
		step, prow := sp.lu.addColumn(rows, vals, sp.rowCnt)
		if step < 0 {
			return false
		}
		sp.lu.setStepPos(step, prow)
		sp.basisCols[prow] = c
		sp.inBasis[c] = true
		return true
	}
	for _, c := range des {
		if !sp.inBasis[c] {
			install(c)
		}
	}
	// Patch unclaimed rows. A patch column can claim a different unclaimed
	// row than its owner (fill moves the pivot), so sweep until a pass
	// makes no progress; every success shrinks the deficit, bounding the
	// sweeps.
	for progress := true; progress && !sp.lu.full(); {
		progress = false
		for r := 0; r < sp.rows && !sp.lu.full(); r++ {
			if sp.lu.stepOfRow[r] >= 0 {
				continue
			}
			if c := sp.rowAux[r]; c >= 0 && !sp.inBasis[c] && install(c) {
				progress = true
				continue
			}
			if c := sp.rowArt[r]; c >= 0 && !sp.inBasis[c] && install(c) {
				progress = true
			}
		}
	}
	return sp.lu.full()
}

// dualRepairSparse restores primal feasibility (xB ≥ 0) with dual simplex
// pivots, the standard warm-start repair for a changed right-hand side.
// When the installed basis is also dual infeasible (doubling L perturbs
// the capped cover coefficients, so reduced costs drift), the same loop
// still runs as a plain feasibility heuristic: any basis it reaches with
// xB ≥ 0 is a legitimate phase-2 start. Reduced costs are computed once up
// front and then maintained with the standard dual update
// d ← d − (d_q/α_q)·α, so each iteration costs one BTRAN (the leaving row)
// plus one sparse dot per column; the maintained d is a pivot-choice
// heuristic — the subsequent primal phase recomputes reduced costs
// exactly, so drift here never reaches the answer. Returns false when the
// warm path should be abandoned.
func (s *Solver) dualRepairSparse() bool {
	sp := &s.sp
	d := growFloats(sp.dred, sp.cols)
	sp.dred = d
	alpha := growFloats(sp.alpha, sp.cols)
	sp.alpha = alpha
	s.loadBasicCosts()
	sp.lu.btran(sp.cB, sp.y)
	for j := 0; j < sp.cols; j++ {
		if sp.banned[j] || sp.inBasis[j] {
			d[j] = 0
			continue
		}
		d[j] = s.reducedCost(j)
	}
	// The budget is deliberately tight: a dual iteration costs a full
	// column sweep — O(cols) sparse dots, an order of magnitude more than
	// a primal candidate-list iteration — so a repair that grinds past
	// ~rows pivots has lost the race against a cold primal solve and
	// should hand over to it.
	maxIter := sp.rows + 30
	for iter := 0; iter < maxIter; iter++ {
		if s.ensureFreshSparse() != nil {
			return false
		}
		r, worst := -1, -eps
		for i := 0; i < sp.rows; i++ {
			if sp.xB[i] < worst {
				worst, r = sp.xB[i], i
			}
		}
		if r < 0 {
			return true
		}
		sp.ev[r] = 1
		sp.lu.btran(sp.ev, sp.rho)
		sp.ev[r] = 0
		// One flat pass over the CSC arrays: per column, α_j = ρ·a_j and
		// the dual ratio test. This sweep is the repair loop's hot path.
		c, bestRatio := -1, math.Inf(1)
		rho, colPtr, colRow, colVal := sp.rho, sp.colPtr, sp.colRow, sp.colVal
		t0 := colPtr[0]
		for j := 0; j < sp.cols; j++ {
			t1 := colPtr[j+1]
			if sp.banned[j] || sp.inBasis[j] {
				alpha[j] = 0
				t0 = t1
				continue
			}
			a := 0.0
			for t := t0; t < t1; t++ {
				a += rho[colRow[t]] * colVal[t]
			}
			t0 = t1
			alpha[j] = a
			if a >= -eps {
				continue
			}
			ratio := d[j] / -a
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (c < 0 || j < c)) {
				c, bestRatio = j, ratio
			}
		}
		if c < 0 {
			// No entering column: primal infeasible from this basis (or
			// numerics); the cold solve will give the definitive answer.
			return false
		}
		s.ftranCol(c, sp.w)
		if math.Abs(sp.w[r]) <= eps {
			// The FTRAN'd pivot vanished against the eta chain; refresh
			// and retry (d stays valid — the basis is unchanged), or give
			// up on fresh factors.
			if sp.lu.nEtas > 0 && s.factorizeSparse() {
				continue
			}
			return false
		}
		leaving := sp.basisCols[r]
		f := d[c] / alpha[c]
		if f != 0 {
			for j := 0; j < sp.cols; j++ {
				if a := alpha[j]; a != 0 {
					d[j] -= f * a
				}
			}
		}
		d[c] = 0
		s.pivotSparse(c, r, sp.w)
		// The leaving variable's own tableau-row entry is 1.
		d[leaving] = -f
	}
	return false
}
