package lp

// The dense two-phase tableau engine. This was the package's only engine
// through PR 2; it is kept fully working as (a) the reference the sparse
// revised simplex is differentially tested against and (b) the automatic
// fallback for sparse numerical bailouts. Select it with Solver{Dense:
// true}. It uses Dantzig pricing with a ratio-test tie-break on basis
// index, and falls back to Bland's rule when it detects stalling, which
// guarantees termination.

import (
	"errors"
	"fmt"
	"math"
)

// solveDense solves the problem from a cold (all-slack) start on the dense
// tableau engine.
func (s *Solver) solveDense(p *Problem) (*Solution, error) {
	if err := s.setup(p); err != nil {
		return nil, err
	}
	s.ColdSolves++
	if infeasible, err := s.phase1(); err != nil {
		return nil, err
	} else if infeasible {
		return &Solution{Status: Infeasible, Iters: s.iters}, nil
	}
	s.phase2Prep(p)
	switch err := s.iterate(); {
	case err == errUnbounded:
		return &Solution{Status: Unbounded, Iters: s.iters}, nil
	case err != nil:
		return nil, err
	}
	return s.extract(p), nil
}

// setup normalizes the constraints and (re)builds the initial all-slack
// tableau in the workspace's flat backing arrays.
func (s *Solver) setup(p *Problem) error {
	rows, slacks, artificials, err := s.normalize(p)
	if err != nil {
		return err
	}
	m := len(p.Cons)
	n := p.NumVars

	cols := n + slacks + artificials
	s.rows, s.cols, s.n = m, cols, n
	s.artStart = n + slacks
	s.a = growFloats(s.a, m*cols)
	s.b = growFloats(s.b, m)
	s.cost = growFloats(s.cost, cols)
	s.basis = growInts(s.basis, m)
	s.banned = growBools(s.banned, cols)
	s.auxOf = growInts(s.auxOf, cols)
	s.rowAux = growInts(s.rowAux, m)
	s.rowArt = growInts(s.rowArt, m)
	for j := 0; j < n; j++ {
		s.auxOf[j] = -1
	}
	s.costRHS = 0
	s.iters = 0
	// Deterministic per-shape stream for the randomized anti-stall pricing;
	// SplitMix64 reseeds by a single word write, unlike the ~4.9 KB
	// rand.NewSource this replaced.
	s.prng.Seed(int64(m)*1e6 + int64(cols))

	slackIdx, artIdx := n, s.artStart
	for i, ri := range rows {
		row := s.row(i)
		for _, term := range ri.terms {
			if term.Var < 0 || term.Var >= n {
				return fmt.Errorf("lp: constraint %d references variable %d (have %d)", i, term.Var, n)
			}
			row[term.Var] += term.Coef
		}
		s.b[i] = ri.b
		s.rowAux[i], s.rowArt[i] = -1, -1
		switch ri.op {
		case LE:
			row[slackIdx] = 1
			s.auxOf[slackIdx] = i
			s.rowAux[i] = slackIdx
			s.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			s.auxOf[slackIdx] = i
			s.rowAux[i] = slackIdx
			slackIdx++
			row[artIdx] = 1
			s.auxOf[artIdx] = i
			s.rowArt[i] = artIdx
			s.basis[i] = artIdx
			artIdx++
		case EQ:
			row[artIdx] = 1
			s.auxOf[artIdx] = i
			s.rowArt[i] = artIdx
			s.basis[i] = artIdx
			artIdx++
		}
	}
	return nil
}

// row returns the tableau row as a slice of the flat backing array. The
// three-index form pins cap so subRow's bounds-check elimination holds.
func (s *Solver) row(i int) []float64 {
	off := i * s.cols
	return s.a[off : off+s.cols : off+s.cols]
}

// phase1 minimizes the sum of artificials and drives them out of the
// basis. It reports infeasibility; on success artificial columns are
// banned and the tableau holds a basic feasible solution.
func (s *Solver) phase1() (infeasible bool, err error) {
	if s.artStart == s.cols {
		return false, nil
	}
	for j := s.artStart; j < s.cols; j++ {
		s.cost[j] = 1
	}
	s.costRHS = 0
	for i := 0; i < s.rows; i++ {
		if s.basis[i] >= s.artStart {
			subRow(s.cost, s.row(i), 1)
			s.costRHS -= s.b[i]
		}
	}
	if err := s.iterate(); err != nil {
		return false, err
	}
	if -s.costRHS > 1e-7*(1+math.Abs(s.costRHS)) && -s.costRHS > 1e-7 {
		return true, nil
	}
	// Drive any remaining artificials out of the basis.
	for i := 0; i < s.rows; i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		pivoted := false
		row := s.row(i)
		for j := 0; j < s.artStart; j++ {
			if math.Abs(row[j]) > pivotTol {
				s.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: the artificial stays basic at value 0.
			s.b[i] = 0
		}
	}
	for j := s.artStart; j < s.cols; j++ {
		s.banned[j] = true
	}
	return false, nil
}

// phase2Prep installs the original objective's reduced costs for the
// current basis.
func (s *Solver) phase2Prep(p *Problem) {
	for j := range s.cost {
		s.cost[j] = 0
	}
	copy(s.cost, p.C)
	s.costRHS = 0
	for i := 0; i < s.rows; i++ {
		cb := 0.0
		if s.basis[i] < s.n {
			cb = p.C[s.basis[i]]
		}
		if cb != 0 {
			subRow(s.cost, s.row(i), cb)
			s.costRHS -= cb * s.b[i]
		}
	}
}

// extract reads the optimal solution and basis out of the tableau.
func (s *Solver) extract(p *Problem) *Solution {
	x := make([]float64, s.n)
	for i, bi := range s.basis {
		if bi < s.n {
			v := s.b[i]
			if v < 0 && v > -cleanEps {
				v = 0
			}
			x[bi] = v
		}
	}
	obj := 0.0
	for j, cj := range p.C {
		obj += cj * x[j]
	}
	basis := make([]int, s.rows)
	for i, bi := range s.basis {
		if bi < s.n {
			basis[i] = bi
		} else {
			basis[i] = -1 - s.auxOf[bi]
		}
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Iters: s.iters, Basis: basis}
}

// tryWarm attempts the warm-start path: install the hinted basis, repair
// primal feasibility with dual pivots, finish with primal phase 2. A false
// ok means the caller should fall back to a cold solve.
func (s *Solver) tryWarm(p *Problem, hint []int) (sol *Solution, ok bool, err error) {
	if err := s.setup(p); err != nil {
		return nil, false, err
	}
	s.installBasis(hint)
	// Artificials may never (re-)enter; a hinted basis replaces phase 1.
	for j := s.artStart; j < s.cols; j++ {
		s.banned[j] = true
	}
	// An artificial stuck basic at a meaningfully positive value means the
	// install did not reach a feasible basis of the original rows.
	for i := 0; i < s.rows; i++ {
		if s.basis[i] >= s.artStart && s.b[i] > pivotTol {
			return nil, false, nil
		}
	}
	s.phase2Prep(p)
	if !s.dualRepair() {
		return nil, false, nil
	}
	if err := s.iterate(); err != nil {
		// Unbounded or stalled on the warm path: let the cold solve decide.
		return nil, false, nil
	}
	// Re-check stuck artificials at the final basis: repair and phase-2
	// pivots can have grown a basic artificial's b since the pre-repair
	// check, and a positive artificial means the point violates its
	// original row even though the reduced costs look optimal.
	for i := 0; i < s.rows; i++ {
		if s.basis[i] >= s.artStart && s.b[i] > pivotTol {
			return nil, false, nil
		}
	}
	return s.extract(p), true, nil
}

// installBasis pivots the hinted columns into the basis. The hint names a
// column per row, but a basis is really a column *set*: in the previous
// final tableau a column can be basic in a row where the fresh tableau has
// a zero coefficient, so row-by-row pivoting breaks down. Instead this is
// Gaussian elimination with row partial pivoting — for each desired column,
// pivot in the unclaimed row where its current coefficient is largest —
// which cannot break down when the desired set is a genuine basis of the
// new matrix. Columns that cannot be pivoted in (departed-structure
// leftovers, near-singular coefficients) are skipped; their rows keep the
// initial slack/artificial and the caller's feasibility checks decide.
func (s *Solver) installBasis(hint []int) {
	inB := growBools(s.inBasis, s.cols)
	s.inBasis = inB
	for _, bi := range s.basis {
		inB[bi] = true
	}
	want := growBools(s.wantCol, s.cols)
	s.wantCol = want
	des := growInts(s.desired, s.rows)[:0]
	s.desired = des
	for _, h := range hint {
		c := -1
		switch {
		case h >= 0 && h < s.n:
			c = h
		case h != NoHint && h < 0:
			if rr := -1 - h; rr >= 0 && rr < s.rows {
				c = s.rowAux[rr]
			}
		}
		if c >= 0 && !want[c] {
			want[c] = true
			des = append(des, c)
		}
	}
	s.desired = des
	// Rows whose initial basic column is already desired are settled.
	claimed := growBools(s.claimed, s.rows)
	s.claimed = claimed
	for r := 0; r < s.rows; r++ {
		if want[s.basis[r]] {
			claimed[r] = true
		}
	}
	for _, c := range des {
		if inB[c] {
			continue
		}
		best, bestV := -1, pivotTol
		for r := 0; r < s.rows; r++ {
			if claimed[r] {
				continue
			}
			if v := math.Abs(s.a[r*s.cols+c]); v > bestV {
				best, bestV = r, v
			}
		}
		if best < 0 {
			continue
		}
		inB[s.basis[best]] = false
		s.pivot(best, c)
		inB[c] = true
		claimed[best] = true
	}
	// Rows still holding their artificial — hints lost to departed
	// structure — swap it for the row's own slack/surplus when possible.
	// For a surplus (GE) row this turns a would-be rejection (artificial
	// basic at b > 0) into a plain negative-b row that dualRepair fixes.
	for r := 0; r < s.rows; r++ {
		if s.basis[r] < s.artStart {
			continue
		}
		c := s.rowAux[r]
		if c < 0 || inB[c] {
			continue
		}
		if v := math.Abs(s.a[r*s.cols+c]); v > pivotTol {
			inB[s.basis[r]] = false
			s.pivot(r, c)
			inB[c] = true
		}
	}
}

// dualRepair restores primal feasibility (b ≥ 0) with dual simplex pivots,
// the standard warm-start repair for a changed right-hand side. When the
// installed basis is also dual infeasible (doubling L perturbs the capped
// cover coefficients, so reduced costs drift), the same loop still runs as
// a plain feasibility heuristic — its termination guarantee is then only
// the iteration cap, but any basis it reaches with b ≥ 0 is a legitimate
// phase-2 start, and the subsequent primal iterate restores optimality
// regardless of the pivot path. Returns false when the warm path should be
// abandoned.
func (s *Solver) dualRepair() bool {
	maxIter := s.rows + s.cols + 200
	for iter := 0; iter < maxIter; iter++ {
		r, worst := -1, -eps
		for i := 0; i < s.rows; i++ {
			if s.b[i] < worst {
				worst, r = s.b[i], i
			}
		}
		if r < 0 {
			return true
		}
		row := s.row(r)
		c, bestRatio := -1, math.Inf(1)
		for j := 0; j < s.cols; j++ {
			if s.banned[j] || row[j] >= -eps {
				continue
			}
			ratio := s.cost[j] / -row[j]
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (c < 0 || j < c)) {
				c, bestRatio = j, ratio
			}
		}
		if c < 0 {
			// No entering column: primal infeasible from this basis (or
			// numerics); the cold solve will give the definitive answer.
			return false
		}
		s.pivot(r, c)
	}
	return false
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

// iterate runs primal simplex pivots until optimality, unboundedness, or
// the iteration budget is exhausted, pricing by the stallGuard's rule.
func (s *Solver) iterate() error {
	maxIter := 5000 + 60*(s.rows+s.cols)
	mode := priceDantzig
	guard := newStallGuard(s.rows)
	for iter := 0; iter < maxIter; iter++ {
		col := s.chooseColumn(mode)
		if col < 0 {
			return nil // optimal
		}
		row := s.chooseRow(col)
		if row < 0 {
			return errUnbounded
		}
		s.pivot(row, col)
		mode = guard.next(-s.costRHS)
	}
	return ErrIterationLimit
}

// chooseColumn picks the entering column under the given pricing rule.
// Returns -1 at optimality.
func (s *Solver) chooseColumn(mode int) int {
	best, bestVal := -1, -costEps
	seen := uint64(0)
	for j := 0; j < s.cols; j++ {
		if s.banned[j] {
			continue
		}
		c := s.cost[j]
		if c >= -costEps {
			continue
		}
		switch mode {
		case priceBland:
			return j
		case priceRandom:
			// Reservoir-sample one negative column uniformly.
			seen++
			if s.prng.Uint64()%seen == 0 {
				best = j
			}
		default:
			if c < bestVal {
				best, bestVal = j, c
			}
		}
	}
	return best
}

// chooseRow performs the ratio test for entering column c, breaking ties by
// the smallest basis index (a cheap anti-cycling heuristic). Returns -1 if
// the column is unbounded.
func (s *Solver) chooseRow(c int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < s.rows; i++ {
		aic := s.a[i*s.cols+c]
		if aic <= eps {
			continue
		}
		r := s.b[i] / aic
		if r < bestRatio-eps || (r < bestRatio+eps && (best < 0 || s.basis[i] < s.basis[best])) {
			best, bestRatio = i, r
		}
	}
	return best
}

// pivot makes column c basic in row r.
func (s *Solver) pivot(r, c int) {
	pr := s.row(r)
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1 // kill roundoff
	s.b[r] *= inv
	for i := 0; i < s.rows; i++ {
		if i == r {
			continue
		}
		row := s.row(i)
		f := row[c]
		if f == 0 {
			continue
		}
		subRow(row, pr, f)
		row[c] = 0
		s.b[i] -= f * s.b[r]
		if s.b[i] < 0 && s.b[i] > -cleanEps {
			s.b[i] = 0
		}
	}
	if f := s.cost[c]; f != 0 {
		subRow(s.cost, pr, f)
		s.cost[c] = 0
		s.costRHS -= f * s.b[r]
	}
	s.basis[r] = c
	s.iters++
}

// subRow computes dst -= f*src over the full row. It is the hot loop of the
// dense engine; keeping it straight-line lets the compiler eliminate bounds
// checks.
func subRow(dst, src []float64, f float64) {
	_ = dst[len(src)-1]
	for j := range src {
		dst[j] -= f * src[j]
	}
}
