package lp

// The cold dense two-phase tableau: the reference the sparse revised
// simplex is differentially tested against (sparse_test.go,
// metamorphic_test.go). It shares no pivoting code with the engine. It
// uses Dantzig pricing with a ratio-test tie-break on basis index and the
// same stallGuard escalation as the engine, whose Bland backstop
// guarantees termination.

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// denseTableau is the reference engine's state: a rows × cols tableau in
// one flat array plus its basis and reduced costs.
type denseTableau struct {
	rows, cols int
	n          int // original variable count of the current problem
	artStart   int // first artificial column
	a          []float64
	b          []float64
	basis      []int
	cost       []float64
	costRHS    float64
	banned     []bool
	iters      int
	prng       rng.SplitMix64

	auxOf []int // per column: -1 for original vars, else owning row
}

// solveDense solves p cold on a fresh dense tableau.
func solveDense(p *Problem) (*Solution, error) {
	return new(denseTableau).solve(p)
}

// solve solves the problem from a cold (all-slack) start on the dense
// tableau.
func (s *denseTableau) solve(p *Problem) (*Solution, error) {
	if err := s.setup(p); err != nil {
		return nil, err
	}
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
func (s *denseTableau) setup(p *Problem) error {
	rows, slacks, artificials, err := new(Solver).normalize(p)
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
	for j := 0; j < n; j++ {
		s.auxOf[j] = -1
	}
	s.costRHS = 0
	s.iters = 0
	// Deterministic per-shape stream for the randomized anti-stall pricing.
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
		switch ri.op {
		case LE:
			row[slackIdx] = 1
			s.auxOf[slackIdx] = i
			s.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			s.auxOf[slackIdx] = i
			slackIdx++
			row[artIdx] = 1
			s.auxOf[artIdx] = i
			s.basis[i] = artIdx
			artIdx++
		case EQ:
			row[artIdx] = 1
			s.auxOf[artIdx] = i
			s.basis[i] = artIdx
			artIdx++
		}
	}
	return nil
}

// row returns the tableau row as a slice of the flat backing array. The
// three-index form pins cap so subRow's bounds-check elimination holds.
func (s *denseTableau) row(i int) []float64 {
	off := i * s.cols
	return s.a[off : off+s.cols : off+s.cols]
}

// phase1 minimizes the sum of artificials and drives them out of the
// basis. It reports infeasibility; on success artificial columns are
// banned and the tableau holds a basic feasible solution.
func (s *denseTableau) phase1() (infeasible bool, err error) {
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
func (s *denseTableau) phase2Prep(p *Problem) {
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
func (s *denseTableau) extract(p *Problem) *Solution {
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

// iterate runs primal simplex pivots until optimality, unboundedness, or
// the iteration budget is exhausted, pricing by the stallGuard's rule.
func (s *denseTableau) iterate() error {
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
func (s *denseTableau) chooseColumn(mode int) int {
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
func (s *denseTableau) chooseRow(c int) int {
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
func (s *denseTableau) pivot(r, c int) {
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
// dense tableau; keeping it straight-line lets the compiler eliminate bounds
// checks.
func subRow(dst, src []float64, f float64) {
	_ = dst[len(src)-1]
	for j := range src {
		dst[j] -= f * src[j]
	}
}
