// Package lp implements the LP engine behind the paper's relaxations (LP1)
// and (LP2) (Sections 3 and 4): minimization problems
//
//	minimize    c·x
//	subject to  A x {≤,=,≥} b,   x ≥ 0.
//
// The engine (sparse.go) is a sparse revised simplex. The constraint matrix
// is stored once per solve in compressed column form, the basis is held as
// a sparse LU factorization with Markowitz-style threshold pivoting
// (lu.go), pivots are applied as product-form eta updates with periodic
// refactorization, and entering columns are priced with a candidate-list
// partial pricing rule (pricing.go). LP1/LP2 matrices are ~95% structural
// zeros — each x_{i,pos} appears in exactly one cover row and one machine
// row — so a pivot costs O(nnz) instead of a dense tableau's O(rows·cols).
// The package's tests hold it to a cold dense two-phase tableau, kept only
// in the tests as the reference (sparse t* must equal the reference's to
// 1e-6 on every workload family).
//
// # Solver workspaces
//
// All simplex state lives in a reusable Solver: factors, eta files and
// pricing lists are allocated once and grown monotonically, so a Monte
// Carlo worker that re-solves LPs all trial long performs no steady-state
// solver allocations. The package-level Solve is a convenience wrapper
// over a throwaway Solver; hot paths should hold one Solver per goroutine
// (a Solver is not safe for concurrent use) and call its Solve/SolveWarm
// methods.
//
// # Warm starts
//
// Solution records the optimal basis in a problem-independent encoding
// (Basis). SolveWarm accepts a per-row basis hint in the same encoding and
// tries to skip phase 1 entirely: it installs the hinted basis by
// LU-factorizing the hinted columns, patching rows the hint cannot claim
// with their own slack or artificial, repairs any lost primal feasibility
// with dual simplex steps (the textbook response to a changed right-hand
// side), and then runs ordinary phase-2 pivots to optimality. Any
// numerical trouble — a hinted column that cannot be pivoted in, an
// artificial stuck basic at a positive value, loss of both primal and dual
// feasibility — abandons the warm path and falls back to a cold solve, so
// SolveWarm is exactly as robust as Solve and differs only in speed. Its
// one caller is LP2 row generation, which re-solves after appending the
// cap rows a solution violates (see internal/rounding).
package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // Σ a_i x_i ≤ b
	GE           // Σ a_i x_i ≥ b
	EQ           // Σ a_i x_i = b
)

// String returns the relation symbol.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var  int     // variable index
	Coef float64 // coefficient
}

// Constraint is one sparse row a·x {≤,=,≥} b.
type Constraint struct {
	Terms []Term
	Op    Op
	B     float64
}

// Problem is a linear program over NumVars nonnegative variables.
type Problem struct {
	NumVars int
	C       []float64 // minimization objective, length NumVars
	Cons    []Constraint
}

// NewProblem returns an empty minimization problem on n variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, C: make([]float64, n)}
}

// AddConstraint appends a sparse constraint row.
func (p *Problem) AddConstraint(terms []Term, op Op, b float64) {
	p.Cons = append(p.Cons, Constraint{Terms: terms, Op: op, B: b})
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Basis encoding (Solution.Basis and SolveWarm hints): entry i describes
// the basic column of constraint row i. A value v ≥ 0 names original
// variable v; a value v < 0 (other than NoHint) names the slack or surplus
// column owned by row −1−v. The encoding carries across problems with the
// same row meaning, which is what makes a previous solve's basis usable as
// a hint for a perturbed re-solve.
const NoHint = math.MinInt

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	X      []float64 // values of the original variables (Optimal only)
	Obj    float64   // objective value (Optimal only)
	Iters  int       // simplex pivots across both phases (diagnostics)
	// Basis is the optimal basis, one entry per constraint row, in the
	// encoding documented at NoHint (Optimal only). Feed it back to
	// SolveWarm to warm-start a related re-solve.
	Basis []int
	// Warm reports that the warm-start path produced this solution
	// without falling back to a cold solve.
	Warm bool
}

// ErrIterationLimit is the cause, wrapped in ErrUnsolvable, when the simplex
// exceeds its iteration budget, which indicates a numerical pathology
// rather than a legitimate answer.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrUnsolvable marks a problem the engine cannot finish: the sparse
// simplex bailed out numerically (a singular refactorization or the
// iteration budget), and retrying the same problem would only repeat the
// failure. Callers that serve LP results should surface it as a semantic
// rejection of the instance (the planning service maps it to HTTP 422),
// not as an internal server error — the request was understood, and this
// instance is beyond the engine.
var ErrUnsolvable = errors.New("lp: problem unsolvable within engine limits")

// errNumeric is an internal sentinel for numerical bailouts (a basis
// refactorization that cannot find acceptable pivots); Solve reports it
// wrapped in ErrUnsolvable.
var errNumeric = errors.New("lp: sparse basis factorization failed")

const (
	eps      = 1e-9 // pivot / feasibility tolerance
	costEps  = 1e-9 // reduced-cost optimality tolerance
	cleanEps = 1e-9 // solution cleanup threshold
	pivotTol = 1e-7 // minimum magnitude for install / drive-out pivots
)

// Solver is a reusable simplex workspace for the sparse revised simplex
// (compressed columns + LU-factorized basis + candidate pricing). All
// state is allocated once and grown monotonically, so repeated solves of
// similar-size problems allocate nothing beyond the returned Solution. A
// Solver is not safe for concurrent use; hot paths hold one per goroutine
// (see rounding.Workspace).
type Solver struct {
	sp    spState
	iters int
	prng  rng.SplitMix64

	// warm-install scratch
	wantCol []bool
	desired []int

	negArena []Term // normalization scratch for b < 0 rows
	rowsBuf  []rowInfo

	// Diagnostics: solve counts by path, readable between solves.
	ColdSolves    int // cold two-phase solves (including warm fallbacks)
	WarmSolves    int // solves completed on the warm path
	WarmFallbacks int // warm attempts abandoned to a cold solve
	// Ftrans counts the engine's entering-column FTRANs; HyperFtrans
	// counts those that took the reach-ordered path (lu.go).
	Ftrans, HyperFtrans int
}

type rowInfo struct {
	terms []Term
	op    Op
	b     float64
}

// NewSolver returns an empty workspace. The zero value is also ready to use.
func NewSolver() *Solver { return &Solver{} }

// Solve solves the problem from a cold (all-slack) start. Infeasible and
// unbounded outcomes are reported via Status. The error is non-nil for
// malformed problems and for numerical bailouts (a singular basis or the
// iteration budget), which match both ErrUnsolvable and their cause.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	sol, err := s.solveSparse(p)
	if err == errNumeric || err == ErrIterationLimit {
		return nil, unsolvableError(p, err)
	}
	return sol, err
}

// unsolvableError wraps a numerical bailout so callers can match both the
// typed ErrUnsolvable and the underlying engine failure.
func unsolvableError(p *Problem, cause error) error {
	return fmt.Errorf("%w: simplex bailed out numerically (%d rows): %w", ErrUnsolvable, len(p.Cons), cause)
}

// SolveWarm solves the problem starting from the hinted basis (one entry
// per constraint row, Basis encoding; NoHint entries default to the row's
// own slack). It skips phase 1 when the hint installs cleanly, repairing
// primal feasibility with dual simplex pivots, and falls back to a cold
// Solve on any trouble — the result is always exactly as trustworthy as
// Solve's, warm starting only changes the pivot count.
func (s *Solver) SolveWarm(p *Problem, hint []int) (*Solution, error) {
	if len(hint) != len(p.Cons) {
		return s.Solve(p)
	}
	sol, ok, err := s.tryWarmSparse(p, hint)
	if err != nil {
		return nil, err
	}
	if ok {
		s.WarmSolves++
		sol.Warm = true
		return sol, nil
	}
	s.WarmFallbacks++
	return s.Solve(p)
}

// Solve solves the problem on a throwaway Solver. Callers in hot loops
// should hold a Solver and use its methods instead.
func Solve(p *Problem) (*Solution, error) {
	return NewSolver().Solve(p)
}

// normalize rewrites the constraints with b ≥ 0 (negating a row flips
// LE<->GE) into the solver's reusable row buffer and counts the auxiliary
// columns the engine appends: one slack/surplus per inequality, one
// artificial per GE/EQ row.
func (s *Solver) normalize(p *Problem) (rows []rowInfo, slacks, artificials int, err error) {
	if len(p.C) != p.NumVars {
		return nil, 0, 0, fmt.Errorf("lp: objective has %d coefficients, want %d", len(p.C), p.NumVars)
	}
	m := len(p.Cons)
	rows = growRowInfos(s.rowsBuf, m)
	neg := s.negArena[:0]
	for i, c := range p.Cons {
		ri := rowInfo{terms: c.Terms, op: c.Op, b: c.B}
		if ri.b < 0 {
			start := len(neg)
			for _, t := range ri.terms {
				neg = append(neg, Term{t.Var, -t.Coef})
			}
			ri.terms = neg[start:len(neg):len(neg)]
			ri.b = -ri.b
			switch ri.op {
			case LE:
				ri.op = GE
			case GE:
				ri.op = LE
			}
		}
		switch ri.op {
		case LE:
			slacks++
		case GE:
			slacks++ // surplus
			artificials++
		case EQ:
			artificials++
		}
		rows[i] = ri
	}
	s.rowsBuf, s.negArena = rows, neg
	return rows, slacks, artificials, nil
}

// growFloats returns buf resized to n, zeroed, reusing its backing array
// when capacity allows (the zeroing loop compiles to memclr).
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

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

func growRowInfos(buf []rowInfo, n int) []rowInfo {
	if cap(buf) < n {
		return make([]rowInfo, n)
	}
	return buf[:n]
}

// Residual reports the worst constraint violation of x (positive means
// infeasible by that amount) and is used by tests and defensive checks.
func (p *Problem) Residual(x []float64) float64 {
	worst := 0.0
	for _, c := range p.Cons {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		var v float64
		switch c.Op {
		case LE:
			v = lhs - c.B
		case GE:
			v = c.B - lhs
		case EQ:
			v = math.Abs(lhs - c.B)
		}
		if v > worst {
			worst = v
		}
	}
	for _, xi := range x {
		if -xi > worst {
			worst = -xi
		}
	}
	return worst
}
