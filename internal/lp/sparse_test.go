package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// lp1FromInstance builds the LP1(jobs, L) relaxation from a workload
// instance's log-failure matrix, mirroring rounding.buildLP1: cover rows
// then machine rows, x_{i,pos} at i*k+pos, t at m*k.
func lp1FromInstance(t *testing.T, spec workload.Spec, L float64) *Problem {
	t.Helper()
	ins, err := workload.Generate(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Family, err)
	}
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	k := len(jobs)
	m := ins.M
	p := NewProblem(m*k + 1)
	p.C[m*k] = 1
	for pos, j := range jobs {
		var terms []Term
		for i := 0; i < m; i++ {
			if l := math.Min(ins.L[i][j], L); l > 0 {
				terms = append(terms, Term{i*k + pos, l})
			}
		}
		if len(terms) == 0 {
			t.Fatalf("%s: job %d unreachable", spec.Family, j)
		}
		p.AddConstraint(terms, GE, L)
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, k+1)
		for pos := 0; pos < k; pos++ {
			terms = append(terms, Term{i*k + pos, 1})
		}
		terms = append(terms, Term{m * k, -1})
		p.AddConstraint(terms, LE, 0)
	}
	return p
}

// diffFamilies is every Table-1 instance family, including the degenerate
// specialist variant whose exactly-tied rates stress-test degenerate bases.
var diffFamilies = []string{
	"uniform", "skill", "specialist", "specialist-degen", "volunteer",
}

// TestSparseMatchesDenseFamilies is the differential solver test the
// sparse engine is held to: on LP1-shaped programs from every workload
// family, the sparse revised simplex and the dense tableau reference must
// agree on t* to 1e-6, and the sparse optimum must satisfy the constraints.
func TestSparseMatchesDenseFamilies(t *testing.T) {
	for _, family := range diffFamilies {
		for rep := 0; rep < 3; rep++ {
			for _, L := range []float64{0.5, 2} {
				spec := workload.Spec{
					Family: family, M: 8, N: 24, Seed: int64(1000*rep + 17), Groups: 4,
				}
				p := lp1FromInstance(t, spec, L)
				sparse, err := NewSolver().Solve(p)
				if err != nil {
					t.Fatalf("%s rep %d L=%g sparse: %v", family, rep, L, err)
				}
				dense, err := solveDense(p)
				if err != nil {
					t.Fatalf("%s rep %d L=%g dense: %v", family, rep, L, err)
				}
				if sparse.Status != Optimal || dense.Status != Optimal {
					t.Fatalf("%s rep %d L=%g: sparse %v, dense %v", family, rep, L, sparse.Status, dense.Status)
				}
				if diff := math.Abs(sparse.Obj - dense.Obj); diff > 1e-6*(1+math.Abs(dense.Obj)) {
					t.Fatalf("%s rep %d L=%g: sparse t* = %.9g, dense t* = %.9g (diff %g)",
						family, rep, L, sparse.Obj, dense.Obj, diff)
				}
				if r := p.Residual(sparse.X); r > 1e-6 {
					t.Fatalf("%s rep %d L=%g: sparse residual %g", family, rep, L, r)
				}
			}
		}
	}
}

// TestSparseMatchesDenseGeneral runs the engine against the reference on
// random general LPs — mixed relations, negative right-hand sides,
// occasionally infeasible or unbounded — asserting identical statuses and
// matching optima.
func TestSparseMatchesDenseGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.C[j] = math.Round(rng.Float64()*10) - 4
		}
		nc := 1 + rng.Intn(6)
		for k := 0; k < nc; k++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if c := math.Round(rng.Float64()*8) - 4; c != 0 {
					terms = append(terms, Term{j, c})
				}
			}
			if len(terms) == 0 {
				continue
			}
			op := Op(rng.Intn(3))
			p.AddConstraint(terms, op, math.Round(rng.Float64()*12)-4)
		}
		sparse, serr := NewSolver().Solve(p)
		dense, derr := solveDense(p)
		if (serr != nil) != (derr != nil) {
			t.Fatalf("trial %d: sparse err %v, dense err %v", trial, serr, derr)
		}
		if serr != nil {
			continue
		}
		if sparse.Status != dense.Status {
			t.Fatalf("trial %d: sparse %v, dense %v", trial, sparse.Status, dense.Status)
		}
		if sparse.Status != Optimal {
			continue
		}
		if diff := math.Abs(sparse.Obj - dense.Obj); diff > 1e-6*(1+math.Abs(dense.Obj)) {
			t.Fatalf("trial %d: sparse obj %.9g, dense obj %.9g", trial, sparse.Obj, dense.Obj)
		}
		if r := p.Residual(sparse.X); r > 1e-6 {
			t.Fatalf("trial %d: sparse residual %g", trial, r)
		}
	}
}

// TestSparseWarmChainMatchesDense drives the sparse engine through SEM's
// shrink/double warm chain and checks every link's objective against a
// cold solve of the identical problem on the dense reference — the
// cross-engine version of TestWarmShrinkAndDouble.
func TestSparseWarmChainMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const m, n = 8, 32
	for trial := 0; trial < 5; trial++ {
		ell := randomRates(rng, m, n)
		jobs := make([]int, n)
		for j := range jobs {
			jobs[j] = j
		}
		L := 0.5
		s := NewSolver()
		prev, err := s.Solve(buildLP1Shaped(ell, jobs, L))
		if err != nil {
			t.Fatal(err)
		}
		prevJobs := jobs
		for round := 2; round <= 4 && len(prevJobs) > 2; round++ {
			var surv []int
			for _, j := range prevJobs {
				if rng.Float64() < 0.4 {
					surv = append(surv, j)
				}
			}
			if len(surv) == 0 {
				surv = prevJobs[:1]
			}
			L *= 2
			p := buildLP1Shaped(ell, surv, L)
			posOf := make(map[int]int, len(prevJobs))
			for pos, j := range prevJobs {
				posOf[j] = pos
			}
			newPos := make(map[int]int, len(surv))
			for pos, j := range surv {
				newPos[j] = pos
			}
			prevK, k := len(prevJobs), len(surv)
			hint := make([]int, k+m)
			for r := range hint {
				var prevRow int
				if r < k {
					prevRow = posOf[surv[r]]
				} else {
					prevRow = prevK + (r - k)
				}
				hint[r] = remapBasisEntry(prev.Basis[prevRow], prevK, k, m, prevJobs, newPos)
			}
			warm, err := s.SolveWarm(p, hint)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := solveDense(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != Optimal || dense.Status != Optimal {
				t.Fatalf("trial %d round %d: warm %v dense %v", trial, round, warm.Status, dense.Status)
			}
			if diff := math.Abs(warm.Obj - dense.Obj); diff > 1e-6*(1+math.Abs(dense.Obj)) {
				t.Fatalf("trial %d round %d: sparse warm obj %.9g, dense cold obj %.9g",
					trial, round, warm.Obj, dense.Obj)
			}
			prev, prevJobs = warm, surv
		}
	}
}

// TestSparseDegenerateFamilyLarge pins the degenerate specialist family at
// a size where candidate pricing, eta updates, and refactorization all
// engage: massively tied rates produce degenerate bases, and the engines
// must still agree.
func TestSparseDegenerateFamilyLarge(t *testing.T) {
	spec := workload.Spec{Family: "specialist-degen", M: 16, N: 64, Seed: 5, Groups: 4}
	p := lp1FromInstance(t, spec, 0.5)
	sparse, err := NewSolver().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := solveDense(p)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Status != Optimal || dense.Status != Optimal {
		t.Fatalf("sparse %v, dense %v", sparse.Status, dense.Status)
	}
	if diff := math.Abs(sparse.Obj - dense.Obj); diff > 1e-6*(1+math.Abs(dense.Obj)) {
		t.Fatalf("sparse t* = %.9g, dense t* = %.9g", sparse.Obj, dense.Obj)
	}
}
