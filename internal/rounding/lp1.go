// Package rounding implements the paper's LP relaxations and their
// roundings: (LP1) with Lemma 2 for independent jobs, and (LP2) with
// Lemma 6 for disjoint chains. Both roundings share the same skeleton —
// cap log failures at the target, group machines by powers of two,
// inflate-and-floor the group assignments, and extract an integral
// assignment as an integral maximum flow — and both come with defensive
// post-condition checks (mass and load) that repair any floating-point
// slop greedily, counting how often that was needed (never, in practice).
//
// Solving happens on per-goroutine Workspaces (one reusable lp.Solver
// plus problem-build arenas). LP1 is always solved cold, so a rounding is
// a pure function of (instance, jobs, L). Cache memoizes rounded LP1
// results across every computation that shares it, keyed by instance
// content and job set and evicting by LRU under a byte budget.
package rounding

import (
	"fmt"
	"math"

	"repro/internal/maxflow"
	"repro/internal/model"
	"repro/internal/sched"
)

// capEps guards floor/ceil of LP values against floating-point slop:
// floor(6·2.9999999996) must be 18, not 17.
const capEps = 1e-7

// LP1Result is a rounded solution of LP1(jobs, L).
type LP1Result struct {
	// Schedule is the rounded assignment x̂ (zero outside jobs) serialized
	// once, when the result is rounded: machine i runs its jobs back to
	// back in ascending job order, so Schedule.Length is the max machine
	// load (≤ ⌈6t*⌉ + repairs). It is shared by every cache hit, so
	// callers must not mutate it.
	Schedule *sched.Oblivious
	// TFrac is the optimal value t* of the LP relaxation, a lower bound
	// on tLP1 and hence (for L=1/2, all jobs) within O(1) of E[T_OPT]
	// by Lemma 1.
	TFrac float64
	// Repairs counts greedy post-rounding fix-up steps (0 in practice).
	Repairs int
}

// SolveLP1 solves the LP relaxation of LP1(jobs, L) from Section 3:
//
//	min t  s.t.  Σ_i ℓ′_ij·x_ij ≥ L (j ∈ jobs),  Σ_j x_ij ≤ t (i),  x ≥ 0,
//
// with ℓ′ = min(ℓ, L). It returns the fractional assignment x*[i][pos]
// (pos indexes the jobs slice) and t*. One-shot callers only; hot paths
// hold a Workspace (see workspace.go) so the solver state is reused.
func SolveLP1(ins *model.Instance, jobs []int, L float64) ([][]float64, float64, error) {
	return NewWorkspace().solveLP1(ins, jobs, L)
}

// RoundLP1 implements Lemma 2: it solves the relaxation and rounds it to an
// integral assignment giving every job in jobs log mass at least L (under
// the capped ℓ′) with machine loads at most ⌈6t*⌉.
func RoundLP1(ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	return NewWorkspace().roundLP1(ins, jobs, L)
}

// RoundFractional applies the Lemma 2 rounding to an externally-computed
// fractional solution (x indexed [machine][position in jobs]) whose machine
// loads are at most tfrac. It is how approximate solvers (the MWU engine)
// plug into the same rounding pipeline as the exact simplex.
func RoundFractional(ins *model.Instance, jobs []int, L float64, xfrac [][]float64, tfrac float64) (*LP1Result, error) {
	if len(jobs) == 0 {
		return emptyLP1(ins), nil
	}
	asn := sched.NewAssignment(ins.M, ins.N)
	repairs, err := roundByFlow(ins, jobs, L, xfrac, tfrac, nil, nil, asn)
	if err != nil {
		return nil, err
	}
	return newLP1Result(asn, jobs, tfrac, repairs), nil
}

// newLP1Result serializes a rounded assignment whose nonzero columns are
// all in jobs. asn may be scratch: the result keeps none of its storage.
func newLP1Result(asn *sched.Assignment, jobs []int, tfrac float64, repairs int) *LP1Result {
	return &LP1Result{Schedule: asn.SerializeJobs(jobs), TFrac: tfrac, Repairs: repairs}
}

// emptyLP1 is the rounding of an empty job set: an all-idle schedule.
func emptyLP1(ins *model.Instance) *LP1Result {
	return &LP1Result{Schedule: &sched.Oblivious{M: ins.M, Runs: make([][]sched.Run, ins.M)}}
}

// RoundFractionalNaive rounds an externally-computed fractional solution by
// independent per-entry ceilings (x̂ = ⌈6x⌉ where x > 0) — the ablation
// baseline for Lemma 2. Spread-out solutions (like the MWU engine's)
// inflate machine loads by up to one step per positive entry.
func RoundFractionalNaive(ins *model.Instance, jobs []int, L float64, xfrac [][]float64, tfrac float64) (*LP1Result, error) {
	asn := sched.NewAssignment(ins.M, ins.N)
	for i := 0; i < ins.M; i++ {
		for pos, j := range jobs {
			if xfrac[i][pos] > 1e-12 {
				asn.X[i][j] = int64(math.Ceil(6*xfrac[i][pos] - capEps))
			}
		}
	}
	repairs, err := repairMass(ins, jobs, L, asn)
	if err != nil {
		return nil, err
	}
	return newLP1Result(asn, jobs, tfrac, repairs), nil
}

// repairMass greedily tops up any job whose capped mass fell below L,
// returning the number of added steps (0 in practice for valid inputs).
func repairMass(ins *model.Instance, jobs []int, L float64, asn *sched.Assignment) (int, error) {
	repairs := 0
	for _, j := range jobs {
		mass, best, bestL := 0.0, -1, 0.0
		for i := 0; i < ins.M; i++ {
			l := math.Min(ins.L[i][j], L)
			mass += l * float64(asn.X[i][j])
			if l > bestL {
				best, bestL = i, l
			}
		}
		if mass+1e-9 >= L {
			continue
		}
		if best < 0 {
			return repairs, fmt.Errorf("rounding: job %d unroundable", j)
		}
		steps := int64(math.Ceil((L - mass) / bestL))
		asn.X[best][j] += steps
		repairs += int(steps)
	}
	return repairs, nil
}

// groupOf buckets a capped log failure by ⌊log₂ ℓ′⌋.
func groupOf(l float64) int {
	return int(math.Floor(math.Log2(l) + 1e-12))
}

// roundScratch is the reusable state of roundByFlow: the group-sum window
// and entry list, the flow network, the edge list, and the dense m×n
// assignment LP1 roundings write into before serializing. Threaded through
// rounding.Workspace so the Monte Carlo trial loop's rounding path stops
// allocating (the serialized schedule is the one allocation left — results
// are cached and shared across trials, so their storage must escape).
type roundScratch struct {
	ent   []groupEntry
	acc   []float64
	graph maxflow.Graph
	edges []flowEdge

	asn   *sched.Assignment
	dirty []int // columns of asn the previous rounding may have written
}

// assignment returns the scratch m×n assignment with every column the
// previous rounding wrote cleared, and records jobs as the columns this
// one will write (roundByFlow only touches its jobs' columns). The
// matrix stays valid until the next call.
func (s *roundScratch) assignment(m, n int, jobs []int) *sched.Assignment {
	if s.asn == nil || s.asn.M != m || s.asn.N != n {
		s.asn = sched.NewAssignment(m, n)
	} else {
		for _, row := range s.asn.X {
			for _, j := range s.dirty {
				row[j] = 0
			}
		}
	}
	s.dirty = append(s.dirty[:0], jobs...)
	return s.asn
}

// groupEntry is one (job position, power-of-two group) sum, emitted in
// pos-major, group-ascending order — the same order the pre-workspace
// implementation produced by sorting its map keys, so integral flows (and
// hence assignments) are byte-identical.
type groupEntry struct {
	pos, g int32
	sum    float64
}

type flowEdge struct {
	id  int32
	i   int32
	pos int32
}

// roundByFlow performs the shared grouping + flow rounding of Lemmas 2
// and 6, adding the integral assignment into asn, which must be zero on
// the jobs' columns; it returns the repair count. edgeCap, if non-nil,
// bounds the per-(job,machine) assignment (the ⌈6d*_j⌉ caps of Lemma 6);
// nil means uncapacitated (Lemma 2). scratch may be nil (one-shot
// callers); hot paths pass their workspace's.
func roundByFlow(ins *model.Instance, jobs []int, L float64, xfrac [][]float64, tstar float64, edgeCap func(pos, i int) int64, scratch *roundScratch, asn *sched.Assignment) (int, error) {
	m := ins.M
	if scratch == nil {
		scratch = &roundScratch{}
	}

	// Group the fractional assignment: D[pos][g] = Σ over machines i with
	// ⌊log₂ ℓ′_ij⌋ = g of x*_{i,pos}. The group range is data-bounded
	// (ℓ′ ∈ (0, L]), so a dense window indexed g−gmin replaces the old
	// map: pass 1 finds the range, pass 2 accumulates one job at a time
	// (machine-ascending, matching the map version's addition order) and
	// emits nonzero sums in group order.
	gmin, gmax := 0, 0
	haveRange := false
	for pos, j := range jobs {
		for i := 0; i < m; i++ {
			if xfrac[i][pos] <= 0 {
				continue
			}
			l := math.Min(ins.L[i][j], L)
			if l <= 0 {
				continue
			}
			g := groupOf(l)
			if !haveRange {
				gmin, gmax, haveRange = g, g, true
			} else if g < gmin {
				gmin = g
			} else if g > gmax {
				gmax = g
			}
		}
	}
	width := 0
	if haveRange {
		width = gmax - gmin + 1
	}
	acc := growFloats(scratch.acc, width)
	scratch.acc = acc
	ent := scratch.ent[:0]
	for pos, j := range jobs {
		for i := 0; i < m; i++ {
			if xfrac[i][pos] <= 0 {
				continue
			}
			l := math.Min(ins.L[i][j], L)
			if l <= 0 {
				continue
			}
			acc[groupOf(l)-gmin] += xfrac[i][pos]
		}
		for g := 0; g < width; g++ {
			if acc[g] != 0 {
				ent = append(ent, groupEntry{pos: int32(pos), g: int32(g + gmin), sum: acc[g]})
				acc[g] = 0
			}
		}
	}
	scratch.ent = ent

	// Build the flow network: s → u_{j,g} → v_i → w.
	// Node ids: s=0, w=1, machines 2..m+1, groups m+2...
	// Edge count upper bound: one per machine to the sink, plus per group
	// node one source edge and at most m machine edges.
	g := &scratch.graph
	g.Reset(2 + m + len(ent))
	g.Reserve(m + len(ent)*(1+m))
	const s, w = 0, 1
	machineNode := func(i int) int { return 2 + i }
	loadCap := int64(math.Ceil(6*tstar - capEps))
	if loadCap < 0 {
		loadCap = 0
	}
	for i := 0; i < m; i++ {
		if _, err := g.AddEdge(machineNode(i), w, loadCap); err != nil {
			return 0, err
		}
	}
	edges := scratch.edges[:0]
	next := 2 + m
	var want int64 // total source capacity; the lemma guarantees it routes
	for _, key := range ent {
		capV := int64(math.Floor(6*key.sum + capEps))
		if capV <= 0 {
			continue
		}
		node := next
		next++
		if _, err := g.AddEdge(s, node, capV); err != nil {
			return 0, err
		}
		want += capV
		j := jobs[key.pos]
		for i := 0; i < m; i++ {
			l := math.Min(ins.L[i][j], L)
			if l <= 0 || groupOf(l) != int(key.g) {
				continue
			}
			c := maxflow.Inf
			if edgeCap != nil {
				c = edgeCap(int(key.pos), i)
			}
			if c <= 0 {
				continue
			}
			id, err := g.AddEdge(node, machineNode(i), c)
			if err != nil {
				return 0, err
			}
			edges = append(edges, flowEdge{int32(id), int32(i), key.pos})
		}
	}
	scratch.edges = edges
	got := g.MaxFlow(s, w)
	_ = want // got may fall short only through float slop; repairs below cover it.

	for _, e := range edges {
		asn.X[e.i][jobs[e.pos]] += g.Flow(int(e.id))
	}

	// Post-conditions (Lemma 2): every job has capped mass ≥ L. Repair any
	// shortfall greedily on the job's most effective machine.
	repairs := 0
	for _, j := range jobs {
		mass := 0.0
		best, bestL := -1, 0.0
		for i := 0; i < m; i++ {
			l := math.Min(ins.L[i][j], L)
			mass += l * float64(asn.X[i][j])
			if l > bestL {
				best, bestL = i, l
			}
		}
		if mass+1e-9 >= L {
			continue
		}
		if best < 0 {
			return repairs, fmt.Errorf("rounding: job %d unroundable (no positive rate)", j)
		}
		steps := int64(math.Ceil((L - mass) / bestL))
		asn.X[best][j] += steps
		repairs += int(steps)
	}
	_ = got
	return repairs, nil
}
