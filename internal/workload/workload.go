// Package workload generates the SUU instance families the experiments
// run on. The families mirror the paper's motivating settings: uniform
// unreliable machines (volunteer computing à la SETI@home), machine
// skill × job hardness products, specialist machines (where LP routing
// matters most), disjoint chains, random directed forests, and MapReduce's
// complete-bipartite two-phase structure. All generators are deterministic
// given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/model"
)

// clampQ keeps failure probabilities inside a numerically comfortable range:
// q=1 would make a machine useless for a job (allowed, used by specialists),
// q too close to 0 is clamped by the model anyway.
func clampQ(q float64) float64 {
	if q < 1e-6 {
		return 1e-6
	}
	if q > 0.999 {
		return 0.999
	}
	return q
}

// IndependentUniform draws every q_ij uniformly from [qlo, qhi].
func IndependentUniform(rng *rand.Rand, m, n int, qlo, qhi float64) (*model.Instance, error) {
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = clampQ(qlo + (qhi-qlo)*rng.Float64())
		}
	}
	return model.New(m, n, q, nil)
}

// IndependentSkill gives machine i a power p_i and job j a hardness h_j,
// with ℓ_ij = p_i/h_j (so q_ij = 2^(−p_i/h_j)): a product structure where
// both machine choice and job difficulty matter. Powers are log-uniform in
// [0.25, 4], hardness log-uniform in [0.5, 8].
func IndependentSkill(rng *rand.Rand, m, n int) (*model.Instance, error) {
	p := make([]float64, m)
	for i := range p {
		p[i] = math.Pow(2, rng.Float64()*4-2) // 0.25 .. 4
	}
	h := make([]float64, n)
	for j := range h {
		h[j] = math.Pow(2, rng.Float64()*4-1) // 0.5 .. 8
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = clampQ(math.Pow(2, -p[i]/h[j]))
		}
	}
	return model.New(m, n, q, nil)
}

// IndependentSpecialist partitions machines and jobs into groups; a machine
// is effective (ℓ ≈ 1..2) on its own group's jobs and nearly useless
// (q = 0.98) elsewhere. This is the family where LP-based routing beats
// oblivious spreading by the widest margin.
func IndependentSpecialist(rng *rand.Rand, m, n, groups int) (*model.Instance, error) {
	if groups < 1 {
		return nil, fmt.Errorf("workload: groups = %d", groups)
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		gi := i % groups
		for j := range q[i] {
			if j%groups == gi {
				q[i][j] = clampQ(math.Pow(2, -(1 + rng.Float64()))) // ℓ in [1,2]
			} else {
				q[i][j] = 0.98
			}
		}
	}
	return model.New(m, n, q, nil)
}

// IndependentSpecialistDegenerate is the specialist family with exactly
// tied rates: a machine processes its own group's jobs at precisely ℓ = 1
// (q = 1/2) and everything else at q = 0.98. Every efficient (machine, job)
// pair is interchangeable, so LP1's optimal face is high-dimensional and
// simplex bases are massively degenerate — the stress test for ratio-test
// tie-breaking, candidate pricing, warm starts, and LU refactorization
// (ties mean near-singular pivot choices are always one misstep away).
func IndependentSpecialistDegenerate(m, n, groups int) (*model.Instance, error) {
	if groups < 1 {
		return nil, fmt.Errorf("workload: groups = %d", groups)
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		gi := i % groups
		for j := range q[i] {
			if j%groups == gi {
				q[i][j] = 0.5 // ℓ = exactly 1
			} else {
				q[i][j] = 0.98
			}
		}
	}
	return model.New(m, n, q, nil)
}

// Volunteer models a volunteer pool: machine powers are heavy-tailed (a few
// fast hosts, many slow ones), job difficulties moderate; ℓ_ij = p_i/h_j.
func Volunteer(rng *rand.Rand, m, n int) (*model.Instance, error) {
	p := make([]float64, m)
	for i := range p {
		// Pareto-ish: p = 0.3 / U^0.7, capped.
		u := rng.Float64()
		if u < 1e-3 {
			u = 1e-3
		}
		p[i] = math.Min(0.3/math.Pow(u, 0.7), 8)
	}
	h := make([]float64, n)
	for j := range h {
		h[j] = 0.5 + 2.5*rng.Float64()
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = clampQ(math.Pow(2, -p[i]/h[j]))
		}
	}
	return model.New(m, n, q, nil)
}

// Chains builds z disjoint chains over n jobs (lengths as even as possible)
// with uniform q in [qlo, qhi].
func Chains(rng *rand.Rand, m, n, z int, qlo, qhi float64) (*model.Instance, error) {
	if z < 1 || z > n {
		return nil, fmt.Errorf("workload: %d chains for %d jobs", z, n)
	}
	g := dag.New(n)
	// Deal jobs round-robin into chains, then link consecutive members.
	members := make([][]int, z)
	for j := 0; j < n; j++ {
		members[j%z] = append(members[j%z], j)
	}
	for _, ch := range members {
		for k := 1; k < len(ch); k++ {
			g.MustEdge(ch[k-1], ch[k])
		}
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = clampQ(qlo + (qhi-qlo)*rng.Float64())
		}
	}
	return model.New(m, n, q, g)
}

// ChainsSkewed builds chains with geometric length skew (a few long chains,
// many short ones) and skill-structured probabilities — the adversarial
// case for congestion.
func ChainsSkewed(rng *rand.Rand, m, n int) (*model.Instance, error) {
	g := dag.New(n)
	j := 0
	prev := -1
	chainLen := 0
	target := 1
	for j < n {
		if chainLen >= target {
			prev = -1
			chainLen = 0
			target = 1 + int(rng.ExpFloat64()*float64(n)/8)
		}
		if prev >= 0 {
			g.MustEdge(prev, j)
		}
		prev = j
		chainLen++
		j++
	}
	skill, err := IndependentSkill(rng, m, n)
	if err != nil {
		return nil, err
	}
	return model.New(m, n, skill.Q, g)
}

// ChainsHard builds z chains whose head jobs are specialist-hard:
// processable at a useful rate on a single random machine (ℓ ∈ [0.06,
// 0.12]) and nearly unprocessable elsewhere (q = 0.995), while the rest
// are easy everywhere (ℓ ∈ [0.7, 1.5]). Hard jobs have LP2 lengths
// d_j ≈ 1/ℓ ≫ γ, so SUU-C classifies them long; because they sit at chain
// heads, they all pause in the first segment and form one large long-job
// batch — the regime where the choice of long-job subroutine (SEM vs OBL)
// decides the approximation factor.
func ChainsHard(rng *rand.Rand, m, n, z int, hardFrac float64) (*model.Instance, error) {
	base, err := Chains(rng, m, n, z, 0.3, 0.7)
	if err != nil {
		return nil, err
	}
	chains, err := base.Chains()
	if err != nil {
		return nil, err
	}
	budget := int(hardFrac*float64(n) + 0.5)
	hard := make([]bool, n)
	// Heads first, then second positions, until the budget is spent.
	for pos := 0; budget > 0; pos++ {
		placed := false
		for _, c := range chains {
			if pos < len(c) && budget > 0 {
				hard[c[pos]] = true
				budget--
				placed = true
			}
		}
		if !placed {
			break
		}
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		if hard[j] {
			fast := rng.Intn(m)
			l := 0.06 + 0.06*rng.Float64()
			for i := 0; i < m; i++ {
				if i == fast {
					q[i][j] = math.Pow(2, -l)
				} else {
					q[i][j] = 0.995
				}
			}
		} else {
			for i := 0; i < m; i++ {
				l := 0.7 + 0.8*rng.Float64()
				q[i][j] = math.Pow(2, -l)
			}
		}
	}
	return model.New(m, n, q, base.Prec)
}

// Forest builds a random directed forest: trees of random sizes with
// branching factor up to branch; orientation is out-trees when out is true,
// in-trees otherwise. Probabilities are uniform in [qlo, qhi].
func Forest(rng *rand.Rand, m, n, branch int, out bool, qlo, qhi float64) (*model.Instance, error) {
	if branch < 1 {
		return nil, fmt.Errorf("workload: branch = %d", branch)
	}
	g := dag.New(n)
	start := 0
	for start < n {
		size := 1 + rng.Intn(n-start)
		// Attach vertex v to a random earlier vertex in the same tree with
		// fewer than branch children.
		for v := start + 1; v < start+size; v++ {
			parent := start + rng.Intn(v-start)
			tries := 0
			for g.OutDegree(parent) >= branch && tries < 2*size {
				parent = start + rng.Intn(v-start)
				tries++
			}
			if out {
				g.MustEdge(parent, v)
			} else {
				g.MustEdge(v, parent)
			}
		}
		start += size
	}
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = clampQ(qlo + (qhi-qlo)*rng.Float64())
		}
	}
	return model.New(m, n, q, g)
}

// MapReduce builds the paper's introduction example: nMap map jobs, every
// one preceding every one of nReduce reduce jobs (a complete bipartite
// DAG — two phases of independent jobs). Probabilities come from the
// volunteer model.
func MapReduce(rng *rand.Rand, m, nMap, nReduce int) (*model.Instance, error) {
	n := nMap + nReduce
	g := dag.New(n)
	for a := 0; a < nMap; a++ {
		for b := 0; b < nReduce; b++ {
			g.MustEdge(a, nMap+b)
		}
	}
	vol, err := Volunteer(rng, m, n)
	if err != nil {
		return nil, err
	}
	return model.New(m, n, vol.Q, g)
}

// Table1LargeCells returns the large-instance Table-1 cells — n=64/m=16
// and n=128/m=32 — where the LP layer dominates the profile (the full-set
// LP1 has m·n+1 ≈ 1k–4k variables). They extend the paper's n≤16-scale
// evaluation to the sizes the reusable-workspace sparse LP engine is
// built for; the t1-large experiments and the suubench -scale-large flag
// run them. Callers fill in Seed.
func Table1LargeCells() []Spec {
	return []Spec{
		{Family: "uniform", M: 16, N: 64},
		{Family: "uniform", M: 32, N: 128},
	}
}

// Table1XLargeCells returns the n=256/m=64 frontier the sparse revised
// simplex LP engine opened: the full-set LP1 has m·n+1 ≈ 16k variables,
// far past what the dense tableau could turn around. The degenerate
// specialist cell's exactly-tied rates produce the worst-case degenerate
// bases, stress-testing warm starts and LU refactorization at scale. Run
// by the t1-xlarge experiment (suubench -scale-large). Callers fill in
// Seed.
func Table1XLargeCells() []Spec {
	return []Spec{
		{Family: "uniform", M: 64, N: 256},
		{Family: "specialist-degen", M: 64, N: 256, Groups: 8},
	}
}

// Catalog builds a deterministic catalog of count specs for one family
// and size: spec i is seeded seed+i, so two runs with the same flags
// request byte-identical instances. The load harness's popularity
// distribution picks over this catalog by index, which makes the
// catalog order part of the workload contract.
func Catalog(family string, m, n, count int, seed int64) []Spec {
	if count < 1 {
		count = 1
	}
	specs := make([]Spec, count)
	for i := range specs {
		specs[i] = Spec{Family: family, M: m, N: n, Seed: seed + int64(i)}
	}
	return specs
}

// Spec is a declarative instance request, used by the CLI tools and the
// benchmark harness.
type Spec struct {
	Family string `json:"family"` // uniform | skill | specialist | specialist-degen | volunteer | chains | chains-skewed | forest | in-forest | mapreduce
	M      int    `json:"m"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	// Family-specific knobs (zero values get sensible defaults).
	QLo    float64 `json:"qlo,omitempty"`
	QHi    float64 `json:"qhi,omitempty"`
	Groups int     `json:"groups,omitempty"` // specialist
	Z      int     `json:"z,omitempty"`      // chains
	Branch int     `json:"branch,omitempty"` // forest
	NMap   int     `json:"nmap,omitempty"`   // mapreduce
}

// Generate builds the instance described by the spec.
func Generate(spec Spec) (*model.Instance, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	qlo, qhi := spec.QLo, spec.QHi
	if qlo == 0 && qhi == 0 {
		qlo, qhi = 0.1, 0.9
	}
	switch spec.Family {
	case "uniform", "":
		return IndependentUniform(rng, spec.M, spec.N, qlo, qhi)
	case "skill":
		return IndependentSkill(rng, spec.M, spec.N)
	case "specialist":
		groups := spec.Groups
		if groups == 0 {
			groups = 4
		}
		return IndependentSpecialist(rng, spec.M, spec.N, groups)
	case "specialist-degen":
		groups := spec.Groups
		if groups == 0 {
			groups = 4
		}
		return IndependentSpecialistDegenerate(spec.M, spec.N, groups)
	case "volunteer":
		return Volunteer(rng, spec.M, spec.N)
	case "chains":
		z := spec.Z
		if z == 0 {
			z = (spec.N + 3) / 4
		}
		return Chains(rng, spec.M, spec.N, z, qlo, qhi)
	case "chains-skewed":
		return ChainsSkewed(rng, spec.M, spec.N)
	case "chains-hard":
		z := spec.Z
		if z == 0 {
			z = (spec.N + 5) / 6
		}
		return ChainsHard(rng, spec.M, spec.N, z, 0.15)
	case "forest":
		branch := spec.Branch
		if branch == 0 {
			branch = 3
		}
		return Forest(rng, spec.M, spec.N, branch, true, qlo, qhi)
	case "in-forest":
		branch := spec.Branch
		if branch == 0 {
			branch = 3
		}
		return Forest(rng, spec.M, spec.N, branch, false, qlo, qhi)
	case "mapreduce":
		nMap := spec.NMap
		if nMap == 0 {
			nMap = spec.N / 2
		}
		if nMap <= 0 || nMap >= spec.N {
			return nil, fmt.Errorf("workload: mapreduce needs 0 < nmap < n, got %d of %d", nMap, spec.N)
		}
		return MapReduce(rng, spec.M, nMap, spec.N-nMap)
	default:
		return nil, fmt.Errorf("workload: unknown family %q", spec.Family)
	}
}
