package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sim"
	"repro/internal/workload"
)

func uniformInstance(t testing.TB, seed int64, m, n int) *model.Instance {
	t.Helper()
	ins, err := workload.IndependentUniform(rand.New(rand.NewSource(seed)), m, n, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func runPolicy(t testing.TB, p sim.Policy, ins *model.Instance, seed int64) int64 {
	t.Helper()
	w := sim.NewWorld(ins, rand.New(rand.NewSource(seed)))
	if err := p.Run(w); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	ms, err := w.Makespan()
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return ms
}

func TestRounds(t *testing.T) {
	cases := []struct {
		m, n, want int
	}{
		{1, 100, 3},   // min=1 < 4: floor
		{3, 3, 3},     // min=3 < 4: floor
		{4, 100, 4},   // loglog 4 = 1
		{16, 100, 5},  // loglog 16 = 2
		{100, 256, 6}, // loglog 256 = 3
		{100, 100, 6}, // loglog 100 ≈ 2.73 → ⌈⌉=3
		{65536, 70000, 7},
	}
	for _, c := range cases {
		if got := Rounds(c.m, c.n); got != c.want {
			t.Errorf("Rounds(%d,%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestOBLCompletes(t *testing.T) {
	ins := uniformInstance(t, 1, 4, 12)
	p := &OBL{Cache: rounding.NewCache()}
	for seed := int64(0); seed < 5; seed++ {
		ms := runPolicy(t, p, ins, seed)
		if ms <= 0 {
			t.Fatalf("makespan %d", ms)
		}
	}
}

func TestOBLRejectsPrecedence(t *testing.T) {
	g := dag.New(2)
	g.MustEdge(0, 1)
	ins, err := model.New(1, 2, [][]float64{{0.5, 0.5}}, g)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld(ins, rand.New(rand.NewSource(1)))
	if err := (&OBL{}).Run(w); err == nil {
		t.Fatal("OBL must reject precedence instances")
	}
	if err := (&SEM{}).Run(w); err == nil {
		t.Fatal("SEM must reject precedence instances")
	}
}

func TestSEMCompletes(t *testing.T) {
	ins := uniformInstance(t, 2, 4, 12)
	p := &SEM{Cache: rounding.NewCache()}
	for seed := int64(0); seed < 5; seed++ {
		ms := runPolicy(t, p, ins, seed)
		if ms <= 0 {
			t.Fatalf("makespan %d", ms)
		}
	}
}

// TestSEMEndgameNLessM forces the endgame with huge thresholds: with n ≤ m
// the stragglers must be run one at a time on all machines.
func TestSEMEndgameNLessM(t *testing.T) {
	ins := uniformInstance(t, 3, 6, 4) // m=6 > n=4
	thr := []float64{60, 60, 60, 60}
	w, err := sim.NewWorldWithThresholds(ins, thr)
	if err != nil {
		t.Fatal(err)
	}
	p := &SEM{Cache: rounding.NewCache()}
	if err := p.Run(w); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("jobs remain")
	}
}

// TestSEMEndgameMLessN forces the m < n endgame: repeat the round-K
// schedule.
func TestSEMEndgameMLessN(t *testing.T) {
	ins := uniformInstance(t, 5, 3, 8) // m=3 < n=8
	thr := make([]float64, 8)
	for j := range thr {
		thr[j] = 55
	}
	w, err := sim.NewWorldWithThresholds(ins, thr)
	if err != nil {
		t.Fatal(err)
	}
	p := &SEM{Cache: rounding.NewCache()}
	if err := p.Run(w); err != nil {
		t.Fatal(err)
	}
	if !w.AllDone() {
		t.Fatal("jobs remain")
	}
}

// TestSEMSurvivorRoundingsShared: SEM keys each round's rounding by the
// survivor set alone, so after one trial a plain RoundLP1Ws lookup of any
// of that trial's survivor sets is a hit on the entry SEM stored. The
// sets come from replaying the trial's rounds on an identically seeded
// world; each lookup must hit without adding an entry, and the cached
// schedule must equal a fresh cold rounding of the same set.
func TestSEMSurvivorRoundingsShared(t *testing.T) {
	ins := uniformInstance(t, 5, 16, 64)
	const seed = 2 // two jobs survive round 1
	cache := rounding.NewCache()
	runPolicy(t, &SEM{Cache: cache}, ins, seed)
	entries := cache.Stats().Entries

	w := sim.NewWorld(ins, rand.New(rand.NewSource(seed)))
	ws := rounding.NewWorkspace()
	k := Rounds(ins.M, ins.N)
	survivorRounds := 0
	for round := 1; round <= k; round++ {
		rem := w.Remaining()
		if len(rem) == 0 {
			break
		}
		target := math.Pow(2, float64(round-2))
		before := cache.Stats()
		r, err := cache.RoundLP1Ws(ws, ins, rem, target)
		if err != nil {
			t.Fatal(err)
		}
		if after := cache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Fatalf("round %d: survivor set of %d jobs at L=%g missed the cache SEM filled", round, len(rem), target)
		}
		cold, err := rounding.RoundLP1(ins, rem, target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Schedule, cold.Schedule) {
			t.Fatalf("round %d: cached schedule differs from a cold rounding of the same set", round)
		}
		if round > 1 {
			survivorRounds++
		}
		if err := w.RunOblivious(r.Schedule); err != nil {
			t.Fatal(err)
		}
	}
	if survivorRounds == 0 {
		t.Fatal("the trial finished in round 1, so no survivor set was checked")
	}
	if n := cache.Stats().Entries; n != entries {
		t.Fatalf("replay added entries: %d, SEM left %d", n, entries)
	}
}

func TestSEMSubsetLeavesOthersAlone(t *testing.T) {
	ins := uniformInstance(t, 6, 3, 6)
	w := sim.NewWorld(ins, rand.New(rand.NewSource(2)))
	p := &SEM{Cache: rounding.NewCache()}
	if err := p.RunOnSubset(w, []int{0, 2, 4}); err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 2, 4} {
		if !w.Done(j) {
			t.Fatalf("job %d should be done", j)
		}
	}
	for _, j := range []int{1, 3, 5} {
		if w.Done(j) {
			t.Fatalf("job %d should be untouched", j)
		}
	}
}

func chainsInstance(t testing.TB, seed int64, m, n, z int) *model.Instance {
	t.Helper()
	ins, err := workload.Chains(rand.New(rand.NewSource(seed)), m, n, z, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestChainsCompletes(t *testing.T) {
	ins := chainsInstance(t, 7, 4, 16, 4)
	p := &Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}
	for seed := int64(0); seed < 4; seed++ {
		ms := runPolicy(t, p, ins, seed)
		if ms < 4 {
			t.Fatalf("makespan %d below chain length", ms)
		}
	}
}

func TestChainsVariants(t *testing.T) {
	ins := chainsInstance(t, 8, 3, 12, 3)
	variants := []*Chains{
		{NoDelay: true},
		{Quantize: true},
		{LongJobs: &OBL{}},
		{LongJobs: &OBL{}, NoDelay: true, Quantize: true},
	}
	for _, p := range variants {
		p.LP1Cache = rounding.NewCache()
		p.LP2Cache = rounding.NewLP2Cache()
		ms := runPolicy(t, p, ins, 1)
		if ms <= 0 {
			t.Fatalf("%s: makespan %d", p.Name(), ms)
		}
	}
}

func TestChainsOnIndependent(t *testing.T) {
	// Independent jobs are a degenerate chains instance.
	ins := uniformInstance(t, 9, 3, 8)
	p := &Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}
	runPolicy(t, p, ins, 3)
}

func TestChainsRejectsTrees(t *testing.T) {
	g := dag.New(3)
	g.MustEdge(0, 1)
	g.MustEdge(0, 2)
	ins, err := model.New(2, 3, [][]float64{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, g)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.NewWorld(ins, rand.New(rand.NewSource(1)))
	p := &Chains{}
	if err := p.Run(w); err == nil {
		t.Fatal("Chains must reject tree precedence")
	}
}

// TestChainsLongJobBatching builds an instance with a guaranteed long job:
// one job needs many steps (tiny ℓ everywhere), others are quick.
func TestChainsLongJobBatching(t *testing.T) {
	m, n := 2, 6
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = 0.3
		}
	}
	// Job 2 is brutal: q = 0.97 on both machines (ℓ ≈ 0.044), so its LP2
	// length d_2 ≈ 23 while t*/log(n+m) stays small.
	q[0][2], q[1][2] = 0.97, 0.97
	g := dag.New(n)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	g.MustEdge(4, 5)
	ins, err := model.New(m, n, q, g)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var total ChainsStats
	p := &Chains{
		LP1Cache: rounding.NewCache(),
		LP2Cache: rounding.NewLP2Cache(),
		OnStats: func(s ChainsStats) {
			mu.Lock()
			total.LongJobs += s.LongJobs
			total.Batches += s.Batches
			mu.Unlock()
		},
	}
	for seed := int64(0); seed < 4; seed++ {
		runPolicy(t, p, ins, seed)
	}
	if total.LongJobs == 0 || total.Batches == 0 {
		t.Fatalf("long-job path not exercised: %+v (make job 2 harder)", total)
	}
}

func forestInstance(t testing.TB, seed int64, m, n int, out bool) *model.Instance {
	t.Helper()
	ins, err := workload.Forest(rand.New(rand.NewSource(seed)), m, n, 3, out, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestForestCompletes(t *testing.T) {
	for _, out := range []bool{true, false} {
		ins := forestInstance(t, 11, 3, 14, out)
		p := &Forest{Engine: &Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}}
		ms := runPolicy(t, p, ins, 2)
		if ms <= 0 {
			t.Fatalf("makespan %d", ms)
		}
	}
}

func TestForestOnChainsAndIndependent(t *testing.T) {
	p := &Forest{Engine: &Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}}
	runPolicy(t, p, chainsInstance(t, 12, 3, 10, 2), 1)
	runPolicy(t, p, uniformInstance(t, 13, 3, 8), 1)
}

// TestForestBlockRoundingsShared: SUU-T solves every block's LP2 cold, so
// each block's rounding is keyed by its chains alone. After a Monte Carlo
// run fills a shared LP2Cache, a RoundLP2Ws lookup of each decomposition
// block on a fresh workspace must hit — its solver runs no solve — and
// return the rounding a standalone RoundLP2 of the block computes.
func TestForestBlockRoundingsShared(t *testing.T) {
	for _, fam := range []string{"forest", "in-forest"} {
		for seed := int64(1); seed <= 4; seed++ {
			ins, err := workload.Generate(workload.Spec{Family: fam, M: 8, N: 40, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cache := rounding.NewLP2Cache()
			p := &Forest{Engine: &Chains{LP1Cache: rounding.NewCache(), LP2Cache: cache}}
			if _, err := sim.MonteCarlo(ins, p, 4, seed, 1); err != nil {
				t.Fatal(err)
			}
			blocks, err := ins.Prec.DecomposeForest()
			if err != nil {
				t.Fatal(err)
			}
			for bi, block := range blocks {
				chains := []dag.Chain(block)
				ws := rounding.NewWorkspace()
				r, err := cache.RoundLP2Ws(ws, ins, chains)
				if err != nil {
					t.Fatal(err)
				}
				if s := ws.Solver(); s.ColdSolves+s.WarmSolves != 0 {
					t.Fatalf("%s seed %d block %d of %d: standalone lookup missed", fam, seed, bi, len(blocks))
				}
				ref, err := rounding.RoundLP2(ins, chains)
				if err != nil {
					t.Fatal(err)
				}
				if r.TFrac != ref.TFrac || !reflect.DeepEqual(r.Assignment, ref.Assignment) {
					t.Fatalf("%s seed %d block %d: cached t* %v, standalone %v (or assignments differ)",
						fam, seed, bi, r.TFrac, ref.TFrac)
				}
			}
		}
	}
}

func TestLayeredMapReduce(t *testing.T) {
	ins, err := workload.MapReduce(rand.New(rand.NewSource(14)), 4, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := &Layered{Inner: &SEM{Cache: rounding.NewCache()}}
	ms := runPolicy(t, p, ins, 3)
	if ms < 2 {
		t.Fatalf("two phases need ≥ 2 steps, got %d", ms)
	}
	if p.Name() == "" {
		t.Fatal("name empty")
	}
}

func TestLayeredIndependentFallback(t *testing.T) {
	ins := uniformInstance(t, 15, 3, 6)
	runPolicy(t, &Layered{}, ins, 1)
}

// TestSEMBeatsSequentialAtScale is the Table-1 sanity check in miniature:
// on a larger independent instance SEM's mean makespan must beat the
// trivial sequential baseline by a wide margin.
func TestSEMBeatsSequentialAtScale(t *testing.T) {
	ins := uniformInstance(t, 16, 16, 48)
	sem := &SEM{Cache: rounding.NewCache()}
	res, err := sim.MonteCarlo(ins, sem, 20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0.0
	for s := int64(0); s < 20; s++ {
		w := sim.NewWorld(ins, rand.New(rand.NewSource(100+s)))
		for _, j := range w.Remaining() {
			if _, err := w.SoloAll(j); err != nil {
				t.Fatal(err)
			}
		}
		ms, _ := w.Makespan()
		seq += float64(ms) / 20
	}
	if res.Summary.Mean >= seq {
		t.Fatalf("SEM mean %.1f should beat sequential %.1f", res.Summary.Mean, seq)
	}
}

// TestChainsCoinMode runs SUU-C under the per-step Bernoulli simulator:
// the policies must be oblivious to which simulator drives them
// (Theorem 10's interface contract).
func TestChainsCoinMode(t *testing.T) {
	ins := chainsInstance(t, 17, 2, 6, 2)
	p := &Chains{LP1Cache: rounding.NewCache(), LP2Cache: rounding.NewLP2Cache()}
	w := sim.NewCoinWorld(ins, rand.New(rand.NewSource(4)))
	if err := p.Run(w); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Makespan(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]sim.Policy{
		"suu-i-obl": &OBL{},
		"suu-i-sem": &SEM{},
		"suu-c":     &Chains{},
		"suu-t":     &Forest{},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
	c := &Chains{LongJobs: &OBL{}, NoDelay: true, Quantize: true}
	if c.Name() != "suu-c+suu-i-obl-nodelay-quantized" {
		t.Errorf("chains variant name %q", c.Name())
	}
	f := &Forest{Engine: c}
	if f.Name() == "suu-t" {
		t.Error("forest with engine should include engine name")
	}
}

// TestSEMRatioTracksLowerBound: the measured makespan over the LP lower
// bound must stay modest (single digits) on mid-size instances — the
// quantitative heart of the reproduction.
func TestSEMRatioTracksLowerBound(t *testing.T) {
	ins := uniformInstance(t, 18, 8, 32)
	lb, err := rounding.RoundLP1(ins, seqInts(32), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 1: E[T_OPT] ≥ t*/2.
	lower := math.Max(lb.TFrac/2, 1)
	sem := &SEM{Cache: rounding.NewCache()}
	res, err := sim.MonteCarlo(ins, sem, 30, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Summary.Mean / lower
	if ratio > 40 {
		t.Fatalf("SEM ratio %.1f implausibly large (mean %.1f, lower %.1f)",
			ratio, res.Summary.Mean, lower)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
