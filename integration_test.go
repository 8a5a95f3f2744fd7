package suu_test

import (
	"fmt"
	"math/rand"
	"testing"

	suu "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/rounding"
	"repro/internal/sim"
	"repro/internal/workload"
)

// integrationMatrix pairs every algorithm with every instance family it
// supports. Each cell runs under both the threshold (SUU*) and coin-flip
// (SUU) simulators and checks the execution invariants.
func integrationMatrix() []struct {
	alg    string
	family string
	spec   workload.Spec
} {
	var out []struct {
		alg    string
		family string
		spec   workload.Spec
	}
	add := func(alg string, spec workload.Spec) {
		out = append(out, struct {
			alg    string
			family string
			spec   workload.Spec
		}{alg, spec.Family, spec})
	}
	indepFamilies := []workload.Spec{
		{Family: "uniform", M: 3, N: 9},
		{Family: "skill", M: 4, N: 8},
		{Family: "specialist", M: 4, N: 8, Groups: 2},
		{Family: "volunteer", M: 3, N: 7},
	}
	chainFamilies := []workload.Spec{
		{Family: "chains", M: 3, N: 9, Z: 3},
		{Family: "chains-skewed", M: 3, N: 10},
		{Family: "chains-hard", M: 4, N: 12, Z: 3},
	}
	forestFamilies := []workload.Spec{
		{Family: "forest", M: 3, N: 10},
		{Family: "in-forest", M: 3, N: 10},
	}
	anyDAG := []workload.Spec{{Family: "mapreduce", M: 3, N: 8, NMap: 5}}
	anyDAG = append(anyDAG, indepFamilies...)
	anyDAG = append(anyDAG, chainFamilies...)
	anyDAG = append(anyDAG, forestFamilies...)

	for _, s := range indepFamilies {
		add("sem", s)
		add("obl", s)
		add("greedy", s)
		add("chains", s) // degenerate chains
		add("forest", s) // degenerate forest
	}
	for _, s := range chainFamilies {
		add("chains", s)
		add("chains-lr", s)
		add("chains-quantized", s)
		add("forest", s)
	}
	for _, s := range forestFamilies {
		add("forest", s)
		add("forest-lr", s)
	}
	for _, s := range anyDAG {
		add("sequential", s)
		add("split", s)
	}
	add("layered", workload.Spec{Family: "mapreduce", M: 3, N: 8, NMap: 5})
	return out
}

func buildPolicy(alg string) sim.Policy {
	lp1, lp2 := rounding.NewCache(), rounding.NewLP2Cache()
	switch alg {
	case "sem":
		return &core.SEM{Cache: lp1}
	case "obl":
		return &core.OBL{Cache: lp1}
	case "greedy":
		return baseline.Greedy{}
	case "chains":
		return &core.Chains{LP1Cache: lp1, LP2Cache: lp2}
	case "chains-lr":
		return &core.Chains{LP1Cache: lp1, LP2Cache: lp2, LongJobs: &core.OBL{Cache: lp1}}
	case "chains-quantized":
		return &core.Chains{LP1Cache: lp1, LP2Cache: lp2, Quantize: true}
	case "forest":
		return &core.Forest{Engine: &core.Chains{LP1Cache: lp1, LP2Cache: lp2}}
	case "forest-lr":
		return &core.Forest{Engine: &core.Chains{LP1Cache: lp1, LP2Cache: lp2, LongJobs: &core.OBL{Cache: lp1}}}
	case "layered":
		return &core.Layered{Inner: &core.SEM{Cache: lp1}}
	case "sequential":
		return baseline.Sequential{}
	case "split":
		return baseline.EligibleSplit{}
	}
	panic("unknown alg " + alg)
}

// TestIntegrationMatrix runs every (algorithm, family) pair end to end in
// both simulators: the world enforces eligibility and unit granularity, so
// a pass certifies the schedule was legal and complete.
func TestIntegrationMatrix(t *testing.T) {
	for _, c := range integrationMatrix() {
		c := c
		t.Run(fmt.Sprintf("%s/%s", c.alg, c.family), func(t *testing.T) {
			t.Parallel()
			spec := c.spec
			spec.Seed = 17
			ins, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			p := buildPolicy(c.alg)
			criticalPath := int64(1)
			if ins.Prec != nil {
				layers, err := ins.Prec.Layers()
				if err != nil {
					t.Fatal(err)
				}
				criticalPath = int64(len(layers))
			}
			for seed := int64(0); seed < 3; seed++ {
				// Threshold (SUU*) execution.
				w := sim.NewWorld(ins, rand.New(rand.NewSource(seed)))
				if err := p.Run(w); err != nil {
					t.Fatalf("threshold seed %d: %v", seed, err)
				}
				ms, err := w.Makespan()
				if err != nil {
					t.Fatal(err)
				}
				if ms < criticalPath {
					t.Fatalf("makespan %d below critical path %d", ms, criticalPath)
				}
				// Determinism: same seed, same result.
				w2 := sim.NewWorld(ins, rand.New(rand.NewSource(seed)))
				if err := p.Run(w2); err != nil {
					t.Fatal(err)
				}
				ms2, _ := w2.Makespan()
				if ms2 != ms {
					t.Fatalf("nondeterministic: %d vs %d for seed %d", ms, ms2, seed)
				}
				// Coin (SUU) execution: same policy code, Bernoulli world.
				wc := sim.NewCoinWorld(ins, rand.New(rand.NewSource(seed)))
				if err := p.Run(wc); err != nil {
					t.Fatalf("coin seed %d: %v", seed, err)
				}
				if _, err := wc.Makespan(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMonteCarloAgreesAcrossWorkers re-runs a nontrivial policy with
// different worker counts and demands identical samples (scheduling
// must not leak into results).
func TestMonteCarloAgreesAcrossWorkers(t *testing.T) {
	ins, err := suu.Generate(suu.Spec{Family: "chains", M: 4, N: 12, Z: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := suu.NewChains()
	a, err := sim.MonteCarlo(ins, p, 24, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.MonteCarlo(ins, p, 24, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Makespans {
		if a.Makespans[i] != b.Makespans[i] {
			t.Fatalf("trial %d: %g vs %g", i, a.Makespans[i], b.Makespans[i])
		}
	}
}

// TestSEMDeterministicWarmStarts: SEM's round re-solves must keep trial i
// byte-identical across worker counts, across cache reuse (the same
// policy value run twice), and against a fresh policy. Each round solves
// LP1 cold and its cache entry is keyed by the survivor set alone, so no
// worker, scheduling or cache state may leak into results. (The name
// predates the cold solves; the round re-solves once warm-started.)
func TestSEMDeterministicWarmStarts(t *testing.T) {
	ins, err := suu.Generate(suu.Spec{Family: "uniform", M: 8, N: 24, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	const trials, seed = 32, 7
	shared := suu.NewSEM()
	ref, err := sim.MonteCarlo(ins, shared, trials, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() (*sim.MCResult, error){
		"shared policy, 8 workers": func() (*sim.MCResult, error) {
			return sim.MonteCarlo(ins, shared, trials, seed, 8)
		},
		"fresh policy, 8 workers": func() (*sim.MCResult, error) {
			return sim.MonteCarlo(ins, suu.NewSEM(), trials, seed, 8)
		},
	}
	for name, fn := range runs {
		res, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ref.Makespans {
			if res.Makespans[i] != ref.Makespans[i] {
				t.Fatalf("%s: trial %d makespan %v, want %v", name, i, res.Makespans[i], ref.Makespans[i])
			}
		}
	}
	// Standalone replay: Run(ins, fresh policy, seed+i) recomputes trial
	// i's every round from an empty cache and must land on the same
	// makespan.
	for i := 0; i < 5; i++ {
		ms, err := suu.Run(ins, suu.NewSEM(), seed+int64(i))
		if err != nil {
			t.Fatalf("replay trial %d: %v", i, err)
		}
		if float64(ms) != ref.Makespans[i] {
			t.Fatalf("replay trial %d: makespan %d, estimator saw %v", i, ms, ref.Makespans[i])
		}
	}
}

// TestRatioSanityAcrossFamilies bounds measured ratios loosely on every
// family: the algorithms carry constants (≈6 from Lemma 2, delays up to H)
// but ratios beyond ~60x the LP bound would indicate a real regression.
func TestRatioSanityAcrossFamilies(t *testing.T) {
	cases := []struct {
		alg  string
		spec workload.Spec
		cap  float64
	}{
		{"sem", workload.Spec{Family: "uniform", M: 8, N: 24}, 40},
		{"sem", workload.Spec{Family: "specialist", M: 8, N: 24, Groups: 4}, 40},
		{"chains", workload.Spec{Family: "chains", M: 6, N: 24, Z: 4}, 60},
		{"forest", workload.Spec{Family: "forest", M: 6, N: 24}, 60},
	}
	for _, c := range cases {
		c := c
		t.Run(c.alg+"/"+c.spec.Family, func(t *testing.T) {
			t.Parallel()
			spec := c.spec
			spec.Seed = 9
			ins, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.MonteCarlo(ins, buildPolicy(c.alg), 20, 11, 0)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := suu.LowerBound(ins)
			if err != nil {
				t.Fatal(err)
			}
			if ratio := res.Summary.Mean / lb; ratio > c.cap {
				t.Fatalf("ratio %.1f exceeds sanity cap %.0f (mean %.1f, lb %.1f)",
					ratio, c.cap, res.Summary.Mean, lb)
			}
		})
	}
}
