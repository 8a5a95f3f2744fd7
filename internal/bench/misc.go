package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:   "f-exact",
		What: "true approximation ratios vs exact DP optimum on small instances (Malewicz-style ground truth)",
		Run:  figExact,
	})
	register(Experiment{
		ID:   "a-equiv",
		What: "Theorem 10 validation: SUU (per-step coin flips) vs SUU* (thresholds) makespan distributions agree",
		Run:  ablEquivalence,
	})
	register(Experiment{
		ID:   "f-stoch",
		What: "Appendix C: STC-I vs fastest-machine-sequential on R|pmtn,p~exp|E[Cmax]; ratio to LL lower bound",
		Run:  figStoch,
	})
	register(Experiment{
		ID:   "f-batch",
		What: "long-job batch component: SEM vs OBL on specialist batches of growing size — the log/loglog separation SUU-C inherits, with its crossover",
		Run:  figBatch,
	})
	register(Experiment{
		ID:   "a-solver",
		What: "substrate ablation: exact simplex vs (1+eps) multiplicative-weights solver for the LP1 covering program (value and wall time)",
		Run:  ablSolver,
	})
}

// ablSolver compares the two LP engines on LP1-shaped covering programs:
// the exact sparse simplex the pipeline uses, and the width-free MWU
// approximation. The MWU value is certified feasible at (1+eps) load, so
// values within that band mean either engine could drive the rounding.
func ablSolver(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "a-solver",
		Title:  "LP engines on LP1 covering programs (eps = 0.1)",
		Header: []string{"n", "m", "t* simplex", "t mwu", "mwu/t*", "simplex ms", "mwu ms"},
	}
	for _, n := range cfg.sizes([]int{32, 64, 128, 192}) {
		// m fixed so the sweep isolates growth in n: the simplex's LP has
		// n·m+1 columns and n+m rows, while MWU's cost grows with the
		// covering program's nonzeros.
		m := 16
		ins, err := workload.Generate(workload.Spec{Family: "skill", M: m, N: n, Seed: cfg.Seed + int64(n)})
		if err != nil {
			return nil, err
		}
		jobs := make([]int, n)
		cover := &lp.CoverInstance{M: m, N: n, Rates: make([][]float64, m), Demands: make([]float64, n)}
		for i := 0; i < m; i++ {
			cover.Rates[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				cover.Rates[i][j] = math.Min(ins.L[i][j], 0.5)
			}
		}
		for j := range jobs {
			jobs[j] = j
			cover.Demands[j] = 0.5
		}
		t0 := time.Now()
		_, tstar, err := rounding.SolveLP1(ins, jobs, 0.5)
		if err != nil {
			return nil, err
		}
		simplexMS := time.Since(t0)
		t1 := time.Now()
		_, tMWU, err := lp.SolveCoverMWU(cover, 0.1)
		if err != nil {
			return nil, err
		}
		mwuMS := time.Since(t1)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(m), f2(tstar), f2(tMWU), f2(tMWU / tstar),
			fmt.Sprintf("%.1f", float64(simplexMS.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(mwuMS.Microseconds())/1000),
		})
	}
	t.Notes = append(t.Notes,
		"the pipeline uses the exact simplex (constants matter in the rounding); MWU is the scale-out path — same covering program, certified (1+eps) feasibility")
	return t, nil
}

// figBatch isolates the long-job subroutine: a batch of k specialist jobs
// (one useful machine each) on m fixed machines, exactly what a SUU-C
// segment hands to its long-job runner. OBL repeats one schedule
// Θ(log k) times in expectation; SEM pays ~constant rounds of doubling
// length. The crossover sits near k ≈ m; past it SEM pulls away — this is
// the component that separates the chains bound from Lin–Rajaraman's.
func figBatch(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "f-batch",
		Title:  "long-job batches (m=6 specialists): E[T]/LB by batch size k",
		Header: []string{"k", "LB", "sem(ours)", "obl(lr)", "sem/obl"},
	}
	trials := cfg.trials(120)
	for _, k := range cfg.sizes([]int{4, 8, 16, 32, 64}) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
		const m = 6
		q := make([][]float64, m)
		for i := range q {
			q[i] = make([]float64, k)
			for j := range q[i] {
				q[i][j] = 0.995
			}
		}
		for j := 0; j < k; j++ {
			l := 0.06 + 0.06*rng.Float64()
			q[rng.Intn(m)][j] = math.Pow(2, -l)
		}
		ins, err := model.New(m, k, q, nil)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBoundIndep(ins)
		if err != nil {
			return nil, err
		}
		cache := rounding.NewCache()
		sem, err := sim.MonteCarlo(ins, &core.SEM{Cache: cache}, trials, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		obl, err := sim.MonteCarlo(ins, &core.OBL{Cache: cache}, trials, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), f1(lb),
			ratioCell(sem.Summary.Mean, sem.Summary.CI95(), lb),
			ratioCell(obl.Summary.Mean, obl.Summary.CI95(), lb),
			f2(sem.Summary.Mean / obl.Summary.Mean),
		})
	}
	t.Notes = append(t.Notes,
		"each row is one segment batch in isolation: k long jobs, each processable on one machine of 6",
		"expect sem/obl < 1 beyond k ≈ m and shrinking as k grows (log k vs loglog k)",
		fmt.Sprintf("%d trials per cell", trials))
	return t, nil
}

func figExact(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "f-exact",
		Title: "true ratios E[T_alg]/E[T_OPT] on small instances (DP-exact optimum)",
		Header: []string{"family", "n", "m", "E[T_OPT]",
			"sem", "obl", "greedy", "sequential"},
	}
	trials := cfg.trials(4000)
	cases := []struct {
		family string
		n, m   int
	}{
		{"uniform", 4, 2},
		{"uniform", 6, 2},
		{"uniform", 6, 3},
		{"specialist", 6, 2},
		{"skill", 6, 3},
	}
	k := int(float64(len(cases))*cfg.scale() + 0.5)
	if k < 1 {
		k = 1
	}
	for _, c := range cases[:k] {
		spec := workload.Spec{Family: c.family, M: c.m, N: c.n, Seed: cfg.Seed + int64(c.n*10+c.m), Groups: 2}
		ins, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		opt, err := exact.Optimal(ins)
		if err != nil {
			return nil, err
		}
		cache := rounding.NewCache()
		policies := []sim.Policy{
			&core.SEM{Cache: cache},
			&core.OBL{Cache: cache},
			baseline.Greedy{},
			baseline.Sequential{},
		}
		row := []string{c.family, fmt.Sprint(c.n), fmt.Sprint(c.m), f2(opt)}
		for pi, p := range policies {
			res, err := sim.MonteCarlo(ins, p, trials, cfg.Seed+int64(100*pi), cfg.Workers)
			if err != nil {
				return nil, err
			}
			row = append(row, ratioCell(res.Summary.Mean, res.Summary.CI95(), opt))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"E[T_OPT] is exact (subset DP over successor-closed states); ratios here are true approximation factors, not LP-bound upper estimates",
		fmt.Sprintf("%d trials per cell", trials))
	return t, nil
}

func ablEquivalence(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "a-equiv",
		Title: "SUU vs SUU* (Theorem 10): same policy, two simulators",
		Header: []string{"family", "n", "m", "policy",
			"E[T] threshold", "E[T] coin", "|z|"},
	}
	trials := cfg.trials(3000)
	cases := []workload.Spec{
		{Family: "uniform", M: 2, N: 5},
		{Family: "chains", M: 2, N: 6, Z: 2},
		{Family: "forest", M: 2, N: 6},
	}
	k := int(float64(len(cases))*cfg.scale() + 0.5)
	if k < 1 {
		k = 1
	}
	for _, spec := range cases[:k] {
		spec.Seed = cfg.Seed + int64(spec.N)
		ins, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		var p sim.Policy = baseline.Sequential{}
		a, err := sim.MonteCarlo(ins, p, trials, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		b, err := sim.MonteCarloCoin(ins, p, trials, cfg.Seed+999, cfg.Workers)
		if err != nil {
			return nil, err
		}
		z := math.Abs(a.Summary.Mean-b.Summary.Mean) /
			math.Sqrt(a.Summary.Sem*a.Summary.Sem+b.Summary.Sem*b.Summary.Sem)
		t.Rows = append(t.Rows, []string{
			spec.Family, fmt.Sprint(spec.N), fmt.Sprint(spec.M), p.Name(),
			fmt.Sprintf("%.3f ±%.3f", a.Summary.Mean, a.Summary.CI95()),
			fmt.Sprintf("%.3f ±%.3f", b.Summary.Mean, b.Summary.CI95()),
			f2(z),
		})
	}
	t.Notes = append(t.Notes,
		"|z| is the two-sample z-score of the mean difference; Theorem 10 predicts agreement (|z| small, no systematic drift)",
		fmt.Sprintf("%d trials per simulator", trials))
	return t, nil
}

func figStoch(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "f-stoch",
		Title:  "stochastic scheduling (Appendix C): E[Cmax]/LB (LB = max(LL(median/2)/2, solo))",
		Header: []string{"n", "m", "LB", "stc-i(ours)", "stc-r(restart)", "sequential-fastest"},
	}
	trials := cfg.trials(40)
	for _, n := range cfg.sizes([]int{8, 16, 32, 64}) {
		m := n / 4
		if m < 2 {
			m = 2
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		lambda := make([]float64, n)
		for j := range lambda {
			lambda[j] = 0.5 + 2*rng.Float64()
		}
		v := make([][]float64, m)
		for i := range v {
			v[i] = make([]float64, n)
			for j := range v[i] {
				v[i][j] = 0.1 + 2*rng.Float64()
			}
		}
		ins, err := stoch.NewInstance(lambda, v)
		if err != nil {
			return nil, err
		}
		lb, err := stoch.LowerBound(ins)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(n), fmt.Sprint(m), f1(lb)}
		for _, p := range []stoch.Policy{stoch.STC{}, stoch.STCRestart{}, stoch.SequentialFastest{}} {
			sum, err := stoch.MonteCarlo(ins, p, trials, cfg.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, ratioCell(sum.Mean, sum.CI95(), lb))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"first approximation algorithms for unrelated-machine stochastic scheduling with E[Cmax] objective (Theorem 13): expect stc-i to win and stay O(loglog n)",
		"stc-r is the R|restart| variant: jobs run contiguously on one machine (LST R||Cmax rounds instead of Lawler–Labetoulle)",
		fmt.Sprintf("%d trials per cell", trials))
	return t, nil
}
