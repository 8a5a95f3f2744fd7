package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rounding"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "t1-large",
		What:  "large independent cells (n=64/m=16, n=128/m=32): SEM on pooled workspaces + the shared LP1 cache; ratio to LP lower bound",
		Heavy: true,
		Run:   func(cfg Config) (*Table, error) { return tableLarge(cfg, false) },
	})
	register(Experiment{
		ID:    "t1-large-cold",
		What:  "baseline arm of t1-large: identical cells and trials on the cold LP stack — fresh solve every time, no workspaces, no cross-trial memoization",
		Heavy: true,
		Run:   func(cfg Config) (*Table, error) { return tableLarge(cfg, true) },
	})
	register(Experiment{
		ID:    "t1-xlarge",
		What:  "n=256/m=64 cells (uniform + degenerate specialist): the frontier the sparse revised simplex opened — the full-set LP1 has ~16k variables, beyond the dense tableau",
		Heavy: true,
		Run:   tableXLarge,
	})
}

// tableXLarge runs SEM over the n=256/m=64 cells on the full sparse LP
// stack (workspaces, memoization). There is no cold-dense
// baseline arm at this scale: the dense tableau for the full-set LP1 is
// 320 rows × ~17k columns and a cold solve takes minutes, which is exactly
// the wall the sparse engine removes. The degenerate specialist cell's
// exactly-tied rates produce the worst-case degenerate bases — the stress
// test for candidate pricing and LU refactorization.
func tableXLarge(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "t1-xlarge",
		Title:  "xlarge independent cells (n=256/m=64), sparse revised simplex LP engine: E[T]/LB, lower is better",
		Header: []string{"family", "n", "m", "LB", "sem(ours)"},
	}
	trials := cfg.trials(10)
	cells := workload.Table1XLargeCells()
	cellIdx := make([]int, len(cells))
	for i := range cellIdx {
		cellIdx[i] = i
	}
	for _, ci := range cfg.sizes(cellIdx) {
		spec := cells[ci]
		spec.Seed = cfg.Seed + int64(spec.N) + int64(ci)
		ins, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBoundIndep(ins)
		if err != nil {
			return nil, err
		}
		sem := &core.SEM{Cache: rounding.NewCache()}
		res, err := sim.MonteCarlo(ins, sem, trials, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("sem (%s) on n=%d: %w", spec.Family, spec.N, err)
		}
		t.Rows = append(t.Rows, []string{
			spec.Family, fmt.Sprint(spec.N), fmt.Sprint(spec.M), f1(lb),
			ratioCell(res.Summary.Mean, res.Summary.CI95(), lb),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d trials per cell; sparse revised simplex LP engine (LU basis, candidate pricing)", trials))
	return t, nil
}

// tableLarge runs SEM over the large Table-1 cells. The cold arm strips
// the structure-aware layers off the LP engine back to what a naive
// pipeline does: every LP1 is solved cold on a fresh workspace, every
// trial re-solves every round from scratch (Cache nil). Comparing the
// arms' measured records (suubench -json) prices those layers — workspace
// reuse and memoized roundings — on the cells where the LP dominates; both
// arms run the same (sparse revised simplex) solver and reach the same
// makespans.
func tableLarge(cfg Config, cold bool) (*Table, error) {
	engine := "workspace+cache"
	if cold {
		engine = "cold"
	}
	t := &Table{
		ID:     "t1-large",
		Title:  fmt.Sprintf("large independent cells, %s LP engine: E[T]/LB, lower is better", engine),
		Header: []string{"family", "n", "m", "LB", "sem(ours)"},
	}
	if cold {
		t.ID = "t1-large-cold"
	}
	trials := cfg.trials(20)
	cells := workload.Table1LargeCells()
	cellIdx := make([]int, len(cells))
	for i := range cellIdx {
		cellIdx[i] = i
	}
	for _, ci := range cfg.sizes(cellIdx) {
		spec := cells[ci]
		spec.Seed = cfg.Seed + int64(spec.N)
		ins, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBoundIndep(ins)
		if err != nil {
			return nil, err
		}
		sem := &core.SEM{ColdLP: cold}
		if !cold {
			sem.Cache = rounding.NewCache()
		}
		res, err := sim.MonteCarlo(ins, sem, trials, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("sem (%s) on n=%d: %w", engine, spec.N, err)
		}
		t.Rows = append(t.Rows, []string{
			spec.Family, fmt.Sprint(spec.N), fmt.Sprint(spec.M), f1(lb),
			ratioCell(res.Summary.Mean, res.Summary.CI95(), lb),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("LP engine: %s; %d trials per cell", engine, trials),
		"both arms run identical trials — compare the records' ns/allocs to isolate the LP engine")
	return t, nil
}
