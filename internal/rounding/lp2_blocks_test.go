package rounding

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/workload"
)

// forestBlocks generates a forest instance and its heavy-path
// decomposition — the exact block sequence SUU-T runs (LP2) over.
func forestBlocks(t *testing.T, seed int64) (*model.Instance, [][]dag.Chain) {
	t.Helper()
	ins, err := workload.Generate(workload.Spec{Family: "forest", M: 8, N: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ins.Prec.DecomposeForest()
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]dag.Chain
	for _, b := range raw {
		blocks = append(blocks, []dag.Chain(b))
	}
	return ins, blocks
}

// TestLP2BlockSolvesCold pins, by the solver's counters and without
// timing, that SUU-T's block sequence through RoundLP2Ws on one workspace
// solves every block's core LP cold: the only warm solves are row
// generation's re-solves after adding caps, and every cold solve is a
// block's core solve, a re-solve's fallback, or a full-LP hand-over.
func TestLP2BlockSolvesCold(t *testing.T) {
	capRounds := 0
	for seed := int64(1); seed <= 6; seed++ {
		ins, blocks := forestBlocks(t, seed)
		ws := NewWorkspace()
		solved := 0
		for bi, block := range blocks {
			r, err := (*LP2Cache)(nil).RoundLP2Ws(ws, ins, block)
			if err != nil {
				t.Fatalf("seed %d block %d: %v", seed, bi, err)
			}
			if r.TFrac > 0 {
				solved++
			}
		}
		s := ws.solver
		if s.WarmSolves+s.WarmFallbacks != ws.LP2CapRounds {
			t.Errorf("seed %d: %d warm solves + %d fallbacks, want the %d cap re-solves",
				seed, s.WarmSolves, s.WarmFallbacks, ws.LP2CapRounds)
		}
		if want := solved + s.WarmFallbacks + ws.LP2FullSolves; s.ColdSolves != want {
			t.Errorf("seed %d: %d cold solves, want %d blocks + %d fallbacks + %d full solves",
				seed, s.ColdSolves, solved, s.WarmFallbacks, ws.LP2FullSolves)
		}
		capRounds += ws.LP2CapRounds
	}
	if capRounds == 0 {
		t.Fatal("no block generated a cap, so no re-solve was checked")
	}
}

// TestLP2CacheDeterministic: replaying a block sequence through
// RoundLP2Ws — uncached, populating the cache, then from the cache — must
// give byte-identical assignments, the property SUU-T's Monte Carlo
// determinism across worker counts rests on.
func TestLP2CacheDeterministic(t *testing.T) {
	ins, blocks := forestBlocks(t, 4)
	if len(blocks) < 2 {
		t.Skip("decomposition produced a single block")
	}
	run := func(c *LP2Cache) []*LP2Result {
		ws := NewWorkspace()
		var out []*LP2Result
		for _, block := range blocks {
			r, err := c.RoundLP2Ws(ws, ins, block)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	base := run(nil)
	cache := NewLP2Cache()
	first := run(cache)  // populates the cache
	second := run(cache) // replays from the cache
	for bi := range blocks {
		for _, other := range [][]*LP2Result{first, second} {
			a, b := base[bi].Assignment, other[bi].Assignment
			for i := 0; i < a.M; i++ {
				for j := 0; j < a.N; j++ {
					if a.X[i][j] != b.X[i][j] {
						t.Fatalf("block %d: assignment diverges at machine %d job %d: %d vs %d",
							bi, i, j, a.X[i][j], b.X[i][j])
					}
				}
			}
		}
	}
}
