package rounding

import (
	"testing"

	"repro/internal/workload"
)

// TestFtranPathByRelaxation pins which FTRAN path the sparse simplex takes
// on the paper's two relaxations, without depending on timing. On the full
// (LP2) relaxation at the chain-plan shape (chains, m=16, n=64; 331 of 355
// FTRANs when this test was written), built by the reference buildLP2Full
// — the relaxation row generation falls back to — the near-identity basis
// must keep at least 85% of FTRANs on the reach-ordered path; on (LP1),
// whose entering columns are denser, at most 20% may take it (the running
// density starts at zero, so a solve's first few FTRANs always do). A change that silently falls back
// to O(rows) work per FTRAN on LP2, or sends LP1 down the heap-driven
// path, fails here even when it stays bit-identical.
func TestFtranPathByRelaxation(t *testing.T) {
	{
		ins, err := workload.Generate(workload.Spec{Family: "chains", M: 16, N: 64, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		chains, err := ins.Chains()
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		p, _, err := ws.buildLP2Full(ins, chains)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ws.solver.Solve(p); err != nil {
			t.Fatal(err)
		}
		if s := ws.solver; s.HyperFtrans*100 < s.Ftrans*85 {
			t.Errorf("lp2/chains: %d of %d FTRANs hypersparse, want at least 85%%", s.HyperFtrans, s.Ftrans)
		}
	}
	for _, fam := range []string{"uniform", "skill", "specialist", "volunteer"} {
		for _, sz := range [][2]int{{16, 64}, {32, 128}} {
			ins, err := workload.Generate(workload.Spec{Family: fam, M: sz[0], N: sz[1], Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			jobs := make([]int, ins.N)
			for j := range jobs {
				jobs[j] = j
			}
			ws := NewWorkspace()
			p, err := ws.buildLP1(ins, jobs, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws.solver.Solve(p); err != nil {
				t.Fatal(err)
			}
			if s := ws.solver; s.HyperFtrans*100 > s.Ftrans*20 {
				t.Errorf("lp1/%s n=%d: %d of %d FTRANs hypersparse, want at most 20%%", fam, sz[1], s.HyperFtrans, s.Ftrans)
			}
		}
	}
}
