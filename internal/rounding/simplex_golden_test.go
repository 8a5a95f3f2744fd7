package rounding

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/workload"
)

// simplexTrace is one solve's exact outcome: pivot count, final basis,
// objective bits and the full primal vector.
type simplexTrace struct {
	Name    string    `json:"name"`
	Iters   int       `json:"iters"`
	Basis   []int     `json:"basis"`
	ObjBits uint64    `json:"obj_bits"`
	X       []float64 `json:"x"`
}

const simplexGoldenPath = "testdata/simplex_trace.json"

// simplexCorpus solves the golden corpus and records every solve:
//   - cold LP1 at m=16, n=64, L=1/2 on five independent-job families;
//   - cold LP2 at m=16, n=64 (the chain-plan shape) on three chain families,
//     each the final solve of row generation (lp2Solution);
//   - one SEM re-solve sequence (full set, then survivor subsets at
//     doubling targets), each solved cold on one workspace as SEM does;
//   - one SUU-T forest block sequence, each block's (LP2) row-generated
//     from a cold core solve on one workspace, as SUU-T does.
func simplexCorpus(t *testing.T) []simplexTrace {
	t.Helper()
	var out []simplexTrace
	record := func(name string, sol *lp.Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		out = append(out, simplexTrace{
			Name:    name,
			Iters:   sol.Iters,
			Basis:   append([]int(nil), sol.Basis...),
			ObjBits: math.Float64bits(sol.Obj),
			X:       append([]float64(nil), sol.X...),
		})
	}
	gen := func(family string, m, n int, seed int64) *model.Instance {
		t.Helper()
		ins, err := workload.Generate(workload.Spec{Family: family, M: m, N: n, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		return ins
	}
	allJobs := func(n int) []int {
		jobs := make([]int, n)
		for j := range jobs {
			jobs[j] = j
		}
		return jobs
	}

	for _, fam := range []string{"uniform", "skill", "specialist", "specialist-degen", "volunteer"} {
		ins := gen(fam, 16, 64, 11)
		ws := NewWorkspace()
		p, err := ws.buildLP1(ins, allJobs(ins.N), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ws.solver.Solve(p)
		record("lp1/"+fam, sol, err)
	}

	for _, fam := range []string{"chains", "chains-skewed", "chains-hard"} {
		ins := gen(fam, 16, 64, 11)
		chains, err := ins.Chains()
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := NewWorkspace().lp2Solution(ins, chains)
		record("lp2/"+fam, sol, err)
	}

	{
		ins := gen("uniform", 16, 64, 12)
		ws := NewWorkspace()
		l := 0.5
		for link, jobs := range chainSets(ins, 4) {
			p, err := ws.buildLP1(ins, jobs, l)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := ws.solver.Solve(p)
			record(fmt.Sprintf("sem/link%d", link), sol, err)
			l *= 2
		}
	}

	{
		ins, blocks := forestBlocks(t, 4)
		ws := NewWorkspace()
		for bi, block := range blocks {
			sol, jobs, err := ws.lp2Solution(ins, block)
			if err == nil && len(jobs) == 0 {
				continue
			}
			record(fmt.Sprintf("suut-blocks/block%d", bi), sol, err)
		}
	}
	return out
}

// TestSimplexTraceGolden pins the sparse simplex's exact behaviour on the
// paper's relaxations: pivot counts, bases, objective bits and primal
// vectors (compared with ==) must match the recorded corpus. Kernel
// rewrites that keep every floating-point operation in order leave this
// file untouched; a change that alters pivot paths on purpose regenerates
// it by deleting testdata/simplex_trace.json and running this test once.
func TestSimplexTraceGolden(t *testing.T) {
	got := simplexCorpus(t)
	raw, err := os.ReadFile(simplexGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		// One solve per line keeps the file diffable by solve.
		enc := []byte("[\n")
		for i, tr := range got {
			line, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				enc = append(enc, ",\n"...)
			}
			enc = append(enc, line...)
		}
		enc = append(enc, "\n]"...)
		if err := os.MkdirAll(filepath.Dir(simplexGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simplexGoldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d solves); re-run to check against it", simplexGoldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []simplexTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d solves, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("solve %d: name %q, golden %q", i, g.Name, w.Name)
		}
		if g.Iters != w.Iters {
			t.Errorf("%s: %d pivots, golden %d", w.Name, g.Iters, w.Iters)
		}
		if g.ObjBits != w.ObjBits {
			t.Errorf("%s: obj %v (bits %#x), golden %v (bits %#x)", w.Name,
				math.Float64frombits(g.ObjBits), g.ObjBits, math.Float64frombits(w.ObjBits), w.ObjBits)
		}
		if len(g.Basis) != len(w.Basis) || len(g.X) != len(w.X) {
			t.Errorf("%s: shape basis %d/x %d, golden %d/%d", w.Name, len(g.Basis), len(g.X), len(w.Basis), len(w.X))
			continue
		}
		for r := range w.Basis {
			if g.Basis[r] != w.Basis[r] {
				t.Errorf("%s: basis row %d = %d, golden %d", w.Name, r, g.Basis[r], w.Basis[r])
				break
			}
		}
		for j := range w.X {
			if g.X[j] != w.X[j] {
				t.Errorf("%s: x[%d] = %v, golden %v", w.Name, j, g.X[j], w.X[j])
				break
			}
		}
	}
}
