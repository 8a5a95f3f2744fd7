package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// addColumnScan is the reference forward elimination addColumn replaced:
// it scans every factored step in ascending order and acts on those whose
// pivot row the column reaches. The reach-ordered addColumn must produce
// bit-identical factors.
func (lu *luFactors) addColumnScan(rows []int32, vals []float64, rowCnt []int32) (step, pivotRow int) {
	lu.epoch++
	pat := lu.pat[:0]
	for t, r := range rows {
		if lu.stamp[r] != lu.epoch {
			lu.stamp[r] = lu.epoch
			lu.work[r] = vals[t]
			pat = append(pat, r)
		} else {
			lu.work[r] += vals[t]
		}
	}
	for k := 0; k < lu.nsteps; k++ {
		pr := lu.pivRow[k]
		if lu.stamp[pr] != lu.epoch {
			continue
		}
		v := lu.work[pr]
		if v == 0 {
			continue
		}
		for t := lu.lPtr[k]; t < lu.lPtr[k+1]; t++ {
			r := lu.lRow[t]
			if lu.stamp[r] != lu.epoch {
				lu.stamp[r] = lu.epoch
				lu.work[r] = 0
				pat = append(pat, r)
			}
			lu.work[r] -= lu.lVal[t] * v
		}
	}
	lu.pat = pat
	return lu.claimPivot(rowCnt)
}

// btranRef is the reference BTRAN: full-length U and L passes with no
// skipped steps. btran must agree with it on every nonzero.
func (lu *luFactors) btranRef(c, out []float64) {
	p := make([]float64, lu.m)
	copy(p, c)
	for e := lu.nEtas - 1; e >= 0; e-- {
		r := lu.etaPivPos[e]
		s := p[r]
		for t := lu.etaPtr[e]; t < lu.etaPtr[e+1]; t++ {
			s -= lu.etaVal[t] * p[lu.etaPos[t]]
		}
		p[r] = s / lu.etaPivVal[e]
	}
	st := make([]float64, lu.m)
	for k := 0; k < lu.nsteps; k++ {
		st[k] = p[lu.stepPos[k]]
	}
	for k := 0; k < lu.nsteps; k++ {
		s := st[k]
		for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
			s -= lu.uVal[t] * st[lu.uStep[t]]
		}
		st[k] = s / lu.uDiag[k]
	}
	for k := lu.nsteps - 1; k >= 0; k-- {
		s := st[k]
		for t := lu.lPtr[k]; t < lu.lPtr[k+1]; t++ {
			s -= lu.lVal[t] * st[lu.stepOfRow[lu.lRow[t]]]
		}
		st[k] = s
	}
	for k := 0; k < lu.nsteps; k++ {
		out[lu.pivRow[k]] = st[k]
	}
}

// randomSparseCol draws a column with 1–maxNz entries in random rows. A
// row may repeat on purpose: addColumn and ftran sum repeated entries.
func randomSparseCol(rng *rand.Rand, m, maxNz int) ([]int32, []float64) {
	nz := 1 + rng.Intn(maxNz)
	rows := make([]int32, nz)
	vals := make([]float64, nz)
	for t := range rows {
		rows[t] = int32(rng.Intn(m))
		vals[t] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			vals[t] = float64(1 + rng.Intn(3)) // exact values, exact cancellations
		}
	}
	return rows, vals
}

// factorRandomBasis builds a full factorization of a random sparse basis
// in both lu (reach-ordered addColumn) and ref (full scan), failing the
// test the moment the two disagree on a step. Near-identity bases (most
// columns unit or two-entry) are what LP2's cap rows produce.
func factorRandomBasis(t *testing.T, rng *rand.Rand, m int, lu, ref *luFactors) {
	t.Helper()
	rowCnt := make([]int32, m)
	for i := range rowCnt {
		rowCnt[i] = int32(1 + rng.Intn(5))
	}
	lu.begin(m)
	ref.begin(m)
	add := func(rows []int32, vals []float64) {
		t.Helper()
		s1, r1 := lu.addColumn(rows, vals, rowCnt)
		s2, r2 := ref.addColumnScan(rows, vals, rowCnt)
		if s1 != s2 || r1 != r2 {
			t.Fatalf("m=%d: addColumn -> (%d,%d), full scan -> (%d,%d)", m, s1, r1, s2, r2)
		}
		if s1 >= 0 {
			lu.setStepPos(s1, r1)
			ref.setStepPos(s2, r2)
		}
	}
	maxNz := 2 + rng.Intn(4)
	for c := 0; c < m; c++ {
		rows, vals := randomSparseCol(rng, m, maxNz)
		add(rows, vals)
	}
	for r := 0; r < m && !lu.full(); r++ {
		if lu.stepOfRow[r] < 0 {
			add([]int32{int32(r)}, []float64{1 + rng.Float64()})
		}
	}
	if !lu.full() {
		t.Fatalf("m=%d: random basis did not fill", m)
	}
}

// TestLUReachMatchesScan: on random sparse bases, the reach-ordered
// addColumn builds exactly the factors the full step scan builds.
func TestLUReachMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		m := 3 + rng.Intn(200)
		var lu, ref luFactors
		factorRandomBasis(t, rng, m, &lu, &ref)
		same := slices.Equal(lu.pivRow, ref.pivRow) && slices.Equal(lu.stepPos, ref.stepPos) &&
			slices.Equal(lu.stepOfRow, ref.stepOfRow) &&
			slices.Equal(lu.lPtr, ref.lPtr) && slices.Equal(lu.lRow, ref.lRow) && bitsEqual(lu.lVal, ref.lVal) &&
			slices.Equal(lu.uPtr, ref.uPtr) && slices.Equal(lu.uStep, ref.uStep) && bitsEqual(lu.uVal, ref.uVal) &&
			bitsEqual(lu.uDiag, ref.uDiag)
		if !same {
			t.Fatalf("trial %d (m=%d): factors differ", trial, m)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestFtranPathsAgree: on random sparse bases with a populated eta file,
// the hypersparse and dense FTRAN paths return the same vector (every
// nonzero bit-identical; zeros may differ only in sign) and a pattern that
// is ascending, duplicate-free and covers every nonzero. A persistent
// output vector is also driven through alternating paths, the way the
// solver reuses its entering-column buffer, and must keep matching a
// fresh dense solve. BTRAN is checked against the full-length reference.
func TestFtranPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(300)
		var lu, ref luFactors
		factorRandomBasis(t, rng, m, &lu, &ref)
		lu.clearResult(m)
		persistent := make([]float64, m)
		w := make([]float64, m)
		nEtas := rng.Intn(luMaxEtas)
		for probe := 0; probe < 3*luMaxEtas; probe++ {
			rows, vals := randomSparseCol(rng, m, 1+rng.Intn(6))

			lu.ftranPath = ftranForceDense
			dense := make([]float64, m)
			lu.clearResult(m)
			lu.ftran(rows, vals, dense)
			denseRes := slices.Clone(lu.res)

			lu.ftranPath = ftranForceHyper
			hyper := make([]float64, m)
			lu.clearResult(m)
			lu.ftran(rows, vals, hyper)
			checkFtranResult(t, trial, probe, dense, hyper, lu.res)
			for _, p := range denseRes {
				if dense[p] == 0 {
					t.Fatalf("trial %d probe %d: dense pattern lists zero position %d", trial, probe, p)
				}
			}

			// The persistent buffer carries the previous result's pattern.
			lu.ftranPath = ftranForceDense + int8(probe%2)
			lu.res = lu.res[:0]
			lu.res = append(lu.res, persistentRes(persistent)...)
			lu.ftran(rows, vals, persistent)
			checkFtranResult(t, trial, probe, dense, persistent, lu.res)

			// Grow the eta file with this column as a pivot, as pivotSparse
			// does, so later probes run through it.
			if lu.nEtas < nEtas {
				lu.ftranPath = ftranAuto
				lu.clearResult(m)
				clear(w)
				lu.ftran(rows, vals, w)
				best, bestAbs := -1, 0.0
				for _, p := range lu.res {
					if a := math.Abs(w[p]); a > bestAbs {
						best, bestAbs = int(p), a
					}
				}
				if bestAbs > 0.1 {
					lu.appendEta(best, w)
				}
			}

			c := make([]float64, m)
			for i := range c {
				if rng.Intn(3) == 0 {
					c[i] = rng.NormFloat64()
				}
			}
			y, yRef := make([]float64, m), make([]float64, m)
			lu.btran(c, y)
			lu.btranRef(c, yRef)
			for i := range y {
				if y[i] != yRef[i] {
					t.Fatalf("trial %d probe %d: btran[%d] = %v, reference %v", trial, probe, i, y[i], yRef[i])
				}
			}
		}
	}
}

// persistentRes rebuilds a valid pattern for a vector ftran left behind:
// its nonzero positions, ascending.
func persistentRes(v []float64) []int32 {
	var res []int32
	for p, x := range v {
		if x != 0 {
			res = append(res, int32(p))
		}
	}
	return res
}

func checkFtranResult(t *testing.T, trial, probe int, want, got []float64, res []int32) {
	t.Helper()
	for p := range want {
		if want[p] != got[p] {
			t.Fatalf("trial %d probe %d: x[%d] = %v, dense path %v", trial, probe, p, got[p], want[p])
		}
	}
	if !slices.IsSorted(res) || len(slices.Compact(slices.Clone(res))) != len(res) {
		t.Fatalf("trial %d probe %d: pattern not ascending and unique: %v", trial, probe, res)
	}
	in := make(map[int32]bool, len(res))
	for _, p := range res {
		in[p] = true
	}
	for p, v := range got {
		if v != 0 && !in[int32(p)] {
			t.Fatalf("trial %d probe %d: nonzero x[%d] = %v missing from the pattern", trial, probe, p, v)
		}
	}
}
