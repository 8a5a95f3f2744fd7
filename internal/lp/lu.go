package lp

// Sparse LU factorization of the simplex basis, with a product-form eta
// file for pivot-to-pivot updates. The revised simplex never forms B⁻¹:
// it answers FTRAN (B x = v) and BTRAN (Bᵀ y = c) queries against
//
//	B = (L·U) · E₁ · E₂ · … · E_k
//
// where L·U factorizes the basis as of the last refactorization and each
// E_i is an elementary (eta) matrix recording one pivot. The factorization
// is left-looking with Markowitz-style threshold pivoting: each basis
// column is forward-eliminated over its reach — the factored steps whose
// pivot rows it touches, directly or through fill, popped in ascending
// order from a heap that each newly touched row pushes its own step onto —
// and the pivot is chosen among entries within luRelPivot of the column's
// largest as the one in the structurally sparsest row, large enough for
// stability, sparse enough to bound fill. The eta file is capped
// (luMaxEtas); when it fills, or when a pivot looks numerically unsafe, the
// solver refactorizes from scratch, which also recomputes the basic
// solution from the original right-hand side and thereby discards all
// accumulated drift (the LU-update property test bounds that drift at 1e-9
// between refactorizations).
//
// The kernels cost what the basis's nonzeros cost where that is cheaper
// than its row count (Hall & McKinnon, "Hyper-sparsity in the revised
// simplex method", 2005). The full LP2 relaxation's basis is nearly the
// identity — at m=16, n=64 its 1120 rows carry about 190 off-diagonal LU
// entries — so FTRAN has a hypersparse path: L and U passes driven by step heaps over the
// right-hand side's reach, a result pattern the simplex's ratio test,
// basic-solution update and eta append iterate instead of 0..m. Each call
// picks that path or the full-length loops by the running density of
// recent results (hyperCut): the full LP2's entering columns come out
// 4–9% dense on the chains family, LP1's 26–38%, and on LP1 the heap's log
// factor loses to a straight loop. internal/rounding now solves LP2 on its
// 96 core rows and adds cap rows only when violated; relative to that
// smaller basis the columns are denser, and about 45% of the core solve's
// FTRANs take the hypersparse path. BTRAN keeps the full-length gather form (LP2's duals are
// about 10% dense and a reach-ordered BTRAN measured slower); it only
// skips steps with an empty L column and zero entries with an empty U
// column.
//
// Invariant: every kernel performs the floating-point operations of the
// plain full-length loops, on the same operands, in the same order; it
// only skips operations those loops would perform on exact zeros. The
// results agree bit for bit on every nonzero (a skipped 0/d can leave a
// zero with the other sign, and no nonzero result depends on it), so
// pivot sequences and solutions do not depend on the path taken. The
// property tests in lu_hyper_test.go hold both paths, and the full-scan
// elimination, to that.
//
// Row/position bookkeeping: the basis is a set of m columns, one per basis
// "position" (positions correspond 1:1 to constraint rows for the Basis
// encoding). The factorization eliminates columns in an internal order;
// step k records which original row it pivoted (pivRow) and which basis
// position its column belongs to (stepPos). FTRAN results and eta vectors
// live in position space; BTRAN inputs are position-space cost vectors and
// its outputs are row-space duals.

import "math"

const (
	luPivotTol = 1e-10 // absolute floor for an acceptable factorization pivot
	luRelPivot = 0.1   // threshold pivoting: accept within 10% of the column max
	luDropTol  = 1e-13 // drop tolerance for factor and eta entries
	luMaxEtas  = 64    // eta-file length that triggers refactorization
)

// luFactors holds one basis factorization plus its eta file. All storage is
// grown monotonically and reused across factorizations.
type luFactors struct {
	m      int // basis dimension (= constraint rows)
	nsteps int // elimination steps completed (= m when the basis is full)

	pivRow    []int32 // step -> original row claimed as pivot
	stepPos   []int32 // step -> basis position of the eliminated column
	stepOfRow []int32 // original row -> step, -1 while unpivoted

	// L: unit lower triangular by elimination step; entries are original
	// rows that were unpivoted when the step ran (they pivot later).
	lPtr []int32
	lRow []int32
	lVal []float64

	// U: upper triangular by elimination step; entries reference earlier
	// steps, the diagonal is the pivot value.
	uPtr  []int32
	uStep []int32
	uVal  []float64
	uDiag []float64

	// Product-form eta file, in position space: eta e replaces basis
	// position etaPivPos[e] with a column whose FTRAN image had pivot
	// value etaPivVal[e] and off-pivot entries (etaPos, etaVal).
	nEtas     int
	etaPtr    []int32
	etaPos    []int32
	etaVal    []float64
	etaPivPos []int32
	etaPivVal []float64

	// lSteps lists the steps with a nonempty L column, ascending; BTRAN's
	// L pass walks only these.
	lSteps []int32

	// scratch; begin carves the m-long vectors out of fscratch, iscratch
	// and bscratch
	fscratch []float64
	iscratch []int32
	bscratch []bool
	work     []float64 // dense accumulator, row space
	pat      []int32   // pattern of the column being eliminated
	stamp    []int32   // epoch stamps validating work entries
	epoch    int32
	heap     []int32   // binary min-heap of elimination steps (reach order)
	sweep    []float64 // FTRAN/BTRAN dense working vector
	stepv    []float64 // step-space working vector for BTRAN

	// Hypersparse FTRAN scratch. hw is all-zero between calls; rowPat and
	// rowMark record the rows a call touched so it can clean up after
	// itself.
	hw      []float64
	rowPat  []int32
	rowMark []bool

	// res is the pattern of the last ftran result, ascending: every
	// position outside it holds a zero (of either sign). It describes the
	// caller's output vector, so it survives refactorization; clearResult
	// drops it when that vector is reallocated. resMark is all-false
	// between calls.
	res     []int32
	resMark []bool

	// density is a running average of ftran result density (pattern size
	// over m); it selects the hypersparse or the dense loop per call.
	// ftranPath, a test hook, forces one of the two.
	density   float64
	ftranPath int8
}

// FTRAN path selection (see ftran).
const (
	ftranAuto       = iota // pick by running density
	ftranForceDense        // always the full-length loops
	ftranForceHyper        // always the reach-ordered loops

	// hyperCut is the running density below which ftran takes the
	// reach-ordered path. Measured over whole cold solves at m=16, n=64
	// and m=32, n=128: LP2's entering columns average 4–9% dense on the
	// chains family (up to 19% on chains-hard), LP1's 26–38%; the heap's
	// log factor loses to a straight loop somewhere in between.
	hyperCut = 0.10
	// densityDecay weights the newest result in the running density.
	densityDecay = 0.1
)

// begin resets the factorization for a basis of dimension m, keeping all
// backing arrays.
func (lu *luFactors) begin(m int) {
	lu.m = m
	lu.nsteps = 0
	lu.pivRow = lu.pivRow[:0]
	lu.stepPos = lu.stepPos[:0]
	if cap(lu.stepOfRow) < m {
		lu.stepOfRow = make([]int32, m)
	}
	lu.stepOfRow = lu.stepOfRow[:m]
	for i := range lu.stepOfRow {
		lu.stepOfRow[i] = -1
	}
	lu.lPtr = append(lu.lPtr[:0], 0)
	lu.lRow = lu.lRow[:0]
	lu.lVal = lu.lVal[:0]
	lu.uPtr = append(lu.uPtr[:0], 0)
	lu.uStep = lu.uStep[:0]
	lu.uVal = lu.uVal[:0]
	lu.uDiag = lu.uDiag[:0]
	lu.resetEtas()
	// The m-long scratch vectors share one zeroed backing array per
	// element type, so a fresh solver pays three allocations for them.
	// The pattern lists hold distinct steps or rows, so capacity m means
	// they never outgrow their section.
	f := growFloats(lu.fscratch, 4*m)
	lu.fscratch = f
	lu.work, lu.sweep, lu.stepv, lu.hw = f[:m:m], f[m:2*m:2*m], f[2*m:3*m:3*m], f[3*m:]
	i := growInt32s(lu.iscratch, 4*m)
	lu.iscratch = i
	lu.stamp, lu.heap, lu.rowPat, lu.lSteps = i[:m:m], i[m:m:2*m], i[2*m:2*m:3*m], i[3*m:3*m]
	lu.epoch = 0
	b := growBools(lu.bscratch, 2*m)
	lu.bscratch = b
	lu.rowMark, lu.resMark = b[:m:m], b[m:]
}

// clearResult forgets the last ftran result's pattern and restarts the
// density average; call it whenever the m-long output vector ftran writes
// into is reallocated or zeroed for a new problem.
func (lu *luFactors) clearResult(m int) {
	lu.res = growInt32s(lu.res, m)[:0]
	lu.density = 0
}

// resetEtas empties the eta file (called by begin and after refactorizing).
func (lu *luFactors) resetEtas() {
	lu.nEtas = 0
	lu.etaPtr = append(lu.etaPtr[:0], 0)
	lu.etaPos = lu.etaPos[:0]
	lu.etaVal = lu.etaVal[:0]
	lu.etaPivPos = lu.etaPivPos[:0]
	lu.etaPivVal = lu.etaPivVal[:0]
}

// addColumn eliminates one basis column (given as parallel CSC row/value
// slices) against the factorization built so far and claims a pivot row
// for it. rowCnt carries static per-row nonzero counts for the Markowitz
// tie-break. It returns the elimination step and the claimed original row,
// or (-1, -1) when no entry in an unpivoted row reaches luPivotTol — the
// column is (near-)dependent on the steps already taken and the caller
// must skip or replace it. The caller owns assigning the step's basis
// position via setStepPos.
func (lu *luFactors) addColumn(rows []int32, vals []float64, rowCnt []int32) (step, pivotRow int) {
	lu.epoch++
	pat := lu.pat[:0]
	h := lu.heap[:0]
	for t, r := range rows {
		if lu.stamp[r] != lu.epoch {
			lu.stamp[r] = lu.epoch
			lu.work[r] = vals[t]
			pat = append(pat, r)
			if st := lu.stepOfRow[r]; st >= 0 {
				h = heapPush(h, st)
			}
		} else {
			lu.work[r] += vals[t]
		}
	}
	// Forward elimination over the column's reach. A step only updates
	// rows that were unpivoted when it ran, which pivot at later steps, so
	// popping steps in ascending order while each newly touched row pushes
	// its own step visits exactly the steps a full ascending scan would
	// act on, in the same order.
	for len(h) > 0 {
		var k int32
		k, h = heapPop(h)
		v := lu.work[lu.pivRow[k]]
		if v == 0 {
			continue
		}
		for t := lu.lPtr[k]; t < lu.lPtr[k+1]; t++ {
			r := lu.lRow[t]
			if lu.stamp[r] != lu.epoch {
				lu.stamp[r] = lu.epoch
				lu.work[r] = 0
				pat = append(pat, r)
				if st := lu.stepOfRow[r]; st >= 0 {
					h = heapPush(h, st)
				}
			}
			lu.work[r] -= lu.lVal[t] * v
		}
	}
	lu.pat = pat
	lu.heap = h
	return lu.claimPivot(rowCnt)
}

// claimPivot finishes addColumn once the eliminated column sits in work
// over pattern pat: it picks the pivot row, stores the column's U and L
// parts, and records the step.
func (lu *luFactors) claimPivot(rowCnt []int32) (step, pivotRow int) {
	pat := lu.pat
	// Pivot choice: the largest eligible magnitude sets the stability bar;
	// among entries within luRelPivot of it, prefer the structurally
	// sparsest row (Markowitz-style fill control).
	pick, bestAbs := int32(-1), 0.0
	for _, r := range pat {
		if lu.stepOfRow[r] >= 0 {
			continue
		}
		if a := math.Abs(lu.work[r]); a > bestAbs {
			bestAbs, pick = a, r
		}
	}
	if bestAbs < luPivotTol {
		return -1, -1
	}
	bestCnt := rowCnt[pick]
	for _, r := range pat {
		if lu.stepOfRow[r] >= 0 || r == pick {
			continue
		}
		if math.Abs(lu.work[r]) >= luRelPivot*bestAbs && rowCnt[r] < bestCnt {
			pick, bestCnt = r, rowCnt[r]
		}
	}

	piv := lu.work[pick]
	k := lu.nsteps
	for _, r := range pat {
		if st := lu.stepOfRow[r]; st >= 0 {
			if v := lu.work[r]; v > luDropTol || v < -luDropTol {
				lu.uStep = append(lu.uStep, st)
				lu.uVal = append(lu.uVal, v)
			}
		}
	}
	lu.uPtr = append(lu.uPtr, int32(len(lu.uStep)))
	lu.uDiag = append(lu.uDiag, piv)
	inv := 1 / piv
	for _, r := range pat {
		if lu.stepOfRow[r] < 0 && r != pick {
			if v := lu.work[r] * inv; v > luDropTol || v < -luDropTol {
				lu.lRow = append(lu.lRow, r)
				lu.lVal = append(lu.lVal, v)
			}
		}
	}
	if int(lu.lPtr[k]) < len(lu.lRow) {
		lu.lSteps = append(lu.lSteps, int32(k))
	}
	lu.lPtr = append(lu.lPtr, int32(len(lu.lRow)))
	lu.pivRow = append(lu.pivRow, pick)
	lu.stepPos = append(lu.stepPos, -1)
	lu.stepOfRow[pick] = int32(k)
	lu.nsteps++
	return k, int(pick)
}

// setStepPos records which basis position step k's column occupies.
func (lu *luFactors) setStepPos(step, pos int) { lu.stepPos[step] = int32(pos) }

// full reports whether every row has been pivoted (the basis is complete).
func (lu *luFactors) full() bool { return lu.nsteps == lu.m }

// ftran solves B x = v for a sparse v given as CSC row/value slices,
// writing x into out (position space, length m) and its pattern into
// lu.res. out must hold the previous ftran result (or zeros): only that
// result's pattern is cleared, so positions outside the new pattern are
// zeros. Both paths perform the same floating-point operations in the
// same order; the reach-ordered one skips the steps and positions the
// full loops would find zero. It reports whether it took that path.
func (lu *luFactors) ftran(rows []int32, vals []float64, out []float64) (hyper bool) {
	for _, p := range lu.res {
		out[p] = 0
	}
	lu.res = lu.res[:0]
	hyper = lu.density < hyperCut
	switch lu.ftranPath {
	case ftranForceDense:
		hyper = false
	case ftranForceHyper:
		hyper = true
	}
	if hyper {
		lu.ftranHyper(rows, vals, out)
	} else {
		w := lu.sweep
		for i := range w {
			w[i] = 0
		}
		for t, r := range rows {
			w[r] += vals[t]
		}
		lu.ftranWork(w, out)
		for p, v := range out[:lu.m] {
			if v != 0 {
				lu.res = append(lu.res, int32(p))
			}
		}
	}
	lu.density += densityDecay * (float64(len(lu.res))/float64(lu.m) - lu.density)
	return hyper
}

// ftranHyper is ftran over the right-hand side's reach (Hall & McKinnon's
// hypersparse FTRAN). The L pass pops steps in ascending order from a
// heap that every newly touched row pushes its own step onto; the U pass
// pops in descending order (the heap holds ^k); the eta pass is the full
// loop's, with positions marked as they fill, and a scan of the marks
// yields the result pattern in ascending order. Each pass therefore visits
// the steps the full loop would act on, in the full loop's order.
func (lu *luFactors) ftranHyper(rows []int32, vals []float64, out []float64) {
	w, mark := lu.hw, lu.rowMark
	pat, h := lu.rowPat[:0], lu.heap[:0]
	for t, r := range rows {
		if !mark[r] {
			mark[r] = true
			pat = append(pat, r)
			h = heapPush(h, lu.stepOfRow[r])
		}
		w[r] += vals[t]
	}
	for len(h) > 0 {
		var k int32
		k, h = heapPop(h)
		v := w[lu.pivRow[k]]
		if v == 0 {
			continue
		}
		for t := lu.lPtr[k]; t < lu.lPtr[k+1]; t++ {
			r := lu.lRow[t]
			if !mark[r] {
				mark[r] = true
				pat = append(pat, r)
				h = heapPush(h, lu.stepOfRow[r])
			}
			w[r] -= lu.lVal[t] * v
		}
	}
	for _, r := range pat {
		h = heapPush(h, ^lu.stepOfRow[r])
	}
	rmark := lu.resMark
	for len(h) > 0 {
		var nk int32
		nk, h = heapPop(h)
		k := ^nk
		z := w[lu.pivRow[k]] / lu.uDiag[k]
		p := lu.stepPos[k]
		out[p] = z
		rmark[p] = true
		if z == 0 {
			continue
		}
		for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
			s := lu.uStep[t]
			r := lu.pivRow[s]
			if !mark[r] {
				mark[r] = true
				pat = append(pat, r)
				h = heapPush(h, ^s)
			}
			w[r] -= lu.uVal[t] * z
		}
	}
	for e := 0; e < lu.nEtas; e++ {
		r := lu.etaPivPos[e]
		z := out[r] / lu.etaPivVal[e]
		out[r] = z
		if z == 0 {
			continue
		}
		for t := lu.etaPtr[e]; t < lu.etaPtr[e+1]; t++ {
			p := lu.etaPos[t]
			rmark[p] = true
			out[p] -= lu.etaVal[t] * z
		}
	}
	for _, r := range pat {
		w[r] = 0
		mark[r] = false
	}
	res := lu.res[:0]
	for p, on := range rmark[:lu.m] {
		if on {
			rmark[p] = false
			res = append(res, int32(p))
		}
	}
	lu.rowPat, lu.heap, lu.res = pat, h, res
}

// ftranDense is ftran for a dense row-space right-hand side.
func (lu *luFactors) ftranDense(v, out []float64) {
	copy(lu.sweep, v)
	lu.ftranWork(lu.sweep, out)
}

// ftranWork runs the L, U, and eta solves over the row-space vector w
// (clobbered), leaving the position-space solution in out.
func (lu *luFactors) ftranWork(w, out []float64) {
	for k := 0; k < lu.nsteps; k++ {
		v := w[lu.pivRow[k]]
		if v == 0 {
			continue
		}
		for t := lu.lPtr[k]; t < lu.lPtr[k+1]; t++ {
			w[lu.lRow[t]] -= lu.lVal[t] * v
		}
	}
	for k := lu.nsteps - 1; k >= 0; k-- {
		z := w[lu.pivRow[k]] / lu.uDiag[k]
		out[lu.stepPos[k]] = z
		if z == 0 {
			continue
		}
		for t := lu.uPtr[k]; t < lu.uPtr[k+1]; t++ {
			w[lu.pivRow[lu.uStep[t]]] -= lu.uVal[t] * z
		}
	}
	for e := 0; e < lu.nEtas; e++ {
		r := lu.etaPivPos[e]
		z := out[r] / lu.etaPivVal[e]
		out[r] = z
		if z == 0 {
			continue
		}
		for t := lu.etaPtr[e]; t < lu.etaPtr[e+1]; t++ {
			out[lu.etaPos[t]] -= lu.etaVal[t] * z
		}
	}
}

// btran solves Bᵀ y = c for a position-space c, writing the row-space dual
// into out (length m). c is not modified; out is fully overwritten.
func (lu *luFactors) btran(c, out []float64) {
	p := lu.sweep
	copy(p, c)
	for e := lu.nEtas - 1; e >= 0; e-- {
		r := lu.etaPivPos[e]
		s := p[r]
		for t := lu.etaPtr[e]; t < lu.etaPtr[e+1]; t++ {
			s -= lu.etaVal[t] * p[lu.etaPos[t]]
		}
		p[r] = s / lu.etaPivVal[e]
	}
	// U pass, gathering each step's entry as it goes. A zero entry with an
	// empty U column stays a zero: the skipped division could only flip
	// its sign, and no nonzero result downstream depends on that sign.
	st := lu.stepv
	for k := 0; k < lu.nsteps; k++ {
		s := p[lu.stepPos[k]]
		lo, hi := lu.uPtr[k], lu.uPtr[k+1]
		if s == 0 && lo == hi {
			st[k] = s
			continue
		}
		for t := lo; t < hi; t++ {
			s -= lu.uVal[t] * st[lu.uStep[t]]
		}
		st[k] = s / lu.uDiag[k]
	}
	for i := len(lu.lSteps) - 1; i >= 0; i-- {
		k := lu.lSteps[i]
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

// appendEta records a pivot: basis position r is replaced by a column whose
// FTRAN image is w (position space), the last ftran result, so only its
// pattern lu.res can hold entries. w[r] must be the accepted pivot value.
func (lu *luFactors) appendEta(r int, w []float64) {
	for _, i := range lu.res {
		if int(i) == r {
			continue
		}
		if v := w[i]; v > luDropTol || v < -luDropTol {
			lu.etaPos = append(lu.etaPos, i)
			lu.etaVal = append(lu.etaVal, v)
		}
	}
	lu.etaPtr = append(lu.etaPtr, int32(len(lu.etaPos)))
	lu.etaPivPos = append(lu.etaPivPos, int32(r))
	lu.etaPivVal = append(lu.etaPivVal, w[r])
	lu.nEtas++
}

// heapPush adds step v to the binary min-heap h.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= v {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
	return h
}

// heapPop removes and returns the smallest step in the non-empty heap h.
func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	v := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if v <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = v
	}
	return top, h
}
