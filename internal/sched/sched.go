// Package sched defines the schedule artifacts the algorithms produce:
// integral machine→job assignments (the rounded LP solutions of Lemmas 2
// and 6) and finite oblivious schedules (Section 2), plus the accounting —
// load, length, log mass — the analyses are stated in.
package sched

import (
	"fmt"

	"repro/internal/model"
)

// Assignment is an integral assignment x[i][j]: machine i runs job j for
// X[i][j] unit steps. It is the combinatorial object produced by rounding
// (LP1)/(LP2); it becomes a schedule via Serialize.
type Assignment struct {
	M, N int
	X    [][]int64
}

// NewAssignment returns an all-zero assignment. The rows share one flat
// backing array (three allocations total instead of m+2), which matters
// because every cache-miss rounding in a Monte Carlo run builds one.
func NewAssignment(m, n int) *Assignment {
	flat := make([]int64, m*n)
	x := make([][]int64, m)
	for i := range x {
		x[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return &Assignment{M: m, N: n, X: x}
}

// Load returns machine i's load Σ_j x_ij.
func (a *Assignment) Load(i int) int64 {
	var s int64
	for _, v := range a.X[i] {
		s += v
	}
	return s
}

// MaxLoad returns the maximum machine load, which is the length of the
// serialized oblivious schedule.
func (a *Assignment) MaxLoad() int64 {
	var mx int64
	for i := 0; i < a.M; i++ {
		if l := a.Load(i); l > mx {
			mx = l
		}
	}
	return mx
}

// Mass returns job j's log mass Σ_i ℓ_ij·x_ij under the given log failures.
func (a *Assignment) Mass(j int, ell [][]float64) float64 {
	s := 0.0
	for i := 0; i < a.M; i++ {
		if a.X[i][j] > 0 {
			s += ell[i][j] * float64(a.X[i][j])
		}
	}
	return s
}

// JobLength returns d_j = max_i x_ij, the paper's length of job j's
// assignment (Section 4).
func (a *Assignment) JobLength(j int) int64 {
	var mx int64
	for i := 0; i < a.M; i++ {
		if a.X[i][j] > mx {
			mx = a.X[i][j]
		}
	}
	return mx
}

// Validate checks internal consistency against an instance.
func (a *Assignment) Validate(ins *model.Instance) error {
	if a.M != ins.M || a.N != ins.N {
		return fmt.Errorf("sched: assignment is %dx%d, instance is %dx%d", a.M, a.N, ins.M, ins.N)
	}
	for i := range a.X {
		for j, v := range a.X[i] {
			if v < 0 {
				return fmt.Errorf("sched: negative assignment x[%d][%d] = %d", i, j, v)
			}
		}
	}
	return nil
}

// Run is a contiguous stretch of steps one machine spends on one job.
type Run struct {
	Job   int
	Steps int64
}

// Oblivious is a finite oblivious schedule (Section 2): for each machine, a
// fixed sequence of runs executed regardless of which jobs have completed
// (machines assigned to completed jobs simply idle). Length is the number
// of timesteps; machines whose runs end earlier idle until Length. An
// Oblivious is immutable once built and safe to share across goroutines;
// Serialize precomputes the job set so Jobs is allocation-free on the
// simulator's repeated-pass hot path.
type Oblivious struct {
	M      int
	Runs   [][]Run
	Length int64

	jobs []int // job set in first-appearance order; nil if built by hand
}

// Serialize turns an assignment into an oblivious schedule: machine i runs
// its assigned jobs back to back in ascending job order (the order is
// immaterial to the guarantees; Section 3 says "in arbitrary order"). All
// runs share one flat backing array, so serialization costs a constant
// number of allocations regardless of assignment density.
func (a *Assignment) Serialize() *Oblivious {
	all := make([]int, a.N)
	for j := range all {
		all[j] = j
	}
	return a.serializeCols(all)
}

// SerializeJobs is Serialize restricted to the columns in jobs, which must
// hold every job with a nonzero entry. When jobs is strictly ascending the
// result is identical to Serialize's at O(m·len(jobs)) instead of O(m·n) —
// what a rounding of a few surviving jobs of a large instance needs;
// otherwise it falls back to Serialize.
func (a *Assignment) SerializeJobs(jobs []int) *Oblivious {
	for k := 1; k < len(jobs); k++ {
		if jobs[k] <= jobs[k-1] {
			return a.Serialize()
		}
	}
	return a.serializeCols(jobs)
}

// serializeCols serializes the given ascending columns.
func (a *Assignment) serializeCols(cols []int) *Oblivious {
	o := &Oblivious{M: a.M, Runs: make([][]Run, a.M)}
	total := 0
	for i := 0; i < a.M; i++ {
		for _, j := range cols {
			if a.X[i][j] > 0 {
				total++
			}
		}
	}
	flat := make([]Run, 0, total)
	var seenBuf [64]bool // indexed by position in cols
	seen := seenBuf[:]
	if len(cols) > len(seen) {
		seen = make([]bool, len(cols))
	}
	o.jobs = make([]int, 0, len(cols))
	for i := 0; i < a.M; i++ {
		var t int64
		start := len(flat)
		for pos, j := range cols {
			if a.X[i][j] > 0 {
				flat = append(flat, Run{Job: j, Steps: a.X[i][j]})
				t += a.X[i][j]
				if !seen[pos] {
					seen[pos] = true
					o.jobs = append(o.jobs, j)
				}
			}
		}
		o.Runs[i] = flat[start:len(flat):len(flat)]
		if t > o.Length {
			o.Length = t
		}
	}
	return o
}

// Jobs returns the jobs that appear in the schedule, in first-appearance
// order. For serialized schedules the list is precomputed and shared —
// callers must not mutate it.
func (o *Oblivious) Jobs() []int {
	if o.jobs != nil {
		return o.jobs
	}
	seen := make(map[int]bool)
	var jobs []int
	for _, runs := range o.Runs {
		for _, r := range runs {
			if !seen[r.Job] {
				seen[r.Job] = true
				jobs = append(jobs, r.Job)
			}
		}
	}
	return jobs
}

// MassPerPass returns each scheduled job's log mass from one full pass of
// the schedule.
func (o *Oblivious) MassPerPass(ell [][]float64) map[int]float64 {
	mass := make(map[int]float64)
	for i, runs := range o.Runs {
		for _, r := range runs {
			mass[r.Job] += ell[i][r.Job] * float64(r.Steps)
		}
	}
	return mass
}

// Validate checks structural sanity: nonnegative runs, job ids in range,
// machine timelines within Length.
func (o *Oblivious) Validate(n int) error {
	for i, runs := range o.Runs {
		var t int64
		for _, r := range runs {
			if r.Job < 0 || r.Job >= n {
				return fmt.Errorf("sched: machine %d schedules job %d (have %d jobs)", i, r.Job, n)
			}
			if r.Steps <= 0 {
				return fmt.Errorf("sched: machine %d has run of %d steps on job %d", i, r.Steps, r.Job)
			}
			t += r.Steps
		}
		if t > o.Length {
			return fmt.Errorf("sched: machine %d timeline %d exceeds length %d", i, t, o.Length)
		}
	}
	return nil
}

// StepAssignments expands the schedule into per-step machine→job vectors
// (assign[t][i] = job or -1). Quadratic in Length·M; intended for tests and
// the coin-flip reference simulator only.
func (o *Oblivious) StepAssignments() [][]int {
	out := make([][]int, o.Length)
	for t := range out {
		row := make([]int, o.M)
		for i := range row {
			row[i] = -1
		}
		out[t] = row
	}
	for i, runs := range o.Runs {
		var t int64
		for _, r := range runs {
			for s := int64(0); s < r.Steps; s++ {
				out[t+s][i] = r.Job
			}
			t += r.Steps
		}
	}
	return out
}
