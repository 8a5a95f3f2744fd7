// Package core implements the paper's scheduling algorithms — its primary
// contribution:
//
//   - OBL: the oblivious O(log n)-approximation for independent jobs
//     (Section 3, SUU-I-OBL),
//   - SEM: the semioblivious O(log log min{m,n})-approximation for
//     independent jobs (Section 3, SUU-I-SEM),
//   - Chains: the O(log(n+m)·loglog min{m,n})-approximation for disjoint
//     chains (Section 4, SUU-C),
//   - Forest: the O(log n · log(n+m) · loglog min{m,n})-approximation for
//     directed forests (Appendix B, SUU-T),
//   - Layered: a level-by-level extension for general layered DAGs such as
//     MapReduce's bipartite phases (motivated by the paper's introduction).
//
// Every algorithm implements sim.Policy, driving a sim.World (the SUU*
// engine) to completion; randomized choices draw from the world's RNG so
// trials stay reproducible.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rounding"
	"repro/internal/sim"
)

// maxPasses bounds schedule repetitions; in threshold mode ≈130 passes
// suffice for any job (threshold ≤ 64, mass ≥ 1/2 per pass), so hitting
// this limit means a bug rather than bad luck.
const maxPasses = 1 << 30

// SubsetRunner is a policy component that completes a given set of
// mutually-independent eligible jobs. SUU-C uses one to finish each
// segment's batch of long jobs: plugging in SEM gives the paper's
// algorithm; plugging in OBL gives the Lin–Rajaraman-style baseline with
// the extra log factor.
type SubsetRunner interface {
	Name() string
	RunOnSubset(w *sim.World, jobs []int) error
}

// remainingOf returns a new slice of the jobs not yet completed.
func remainingOf(w *sim.World, jobs []int) []int {
	return keepRemaining(w, make([]int, 0, len(jobs)), jobs)
}

// keepRemaining appends the jobs not yet completed to out and returns it.
// out may be jobs[:0]: the filter then runs in place, since it never
// writes ahead of the job it reads.
func keepRemaining(w *sim.World, out, jobs []int) []int {
	for _, j := range jobs {
		if !w.Done(j) {
			out = append(out, j)
		}
	}
	return out
}

// requireIndependent rejects worlds whose instances have precedence
// constraints; OBL and SEM are defined for SUU-I.
func requireIndependent(w *sim.World, name string) error {
	ins := w.Instance()
	if ins.Prec != nil && ins.Prec.Edges() > 0 {
		return fmt.Errorf("core: %s requires independent jobs, instance has precedence class %v",
			name, ins.Class())
	}
	return nil
}

// OBL is SUU-I-OBL (Section 3): round LP1(J, 1/2) into a finite oblivious
// schedule of length O(E[T_OPT]) that gives every job failure probability
// at most 1/√2 per pass, then repeat the schedule until all jobs complete.
// Expected makespan O(E[T_OPT]·log n).
type OBL struct {
	// Cache, if set, memoizes the LP rounding across Monte Carlo trials,
	// and across every other policy and computation sharing it.
	Cache *rounding.Cache
	// pool hands each concurrent Run a reusable LP solver workspace, so
	// cache-miss solves reuse one tableau per worker.
	pool rounding.WorkspacePool
}

// Name implements sim.Policy.
func (o *OBL) Name() string { return "suu-i-obl" }

// Run completes all jobs of an independent-jobs instance.
func (o *OBL) Run(w *sim.World) error {
	if err := requireIndependent(w, o.Name()); err != nil {
		return err
	}
	return o.RunOnSubset(w, w.Remaining())
}

// RunOnSubset completes the given eligible jobs by repeating their
// LP1(jobs, 1/2) schedule.
func (o *OBL) RunOnSubset(w *sim.World, jobs []int) error {
	jobs = remainingOf(w, jobs)
	if len(jobs) == 0 {
		return nil
	}
	ws := o.pool.Get()
	r, err := o.Cache.RoundLP1Ws(ws, w.Instance(), jobs, 0.5)
	o.pool.Put(ws)
	if err != nil {
		return err
	}
	_, err = w.RepeatOblivious(r.Schedule, maxPasses)
	return err
}

// SEM is SUU-I-SEM (Section 3): K = ⌈log₂log₂ min{m,n}⌉ + 3 rounds with
// doubling mass targets L_k = 2^(k−2), each an oblivious LP1 schedule over
// the still-uncompleted jobs; stragglers after round K run one at a time on
// all machines (n ≤ m) or under a repeated round-K schedule (m < n).
// Expected makespan O(E[T_OPT]·log log min{m,n}).
type SEM struct {
	// Cache, if set, memoizes LP roundings across Monte Carlo trials
	// (round 1 is identical in every trial), and across every other
	// policy and computation sharing it.
	Cache *rounding.Cache
	// ColdLP disables the per-worker solver workspace, solving every
	// round's LP1 on a fresh workspace. Results are identical either way;
	// it exists as the baseline arm of the LP-engine benchmarks
	// (t1-large-cold); leave it false everywhere else.
	ColdLP bool
	// OnRound, if set, observes (round, jobs still uncompleted) at the
	// start of every round, and (K+1, stragglers) when the endgame fires.
	// It must be safe for concurrent use.
	OnRound func(round, remaining int)
	// pool hands each concurrent Run a workspace whose solver and build
	// arenas serve every round's cache-miss solve.
	pool rounding.WorkspacePool
}

// Name implements sim.Policy.
func (s *SEM) Name() string { return "suu-i-sem" }

// Rounds returns the round budget K for a subproblem with nJobs jobs:
// ⌈log₂ log₂ min{m, nJobs}⌉ + 3, with the degenerate min{m,n} < 4 cases
// getting the constant floor of 3.
func Rounds(m, nJobs int) int {
	minMN := m
	if nJobs < minMN {
		minMN = nJobs
	}
	k := 3
	if minMN >= 4 {
		k += int(math.Ceil(math.Log2(math.Log2(float64(minMN))) - 1e-12))
	}
	return k
}

// Run completes all jobs of an independent-jobs instance.
func (s *SEM) Run(w *sim.World) error {
	if err := requireIndependent(w, s.Name()); err != nil {
		return err
	}
	return s.run(w, w.Remaining())
}

// RunOnSubset completes the given eligible jobs; it is the long-job
// subroutine of SUU-C and the per-layer engine of Layered.
//
// Each round solves LP1 cold on the round's survivors, so its rounding
// is a pure function of (instance, survivors, target): the cache shares
// it with every trial that reaches the same survivor set, and every
// trial's makespan is a deterministic function of its seed,
// byte-identical across worker counts.
func (s *SEM) RunOnSubset(w *sim.World, jobs []int) error {
	return s.run(w, remainingOf(w, jobs))
}

// run completes the uncompleted jobs rem, which it owns: rem is the one
// survivor buffer of the call, filtered in place each round. The cache,
// the schedule and the flow scratch all copy the job lists they keep.
func (s *SEM) run(w *sim.World, rem []int) error {
	ins := w.Instance()
	n := len(rem)
	if n == 0 {
		return nil
	}
	var ws *rounding.Workspace
	if !s.ColdLP {
		ws = s.pool.Get()
		defer s.pool.Put(ws)
	}
	k := Rounds(ins.M, n)
	var lastRound *rounding.LP1Result
	for round := 1; round <= k; round++ {
		rem = keepRemaining(w, rem[:0], rem)
		if len(rem) == 0 {
			// Completed inside the round budget; still report the endgame
			// observation so OnRound sees every execution exactly once.
			if s.OnRound != nil {
				s.OnRound(k+1, 0)
			}
			return nil
		}
		if s.OnRound != nil {
			s.OnRound(round, len(rem))
		}
		target := math.Pow(2, float64(round-2)) // L_k = 2^(k−2), L_1 = 1/2
		var r *rounding.LP1Result
		var err error
		if ws != nil {
			r, err = s.Cache.RoundLP1Ws(ws, ins, rem, target)
		} else {
			r, err = s.Cache.RoundLP1(ins, rem, target)
		}
		if err != nil {
			return err
		}
		lastRound = r
		if err := w.RunOblivious(r.Schedule); err != nil {
			return err
		}
	}
	rem = keepRemaining(w, rem[:0], rem)
	if s.OnRound != nil {
		s.OnRound(k+1, len(rem))
	}
	if len(rem) == 0 {
		return nil
	}
	// Endgame (Theorem 4): by now every straggler's threshold is huge
	// (probability ≤ 1/min{m,n} that any exists).
	if n <= ins.M {
		// n ≤ m: run stragglers one at a time on all machines.
		for _, j := range rem {
			if _, err := w.SoloAll(j); err != nil {
				return err
			}
		}
		return nil
	}
	// m < n: repeat the round-K schedule until the stragglers finish.
	// Every straggler is covered: it was uncompleted when round K was
	// built, so the round-K assignment gives it mass ≥ L_K per pass.
	_, err := w.RepeatOblivious(lastRound.Schedule, maxPasses)
	return err
}

// Layered schedules a general layered DAG level by level: each layer of the
// longest-path layering is a set of independent jobs (no edges inside a
// layer), eligible as soon as all earlier layers finish. MapReduce's
// complete-bipartite dependencies (paper introduction) are the canonical
// two-layer case. The approximation factor multiplies SEM's by the number
// of layers.
type Layered struct {
	// Inner completes each layer; defaults to SEM with its own cache.
	Inner SubsetRunner

	defOnce  sync.Once
	defInner *SEM
}

// Name implements sim.Policy.
func (l *Layered) Name() string {
	if l.Inner != nil {
		return "layered+" + l.Inner.Name()
	}
	return "layered+suu-i-sem"
}

// Run completes all jobs layer by layer.
func (l *Layered) Run(w *sim.World) error {
	inner := l.Inner
	if inner == nil {
		// Built once, not per trial, so the default SEM's cache and solver
		// workspaces are shared across the whole Monte Carlo run.
		l.defOnce.Do(func() { l.defInner = &SEM{Cache: rounding.NewCache()} })
		inner = l.defInner
	}
	ins := w.Instance()
	if ins.Prec == nil {
		return inner.RunOnSubset(w, w.Remaining())
	}
	layers, err := ins.Prec.Layers()
	if err != nil {
		return err
	}
	for _, layer := range layers {
		if err := inner.RunOnSubset(w, layer); err != nil {
			return err
		}
	}
	if !w.AllDone() {
		return fmt.Errorf("core: layered left %d jobs uncompleted", w.NumRemaining())
	}
	return nil
}
