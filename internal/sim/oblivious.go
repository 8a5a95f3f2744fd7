package sim

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// interval is one machine-run's contribution to a job: rate ℓ_ij over
// schedule-relative steps [start, end).
type interval struct {
	start, end int64
	rate       float64
}

// RunOblivious executes one pass of a finite oblivious schedule. In
// threshold mode it fast-forwards analytically (no step loop): each job's
// mass-accrual curve is a piecewise-linear function of time, and the
// completion step is the first integer crossing of the hidden threshold.
// In coin mode it expands to steps.
//
// Every uncompleted job appearing in the schedule must be eligible when the
// pass starts (true for all the paper's uses: independent-job rounds and
// per-job chain blocks). If all jobs in the world complete during the pass
// the clock stops at the last completion; otherwise it advances by the full
// schedule length, matching a scheduler that only reacts at round ends.
func (w *World) RunOblivious(o *sched.Oblivious) error {
	if o.M != w.ins.M {
		return fmt.Errorf("sim: schedule has %d machines, instance has %d", o.M, w.ins.M)
	}
	if w.mode == Coin || w.expandForTrace() {
		return w.runObliviousSteps(o)
	}
	if err := w.collectIntervals(o); err != nil {
		return err
	}
	start := w.clock
	var maxDone int64 = -1
	// Jobs in one pass are mutually precedence-independent (all were
	// eligible at the pass start), so completions can be marked inline.
	for _, j := range w.ivJobs {
		list := w.jobIvs[j]
		off, crossed, mass := w.crossingTime(list, w.thr[j]-w.acc[j])
		if crossed {
			w.acc[j] = w.thr[j]
			w.markDone(j, start+off)
			if start+off > maxDone {
				maxDone = start + off
			}
		} else {
			w.acc[j] += mass
		}
	}
	if w.AllDone() && maxDone >= 0 {
		w.clock = maxDone
	} else {
		w.clock = start + o.Length
	}
	return nil
}

// collectIntervals gathers, per uncompleted job, the (start, end, rate)
// contributions of every machine run, checking eligibility. Results land
// in w.jobIvs, whose per-job slices are windows of one flat arena reused
// across passes, each job's intervals in machine-major order; w.ivJobs
// lists the jobs that received intervals, in machine-major discovery
// order. A first pass counts each job's intervals, a second fills them.
func (w *World) collectIntervals(o *sched.Oblivious) error {
	if w.jobIvs == nil {
		w.jobIvs = make([][]interval, w.ins.N)
		w.ivCount = make([]int32, w.ins.N)
	}
	for _, j := range w.ivJobs {
		w.jobIvs[j] = nil
		w.ivCount[j] = 0
	}
	w.ivJobs = w.ivJobs[:0]
	total := 0
	for i, runs := range o.Runs {
		for _, r := range runs {
			if err := w.checkRunnable(r.Job); err != nil {
				return err
			}
			if w.contributes(i, r) {
				if w.ivCount[r.Job] == 0 {
					w.ivJobs = append(w.ivJobs, r.Job)
				}
				w.ivCount[r.Job]++
				total++
			}
		}
	}
	if cap(w.ivArena) < total {
		w.ivArena = make([]interval, total)
	}
	off := 0
	for _, j := range w.ivJobs {
		end := off + int(w.ivCount[j])
		w.jobIvs[j] = w.ivArena[off:off:end]
		off = end
	}
	for i, runs := range o.Runs {
		var t int64
		for _, r := range runs {
			if w.contributes(i, r) {
				w.jobIvs[r.Job] = append(w.jobIvs[r.Job], interval{t, t + r.Steps, w.ins.L[i][r.Job]})
			}
			t += r.Steps
		}
	}
	return nil
}

// contributes reports whether run r on machine i gives its job mass this
// pass: the job is uncompleted, the machine has a positive rate on it,
// and the run has steps.
func (w *World) contributes(i int, r sched.Run) bool {
	return !w.done[r.Job] && w.ins.L[i][r.Job] > 0 && r.Steps > 0
}

// crossingTime finds the first integer step at which the total mass of the
// (possibly overlapping) intervals reaches need. It returns the crossing
// step, whether it crossed, and the total mass of all intervals (used to
// update accrual when the job does not finish). The event sweep runs on
// w.events, reused across calls.
func (w *World) crossingTime(ivs []interval, need float64) (int64, bool, float64) {
	total := 0.0
	for _, iv := range ivs {
		total += iv.rate * float64(iv.end-iv.start)
	}
	if need <= massEps {
		// Already at threshold; completes at the end of the first step
		// that touches it (step boundary 1 at the earliest interval).
		first := ivs[0].start
		for _, iv := range ivs[1:] {
			if iv.start < first {
				first = iv.start
			}
		}
		return first + 1, true, total
	}
	if total+massEps < need {
		return 0, false, total
	}
	// Event sweep over piecewise-constant total rate.
	events := w.events[:0]
	for _, iv := range ivs {
		events = append(events, rateEvent{iv.start, iv.rate}, rateEvent{iv.end, -iv.rate})
	}
	w.events = events
	sortEvents(events)
	acc := 0.0
	rate := 0.0
	var prev int64
	for k := 0; k < len(events); {
		t := events[k].t
		if t > prev && rate > 0 {
			segMass := rate * float64(t-prev)
			if acc+segMass+massEps >= need {
				steps := int64(math.Ceil((need - acc - massEps) / rate))
				if steps < 1 {
					steps = 1
				}
				if steps > t-prev {
					steps = t - prev
				}
				return prev + steps, true, total
			}
			acc += segMass
		}
		if t > prev {
			prev = t
		}
		for k < len(events) && events[k].t == t {
			rate += events[k].dr
			k++
		}
	}
	// Numerically we said total ≥ need but the sweep missed; complete at
	// the final event (defensive against float drift).
	return prev, true, total
}

// rateEvent is a change of total accrual rate at schedule-relative time t.
type rateEvent struct {
	t  int64
	dr float64
}

// sortEvents orders rate events by time. Lists are short (two per machine
// run touching the job), so insertion sort wins over sort.Slice here.
func sortEvents(events []rateEvent) {
	for i := 1; i < len(events); i++ {
		for k := i; k > 0 && events[k].t < events[k-1].t; k-- {
			events[k], events[k-1] = events[k-1], events[k]
		}
	}
}

// runObliviousSteps expands the schedule into unit steps (coin mode).
func (w *World) runObliviousSteps(o *sched.Oblivious) error {
	steps := o.StepAssignments()
	for _, assign := range steps {
		if _, err := w.Step(assign); err != nil {
			return err
		}
		if w.AllDone() {
			return nil
		}
	}
	return nil
}

// RepeatOblivious repeats a finite oblivious schedule until every
// uncompleted job appearing in it completes, as SUU-I-OBL, the m<n endgame
// of SUU-I-SEM, and SUU-C's long-job batches do. Jobs not in the schedule
// are untouched. Threshold mode computes the number of passes analytically
// per job: each pass adds a fixed mass, so the completing pass is
// ⌈need/massPerPass⌉ and the within-pass offset is a crossing search.
// Returns the number of passes the longest-running job needed.
func (w *World) RepeatOblivious(o *sched.Oblivious, maxPasses int64) (int64, error) {
	if maxPasses <= 0 {
		return 0, fmt.Errorf("sim: maxPasses = %d", maxPasses)
	}
	if w.mode == Coin || w.expandForTrace() {
		var p int64
		for {
			left := false
			for _, j := range o.Jobs() {
				if !w.done[j] {
					left = true
					break
				}
			}
			if !left {
				return p, nil
			}
			if p >= maxPasses {
				return p, fmt.Errorf("sim: %d passes without completing scheduled jobs", p)
			}
			if err := w.runObliviousSteps(o); err != nil {
				return p, err
			}
			p++
		}
	}
	if err := w.collectIntervals(o); err != nil {
		return 0, err
	}
	// Every uncompleted scheduled job must receive positive mass per pass,
	// or the repetition would never terminate.
	for _, j := range o.Jobs() {
		if !w.done[j] && len(w.jobIvs[j]) == 0 {
			return 0, fmt.Errorf("sim: schedule gives no mass to uncompleted job %d", j)
		}
	}
	start := w.clock
	var maxOffset, passes int64
	for _, j := range w.ivJobs {
		list := w.jobIvs[j]
		perPass := 0.0
		for _, iv := range list {
			perPass += iv.rate * float64(iv.end-iv.start)
		}
		need := w.thr[j] - w.acc[j]
		if need <= massEps {
			need = massEps // completes in the first touching step
		}
		p := int64(math.Ceil((need - massEps) / perPass))
		if p < 1 {
			p = 1
		}
		if p > maxPasses {
			return p, fmt.Errorf("sim: job %d needs %d passes, cap %d", j, p, maxPasses)
		}
		residual := need - float64(p-1)*perPass
		off, crossed, _ := w.crossingTime(list, residual)
		if !crossed {
			// Float drift at the pass boundary: finish at pass end.
			off = o.Length
		}
		at := start + (p-1)*o.Length + off
		w.acc[j] = w.thr[j]
		w.markDone(j, at)
		if at-start > maxOffset {
			maxOffset = at - start
		}
		if p > passes {
			passes = p
		}
	}
	w.clock = start + maxOffset
	return passes, nil
}
