// Package sim is the SUU execution engine. It implements the SUU*
// reformulation of Appendix A: each job j owns a hidden threshold
// −log₂ r_j with r_j ~ U(0,1), and completes at the first step where its
// accrued log mass reaches the threshold. Theorem 10 proves this induces
// exactly the same distribution over execution histories as per-step
// Bernoulli failures, so policies simulated here have exactly the expected
// makespan of the original SUU process. A per-step coin-flip mode is also
// provided as an independent reference for equivalence tests.
//
// The engine exposes step-level execution (Step, StepMulti for flattened
// supersteps) plus analytic fast-forwarding of oblivious schedules
// (RunOblivious, RepeatOblivious), which lets Monte Carlo runs skip the
// step loops entirely in threshold mode.
//
// # Performance
//
// The step loop is the hot path of every number the repo produces, so the
// World is built to execute with zero steady-state allocations:
//
//   - All per-execution state (thresholds, accruals, completion flags,
//     indegree counters) and all per-step scratch (the touched-job list,
//     coin-mode survival products, interval buffers for oblivious passes)
//     are buffers owned by the World and reused across steps.
//   - Reset rewinds a World to the start of a fresh execution without
//     reallocating anything, so Monte Carlo workers keep one World each
//     and recycle it across trials (see MonteCarlo).
//   - The Monte Carlo RNG is internal/rng's SplitMix64: reseeding it for
//     trial i is a single word write, replacing the per-trial
//     rand.NewSource (~4.9 KB each) the engine used to allocate.
//
// The pooling contract: a World handed to Policy.Run may be recycled for
// a later trial the moment Run returns. Policies must not retain the World,
// its Rng, or any slice returned by its methods (Step/StepMulti completion
// lists, Remaining, EligibleJobs) beyond the Run call; slices returned by
// Step and StepMulti are additionally invalidated by the next step. The
// allocation-free variants AppendRemaining/AppendEligible let step-loop
// policies reuse their own buffers too.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/model"
)

// Mode selects how job completions are decided.
type Mode int

const (
	// Threshold is the SUU* view: hidden thresholds, deterministic
	// completion once accrued mass crosses them.
	Threshold Mode = iota
	// Coin is the original SUU view: an independent Bernoulli failure per
	// job per step. Slower (no fast-forward); used for cross-validation.
	Coin
)

// completion tolerance: accrued mass within this of the threshold counts as
// crossed. Thresholds are ≤ 64 and rates ≤ 64, so absolute tolerance is safe.
const massEps = 1e-9

// World is one execution of an SUU instance. It tracks hidden completion
// state, the clock, precedence eligibility, and the makespan (time of the
// last completion). A World is not safe for concurrent use; Monte Carlo
// runs use one World per goroutine, recycled across trials via Reset.
type World struct {
	ins  *model.Instance
	mode Mode
	rng  *rand.Rand

	thr       []float64 // threshold mode: −log₂ r_j (clamped to LogFailCap)
	acc       []float64 // accrued log mass
	done      []bool
	remaining int
	predsLeft []int

	clock    int64
	lastDone int64

	// Per-step scratch, reused across steps. touched lists the jobs worked
	// this step; touchEpoch[j] == epoch marks membership without clearing
	// an array per step. survival[j] is the coin-mode product of q_ij over
	// the machines working j this step.
	touched    []int
	touchEpoch []uint32
	epoch      uint32
	survival   []float64
	completed  []int

	// Oblivious fast-forward scratch: per-job interval windows of one
	// flat arena and their counts, the list of jobs holding intervals
	// this pass, and the event-sweep buffer.
	jobIvs  [][]interval
	ivCount []int32
	ivArena []interval
	ivJobs  []int
	events  []rateEvent

	soloAssign []int // SoloAll's expanded-step assignment buffer

	tracer *Trace // optional step-resolution recorder (disables fast-forward)
}

// NewWorld returns a threshold-mode world with thresholds drawn from rng.
func NewWorld(ins *model.Instance, rng *rand.Rand) *World {
	w := newWorld(ins, Threshold)
	w.Reset(rng)
	return w
}

// NewCoinWorld returns a coin-flip-mode world (per-step Bernoulli failures).
func NewCoinWorld(ins *model.Instance, rng *rand.Rand) *World {
	w := newWorld(ins, Coin)
	w.Reset(rng)
	return w
}

// NewWorldWithThresholds returns a threshold-mode world with the given
// −log₂ r_j values; it makes executions fully deterministic for tests.
func NewWorldWithThresholds(ins *model.Instance, thr []float64) (*World, error) {
	if len(thr) != ins.N {
		return nil, fmt.Errorf("sim: %d thresholds for %d jobs", len(thr), ins.N)
	}
	for j, v := range thr {
		if v <= 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("sim: threshold[%d] = %v must be positive", j, v)
		}
	}
	w := newWorld(ins, Threshold)
	w.Reset(rand.New(rand.NewSource(0)))
	copy(w.thr, thr)
	return w, nil
}

// newWorld allocates a world shell with every buffer sized for ins. The
// shell is not runnable until Reset draws its thresholds and zeroes state.
func newWorld(ins *model.Instance, mode Mode) *World {
	w := &World{
		ins:        ins,
		mode:       mode,
		acc:        make([]float64, ins.N),
		done:       make([]bool, ins.N),
		remaining:  ins.N,
		predsLeft:  make([]int, ins.N),
		touched:    make([]int, 0, ins.N),
		touchEpoch: make([]uint32, ins.N),
		completed:  make([]int, 0, ins.N),
	}
	switch mode {
	case Threshold:
		w.thr = make([]float64, ins.N)
	case Coin:
		w.survival = make([]float64, ins.N)
	}
	return w
}

// Reset rewinds w to the start of a fresh execution driven by rng, reusing
// every internal buffer: it zeroes the clock, accruals, and completion
// state, restores precedence indegrees, redraws thresholds from rng
// (threshold mode), and detaches any tracer. A Reset world is
// indistinguishable from a newly constructed one, which is what lets
// Monte Carlo workers recycle a single World across trials.
func (w *World) Reset(rng *rand.Rand) {
	w.rng = rng
	for j := range w.acc {
		w.acc[j] = 0
		w.done[j] = false
	}
	w.remaining = w.ins.N
	if w.ins.Prec != nil {
		for j := 0; j < w.ins.N; j++ {
			w.predsLeft[j] = w.ins.Prec.InDegree(j)
		}
	} else {
		for j := range w.predsLeft {
			w.predsLeft[j] = 0
		}
	}
	w.clock, w.lastDone = 0, 0
	if w.mode == Threshold {
		for j := range w.thr {
			w.thr[j] = drawThreshold(rng)
		}
	}
	w.tracer = nil
}

// drawThreshold samples −log₂ U clamped to the model cap. The clamp fires
// with probability 2^−64 and keeps the simulation finite.
func drawThreshold(rng *rand.Rand) float64 {
	u := rng.Float64()
	if u == 0 {
		return model.LogFailCap
	}
	t := -math.Log2(u)
	if t > model.LogFailCap {
		return model.LogFailCap
	}
	return t
}

// Instance returns the instance being executed.
func (w *World) Instance() *model.Instance { return w.ins }

// Rng returns the world's random source; policies use it for their own
// random choices (e.g. SUU-C's chain delays) so trials stay reproducible.
func (w *World) Rng() *rand.Rand { return w.rng }

// Clock returns the current time (steps executed so far).
func (w *World) Clock() int64 { return w.clock }

// AllDone reports whether every job has completed.
func (w *World) AllDone() bool { return w.remaining == 0 }

// NumRemaining returns the number of uncompleted jobs.
func (w *World) NumRemaining() int { return w.remaining }

// Done reports whether job j has completed.
func (w *World) Done(j int) bool { return w.done[j] }

// Eligible reports whether job j may be executed now: uncompleted with all
// predecessors complete.
func (w *World) Eligible(j int) bool { return !w.done[j] && w.predsLeft[j] == 0 }

// Remaining returns the uncompleted job ids in ascending order.
func (w *World) Remaining() []int {
	return w.AppendRemaining(make([]int, 0, w.remaining))
}

// AppendRemaining appends the uncompleted job ids in ascending order to
// buf and returns it; step-loop policies use it to avoid a per-step
// allocation.
func (w *World) AppendRemaining(buf []int) []int {
	for j := 0; j < w.ins.N; j++ {
		if !w.done[j] {
			buf = append(buf, j)
		}
	}
	return buf
}

// EligibleJobs returns the uncompleted jobs whose predecessors are all
// complete.
func (w *World) EligibleJobs() []int {
	return w.AppendEligible(nil)
}

// AppendEligible appends the eligible job ids in ascending order to buf
// and returns it.
func (w *World) AppendEligible(buf []int) []int {
	for j := 0; j < w.ins.N; j++ {
		if w.Eligible(j) {
			buf = append(buf, j)
		}
	}
	return buf
}

// LastCompletion returns the time of the most recent completion so far
// (0 if nothing has completed). Diagnostic; the makespan of a finished
// execution comes from Makespan.
func (w *World) LastCompletion() int64 { return w.lastDone }

// Makespan returns the completion time of the last job. It errors if jobs
// remain, since the makespan is then undefined.
func (w *World) Makespan() (int64, error) {
	if !w.AllDone() {
		return 0, fmt.Errorf("sim: makespan requested with %d jobs remaining", w.remaining)
	}
	return w.lastDone, nil
}

// markDone records job j completing at time t.
func (w *World) markDone(j int, t int64) {
	if w.done[j] {
		return
	}
	w.done[j] = true
	w.remaining--
	if t > w.lastDone {
		w.lastDone = t
	}
	if w.ins.Prec != nil {
		for _, s := range w.ins.Prec.Succs(j) {
			w.predsLeft[s]--
		}
	}
}

// checkRunnable errors unless job j may legally receive work now.
// Machines assigned to completed jobs idle (allowed by the schedule
// definition in Section 2); uncompleted jobs must be eligible.
func (w *World) checkRunnable(j int) error {
	if j < 0 || j >= w.ins.N {
		return fmt.Errorf("sim: job %d out of range [0,%d)", j, w.ins.N)
	}
	if !w.done[j] && w.predsLeft[j] > 0 {
		return fmt.Errorf("sim: job %d scheduled before its %d predecessors completed", j, w.predsLeft[j])
	}
	return nil
}

// beginStep starts a fresh touched-job set by bumping the epoch stamp;
// membership tests are then one array compare, with no per-step clearing.
func (w *World) beginStep() {
	w.epoch++
	if w.epoch == 0 { // stamp wrap after 2³²−1 steps: clear and restart
		for k := range w.touchEpoch {
			w.touchEpoch[k] = 0
		}
		w.epoch = 1
	}
	w.touched = w.touched[:0]
}

// touch records one machine-step of work on uncompleted job j: rate ell in
// threshold mode, survival factor q in coin mode.
func (w *World) touch(j int, ell, q float64) {
	if w.touchEpoch[j] != w.epoch {
		w.touchEpoch[j] = w.epoch
		w.touched = append(w.touched, j)
		if w.mode == Coin {
			w.survival[j] = 1
		}
	}
	switch w.mode {
	case Threshold:
		w.acc[j] += ell
	case Coin:
		w.survival[j] *= q
	}
}

// Step executes one timestep: assign[i] is the job machine i works on, or
// -1 to idle. It returns the jobs that completed during the step; the
// returned slice is scratch, valid only until the next step or Reset.
func (w *World) Step(assign []int) ([]int, error) {
	if len(assign) != w.ins.M {
		return nil, fmt.Errorf("sim: assignment for %d machines, want %d", len(assign), w.ins.M)
	}
	w.beginStep()
	for i, j := range assign {
		if j < 0 {
			continue
		}
		if err := w.checkRunnable(j); err != nil {
			return nil, err
		}
		if w.done[j] {
			continue
		}
		w.touch(j, w.ins.L[i][j], w.ins.Q[i][j])
	}
	w.traceStep(assign)
	w.clock++
	return w.settle(), nil
}

// StepMulti executes one flattened superstep of a pseudoschedule
// (Section 4): assign[i] lists the jobs machine i works on, one unit step
// each; the superstep costs max(1, max_i len(assign[i])) timesteps — its
// congestion. Completions are recorded at the end of the superstep. The
// returned slice is scratch, valid only until the next step or Reset.
func (w *World) StepMulti(assign [][]int) ([]int, error) {
	if len(assign) != w.ins.M {
		return nil, fmt.Errorf("sim: assignment for %d machines, want %d", len(assign), w.ins.M)
	}
	cost := int64(1)
	w.beginStep()
	for i, jobs := range assign {
		active := int64(0)
		for _, j := range jobs {
			if err := w.checkRunnable(j); err != nil {
				return nil, err
			}
			if w.done[j] {
				continue
			}
			active++
			w.touch(j, w.ins.L[i][j], w.ins.Q[i][j])
		}
		if active > cost {
			cost = active
		}
	}
	w.traceMulti(assign, cost)
	w.clock += cost
	return w.settle(), nil
}

// settle resolves completions among the touched jobs at the current clock.
// Jobs are settled in ascending id order, so coin-mode executions consume
// RNG draws in a canonical order and are reproducible for a fixed seed
// (the previous map-based scratch iterated in randomized map order).
func (w *World) settle() []int {
	slices.Sort(w.touched) // allocation-free on every supported toolchain
	completed := w.completed[:0]
	for _, j := range w.touched {
		switch w.mode {
		case Threshold:
			if w.acc[j]+massEps >= w.thr[j] {
				completed = append(completed, j)
			}
		case Coin:
			if w.rng.Float64() >= w.survival[j] {
				completed = append(completed, j)
			}
		}
	}
	for _, j := range completed {
		w.markDone(j, w.clock)
	}
	w.completed = completed
	return completed
}

// SoloAll runs every machine on job j until it completes and returns the
// number of steps used. It is the endgame of SUU-I-SEM when n ≤ m and the
// Sequential baseline's primitive.
func (w *World) SoloAll(j int) (int64, error) {
	if err := w.checkRunnable(j); err != nil {
		return 0, err
	}
	if w.done[j] {
		return 0, nil
	}
	rate := w.ins.TotalRate(j)
	if rate <= 0 {
		return 0, fmt.Errorf("sim: job %d has zero total rate", j)
	}
	if w.mode == Threshold && !w.expandForTrace() {
		need := w.thr[j] - w.acc[j]
		k := int64(math.Ceil((need - massEps) / rate))
		if k < 1 {
			k = 1
		}
		w.acc[j] = w.thr[j]
		w.clock += k
		w.markDone(j, w.clock)
		return k, nil
	}
	if w.soloAssign == nil {
		w.soloAssign = make([]int, w.ins.M)
	}
	assign := w.soloAssign
	for i := range assign {
		assign[i] = j
	}
	var steps int64
	for !w.done[j] {
		if _, err := w.Step(assign); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}
