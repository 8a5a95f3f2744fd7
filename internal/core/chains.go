package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Chains is SUU-C (Section 4), the O(log(n+m)·loglog min{m,n})-approximation
// for precedence constraints forming disjoint chains. The construction:
//
//  1. Round (LP2) (Lemma 6) into an integral assignment {x̂_ij} whose load
//     and chain lengths are O(t*) = O(E[T_OPT]), with job lengths
//     d_j = max_i x̂_ij.
//  2. Call a job long if d_j > γ = t*/log₂(n+m), short otherwise. Each
//     chain becomes an adaptive schedule Σ_k: run the next uncompleted
//     short job's assignment as an oblivious block of d_j supersteps,
//     retrying the block until the job completes; replace each long job by
//     a pause of γ supersteps.
//  3. Run all Σ_k in parallel as a pseudoschedule, delaying each chain's
//     start uniformly from {0,…,H} (H = load) — the random-delay technique
//     of Theorem 7 keeps congestion O(log(n+m)/loglog(n+m)) whp.
//  4. Flatten each superstep at cost equal to its congestion (StepMulti).
//  5. Split the timeline into segments of γ supersteps; after each
//     segment, suspend the chains and finish that segment's paused long
//     jobs with one SUU-I-SEM batch (they are mutually independent).
//
// Plugging OBL in as the long-job runner instead of SEM yields the
// Lin–Rajaraman-style baseline with an extra Θ(log n / loglog n) factor.
type Chains struct {
	// LP1Cache memoizes the LP1 roundings of the long-job batches.
	LP1Cache *rounding.Cache
	// LP2Cache memoizes the LP2 rounding, one per chain set (SUU-T: one
	// per decomposition block).
	LP2Cache *rounding.LP2Cache
	// LongJobs finishes each segment's long-job batch; nil means SEM
	// (the paper's choice).
	LongJobs SubsetRunner
	// NoDelay disables the random chain delays (Theorem 7 ablation).
	NoDelay bool
	// Quantize enables the nonpolynomial-t trick from Section 4: block
	// assignments are rounded down to multiples of t*/(nm) and the lost
	// steps are reinserted as solo steps. Off by default — the simulator
	// draws delays directly, so polynomiality of the delay range is not
	// needed; the option exists to exercise the paper's construction.
	Quantize bool
	// MaxSupersteps guards against runaway executions (0 = default cap).
	MaxSupersteps int64
	// OnStats, if set, receives execution statistics after every
	// RunChains call. It must be safe for concurrent use (Monte Carlo
	// trials share the policy value).
	OnStats func(ChainsStats)

	// pool hands each concurrent RunChains a solver workspace for its
	// (cached, once per instance and chain set) LP2 rounding.
	pool rounding.WorkspacePool
	// defLong is the lazily-built default long-job runner; sharing one SEM
	// across trials keeps its cache and solver workspaces warm.
	defOnce sync.Once
	defLong *SEM
}

// ChainsStats describes one RunChains execution; the congestion figures
// quantify Theorem 7 (random delays keep congestion low).
type ChainsStats struct {
	Supersteps    int64 // pseudoschedule supersteps executed
	MaxCongestion int64 // max jobs per machine in any superstep
	SumCongestion int64 // Σ max(1, congestion): flattened timeline length
	LongJobs      int   // jobs classified long (d_j > γ)
	Batches       int   // long-job batches run
	Gamma         int64 // the long/short threshold γ
	Load          int64 // H, the rounded assignment's load
}

// Name implements sim.Policy.
func (c *Chains) Name() string {
	n := "suu-c"
	if c.LongJobs != nil {
		n += "+" + c.LongJobs.Name()
	}
	if c.NoDelay {
		n += "-nodelay"
	}
	if c.Quantize {
		n += "-quantized"
	}
	return n
}

// Run completes an instance whose precedence class is chains (or
// independent, which is a degenerate chain instance).
func (c *Chains) Run(w *sim.World) error {
	chains, err := w.Instance().Chains()
	if err != nil {
		return fmt.Errorf("core: %s: %w", c.Name(), err)
	}
	return c.RunChains(w, chains)
}

// chain execution modes.
const (
	modeNone = iota // between jobs; needs a decision
	modeBlock
	modePause
	modeChainDone
)

// chainState is one Σ_k's progress through its chain.
type chainState struct {
	jobs        []int
	pos         int
	delay       int64
	mode        int
	job         int
	off, length int64
}

// RunChains runs the SUU-C machinery over an explicit set of disjoint
// chains. All chain jobs must be uncompleted and their outside-chain
// predecessors complete. SUU-T calls it once per decomposition block; the
// block's LP2 is solved cold, so its rounding depends only on the chains.
func (c *Chains) RunChains(w *sim.World, chains []dag.Chain) error {
	if len(chains) == 0 {
		return nil
	}
	ins := w.Instance()
	ws := c.pool.Get()
	r, err := c.LP2Cache.RoundLP2Ws(ws, ins, chains)
	c.pool.Put(ws)
	if err != nil {
		return err
	}
	longRunner := c.LongJobs
	if longRunner == nil {
		c.defOnce.Do(func() { c.defLong = &SEM{Cache: c.LP1Cache} })
		longRunner = c.defLong
	}

	// γ = t̂/log₂(n+m) (at least 1); jobs with rounded length d̂_j > γ are
	// long. The scale t̂ is the rounded schedule's, max(⌈6t*⌉, load):
	// rounded job lengths carry Lemma 6's 6× inflation, so comparing them
	// against the fractional t* would misclassify nearly everything as
	// long and starve the chain machinery.
	that := int64(math.Ceil(6 * r.TFrac))
	if r.Load > that {
		that = r.Load
	}
	gamma := that / int64(math.Ceil(math.Log2(float64(ins.N+ins.M))))
	if gamma < 1 {
		gamma = 1
	}
	x, lost := c.quantized(ins, r)
	var st8s ChainsStats
	st8s.Gamma = gamma
	st8s.Load = r.Load
	dHat := make([]int64, ins.N)
	long := make([]bool, ins.N)
	for _, ch := range chains {
		for _, j := range ch {
			dHat[j] = x.JobLength(j)
			if dHat[j] < 1 {
				dHat[j] = 1
			}
			long[j] = r.JobLength[j] > gamma
			if long[j] {
				st8s.LongJobs++
			}
		}
	}

	// Random chain delays from {0,…,H} (Theorem 7).
	h := r.Load
	states := make([]chainState, len(chains))
	for k, ch := range chains {
		states[k] = chainState{jobs: ch, job: -1}
		if !c.NoDelay && h > 0 {
			states[k].delay = w.Rng().Int63n(h + 1)
		}
	}

	maxSS := c.MaxSupersteps
	if maxSS <= 0 {
		maxSS = 20_000_000
	}
	pending := make(map[int64][]int) // segment -> long jobs paused in it
	assign := make([][]int, ins.M)
	for superstep := int64(0); ; superstep++ {
		if superstep > maxSS {
			return fmt.Errorf("core: %s exceeded %d supersteps", c.Name(), maxSS)
		}
		anyActive := false
		for k := range states {
			if err := c.resolve(w, &states[k], dHat, long, lost, gamma, pending, superstep); err != nil {
				return err
			}
			if states[k].mode != modeChainDone {
				anyActive = true
			}
		}
		if !anyActive {
			break
		}
		// Collect the pseudoschedule's superstep: machine i works every
		// in-block job whose assignment still covers this offset.
		for i := range assign {
			assign[i] = assign[i][:0]
		}
		for k := range states {
			st := &states[k]
			if st.delay > 0 || st.mode != modeBlock || w.Done(st.job) {
				continue
			}
			for i := 0; i < ins.M; i++ {
				if x.X[i][st.job] > st.off {
					assign[i] = append(assign[i], st.job)
				}
			}
		}
		cong := int64(0)
		for i := range assign {
			if int64(len(assign[i])) > cong {
				cong = int64(len(assign[i]))
			}
		}
		if cong > st8s.MaxCongestion {
			st8s.MaxCongestion = cong
		}
		if cong < 1 {
			cong = 1
		}
		st8s.SumCongestion += cong
		st8s.Supersteps++
		if _, err := w.StepMulti(assign); err != nil {
			return err
		}
		for k := range states {
			st := &states[k]
			switch {
			case st.mode == modeChainDone:
			case st.delay > 0:
				st.delay--
			case st.mode == modeBlock || st.mode == modePause:
				st.off++
			}
		}
		// Segment boundary: batch-complete the long jobs whose pauses
		// started in the segment that just ended.
		if (superstep+1)%gamma == 0 {
			seg := superstep / gamma
			if batch := remainingOf(w, pending[seg]); len(batch) > 0 {
				st8s.Batches++
				if err := longRunner.RunOnSubset(w, batch); err != nil {
					return err
				}
			}
			delete(pending, seg)
		}
	}
	if c.OnStats != nil {
		c.OnStats(st8s)
	}
	return nil
}

// resolve advances a chain's state machine through any finished blocks and
// pauses, starting the next block or pause as needed. Pauses are recorded
// in pending under the segment in which they start.
func (c *Chains) resolve(w *sim.World, st *chainState, dHat []int64, long []bool, lost *sched.Assignment, gamma int64, pending map[int64][]int, superstep int64) error {
	if st.mode == modeChainDone || st.delay > 0 {
		return nil
	}
	for {
		switch st.mode {
		case modeBlock:
			if st.off < st.length {
				return nil
			}
			// Block finished. Reinsert quantization-lost steps (solo),
			// then retry the same job if it still failed.
			if !w.Done(st.job) && lost != nil {
				if err := c.reinsert(w, st.job, lost); err != nil {
					return err
				}
			}
			if !w.Done(st.job) {
				st.off = 0
				return nil
			}
			st.pos++
			st.mode = modeNone
		case modePause:
			if st.off < st.length {
				return nil
			}
			if !w.Done(st.job) {
				return fmt.Errorf("core: long job %d not completed when its pause ended", st.job)
			}
			st.pos++
			st.mode = modeNone
		case modeNone:
			for st.pos < len(st.jobs) && w.Done(st.jobs[st.pos]) {
				st.pos++
			}
			if st.pos >= len(st.jobs) {
				st.mode = modeChainDone
				return nil
			}
			j := st.jobs[st.pos]
			if long[j] {
				st.mode, st.job, st.off, st.length = modePause, j, 0, gamma
				seg := superstep / gamma
				pending[seg] = append(pending[seg], j)
			} else {
				st.mode, st.job, st.off, st.length = modeBlock, j, 0, dHat[j]
			}
			return nil
		default:
			return fmt.Errorf("core: invalid chain mode %d", st.mode)
		}
	}
}

// quantized applies the Section 4 nonpolynomial-t trick when enabled:
// assignments are rounded down to multiples of q = t*/(nm) and the
// remainder is reinserted as solo steps after each block. It returns the
// assignment to execute and the per-pair lost steps (nil when disabled or
// when the quantum is below 1 step).
func (c *Chains) quantized(ins *model.Instance, r *rounding.LP2Result) (*sched.Assignment, *sched.Assignment) {
	if !c.Quantize {
		return r.Assignment, nil
	}
	m, n := ins.M, ins.N
	q := int64(r.TFrac) / int64(n*m)
	if q <= 1 {
		return r.Assignment, nil
	}
	x := sched.NewAssignment(m, n)
	lost := sched.NewAssignment(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := r.Assignment.X[i][j]
			x.X[i][j] = v / q * q
			lost.X[i][j] = v - x.X[i][j]
		}
	}
	return x, lost
}

// reinsert executes the quantization-lost steps of job j as solo
// supersteps: every other chain is suspended while only j runs, exactly
// the paper's "reinsert steps executing only job j".
func (c *Chains) reinsert(w *sim.World, j int, lost *sched.Assignment) error {
	maxLost := int64(0)
	for i := 0; i < lost.M; i++ {
		if lost.X[i][j] > maxLost {
			maxLost = lost.X[i][j]
		}
	}
	assign := make([][]int, lost.M)
	for s := int64(0); s < maxLost && !w.Done(j); s++ {
		for i := range assign {
			assign[i] = nil
			if lost.X[i][j] > s {
				assign[i] = []int{j}
			}
		}
		if _, err := w.StepMulti(assign); err != nil {
			return err
		}
	}
	return nil
}
