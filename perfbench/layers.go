package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// Layout of a traced run of S seconds: the in-process replay's three
// passes share inprocShare of S; the live traced and untraced suud runs
// take liveShare each.
const (
	inprocShare = 0.4
	liveShare   = 0.25
	// layerSample bounds how many instances the lp, rounding, sim and store
	// layers are timed on when the replayed prefix has none of its own.
	layerSample   = 8
	trialWorkers  = 2  // suud's -trial-workers default
	progressChunk = 64 // the planner's default Monte Carlo chunk
)

// runLayers is the traced run: it replays the workload's window sequence
// in-process and times the calls into each layer, then runs a live suud
// with every request traced and one without to split the client's latency
// into wire, stages and the unattributed rest.
func runLayers(cfg *config) (*result, error) {
	s, err := newSuite(cfg.def, cfg.seed)
	if err != nil {
		return nil, err
	}
	run := time.Duration(cfg.seconds) * time.Second
	reqs, err := s.phase(phaseWindow, cfg.def.rate, time.Duration(float64(run)*windowShare))
	if err != nil {
		return nil, err
	}
	t := &tally{}
	m := map[string]metric{}
	if err := inProcess(cfg, s, reqs, time.Duration(float64(run)*inprocShare), m, t); err != nil {
		return nil, err
	}
	if err := live(cfg, s, time.Duration(float64(run)*liveShare), m, t); err != nil {
		return nil, err
	}
	if err := cfg.keeper.check(); err != nil {
		return nil, err
	}
	cfg.note("keeper_alive", true)
	cfg.failures = t.failures
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// stack is a planner and HTTP server built with suud's configuration: one
// worker at GOMAXPROCS=1, a mem tier over a disk store on a fresh
// directory, tracing off.
type stack struct {
	planner *service.Planner
	server  *service.Server
	disk    *store.Disk
	dir     string
}

func newStack(workdir string) (*stack, error) {
	dir, err := os.MkdirTemp(workdir, "inproc-store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.Open(dir, store.DiskConfig{Fsync: store.FsyncInterval})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	p := service.NewPlanner(service.Config{
		QueueDepth:   suudQueue,
		TrialWorkers: trialWorkers,
		Store:        store.NewTiered(store.NewMem(64<<20, 0), disk),
	})
	if err := p.Warmup(); err != nil {
		p.Close()
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &stack{planner: p, server: service.NewServer(p), disk: disk, dir: dir}, nil
}

func (st *stack) close() {
	st.planner.Close()
	st.disk.Close()
	os.RemoveAll(st.dir)
}

// serve runs one request through the HTTP handler, without a socket.
func (st *stack) serve(path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	st.server.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// plannerCall decodes a request for the planner's public API and returns
// the call, which answers with the response body as the HTTP layer would
// encode it.
func (st *stack) plannerCall(def *workloadDef, req request) (func() (any, error), error) {
	ctx := context.Background()
	switch def.path {
	case "/v1/plan/batch":
		var br service.BatchPlanRequest
		err := json.Unmarshal(req.body, &br)
		return func() (any, error) { return st.planner.PlanBatch(ctx, &br) }, err
	default:
		var er service.EstimateRequest
		err := json.Unmarshal(req.body, &er)
		return func() (any, error) { return st.planner.Estimate(ctx, &er, nil) }, err
	}
}

// callPlanner runs one request through the planner's public API, timing
// only the call, and checks the answer.
func (st *stack) callPlanner(def *workloadDef, req request, w *stopwatch) error {
	call, err := st.plannerCall(def, req)
	if err != nil {
		return err
	}
	var resp any
	w.timed(func() { resp, err = call() })
	if err != nil {
		return err
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	return verify(def, req, http.StatusOK, body)
}

// stopwatch accumulates the durations and count of one timed call.
type stopwatch struct {
	total time.Duration
	n     int
}

// timed runs f, adds its duration to w and returns it.
func (w *stopwatch) timed(f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	w.total += d
	w.n++
	return d
}

func (w *stopwatch) meanMS() float64 { return msOf(w.total) / float64(max(w.n, 1)) }
func (w *stopwatch) meanUS() float64 { return w.meanMS() * 1000 }

// inProcess replays a prefix of the window sequence serially in three
// passes, each on the same prefix: through Server.ServeHTTP on one stack,
// through the planner's public API on a second, and through the lp,
// rounding, sim, sched and store layers directly.
func inProcess(cfg *config, s *suite, reqs []request, budget time.Duration, m map[string]metric, t *tally) error {
	def := cfg.def
	prime := s.serial(phasePrime)
	a, err := newStack(cfg.workdir)
	if err != nil {
		return err
	}
	defer a.close()
	b, err := newStack(cfg.workdir)
	if err != nil {
		return err
	}
	defer b.close()
	for _, req := range prime {
		status, body := a.serve(def.path, req.body)
		t.add(verify(def, req, status, body))
		t.add(b.callPlanner(def, req, &stopwatch{}))
	}

	// Pass 1: the HTTP handler. The prefix is as long as fits in a third
	// of the budget; the other passes replay the same prefix.
	var handler stopwatch
	bodies := make([][]byte, 0, len(reqs))
	statuses := make([]int, 0, len(reqs))
	met0 := a.planner.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(budget / 3)
	for _, req := range reqs {
		var status int
		var body []byte
		handler.timed(func() { status, body = a.serve(def.path, req.body) })
		statuses, bodies = append(statuses, status), append(bodies, body)
		if time.Now().After(deadline) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	met1 := a.planner.Metrics()
	prefix := reqs[:len(bodies)]
	items := 0
	for i, req := range prefix {
		t.add(verify(def, req, statuses[i], bodies[i]))
		items += len(req.items)
	}

	// Pass 2: the planner's public API, each call followed by the layer
	// calls for the work it contained (its fresh plans' rounding, its
	// estimate's Monte Carlo), so planner_us subtracts work timed under
	// the same conditions. It is the median over requests: a request's
	// own time is the difference of two timings of tens of milliseconds
	// on batch-mixed, which one collection in either would swamp.
	var planner, fp stopwatch
	var self []float64 // µs per item
	lt := newLayerTimer()
	for _, req := range prefix {
		before := planner.total
		t.add(b.callPlanner(def, req, &planner))
		own := planner.total - before
		for _, it := range req.items {
			fp.timed(func() { _ = sched.FingerprintInstance(it.ins) })
			if def.path == "/v1/estimate" || it.spec < 0 {
				d, err := lt.compute(it, def.path == "/v1/estimate")
				t.add(err)
				own -= d
			}
		}
		self = append(self, float64(own.Nanoseconds())/1e3/float64(len(req.items)))
	}

	// Pass 3: the layers the prefix did not exercise are timed on a sample
	// of the workload's instances of the same shape.
	if lt.lp1.n == 0 {
		for _, it := range s.catalog[:min(layerSample, len(s.catalog))] {
			_, err := lt.compute(it, false)
			t.add(err)
		}
	}
	for k := int64(0); lt.lp2.n < layerSample/2; k++ {
		it, err := s.fresh("chains", phaseTraced, k)
		if err != nil {
			return err
		}
		_, err = lt.compute(it, false)
		t.add(err)
	}
	for k, it := range s.catalog[:min(layerSample/2, len(s.catalog))] {
		if lt.mc.n >= layerSample/2 {
			break
		}
		it.seed = subSeed(s.seed, 3, phaseTraced, int64(k))
		_, err := lt.compute(it, true)
		t.add(err)
	}

	// The store layer, on frames of the workload's own replayed responses.
	frames := bodies[:min(len(bodies), 64)]
	put, get, putBytes, err := timeStore(cfg.workdir, frames, t)
	if err != nil {
		return err
	}

	hits := float64(met1.CacheHits - met0.CacheHits)
	misses := float64(met1.CacheMisses - met0.CacheMisses)
	computed := misses - float64(met1.Coalesced-met0.Coalesced)
	n := float64(max(items, 1))
	cfg.note("replayed_requests", len(prefix))
	cfg.note("replayed_items", items)

	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("lp.solve_ms", lt.solve.meanMS(), "ms")
	set("lp.pivots_per_solve", float64(lt.pivots)/float64(max(lt.solve.n, 1)), "count")
	set("rounding.lp1_ms", lt.lp1.meanMS(), "ms")
	set("rounding.lp2_ms", lt.lp2.meanMS(), "ms")
	set("rounding.self_ms", lt.lp1.meanMS()-lt.solve.meanMS(), "ms")
	set("sim.mc_ms", lt.mc.meanMS(), "ms")
	set("sim.trial_us", lt.mc.meanUS()/estTrials, "us")
	set("sched.fingerprint_us", fp.meanUS(), "us")
	set("service.handler_us", handler.meanUS(), "us")
	set("service.planner_us", median(self), "us")
	set("service.allocs_per_item", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	set("service.bytes_per_item", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B")
	set("service.hit_ratio", hits/math.Max(hits+misses, 1), "ratio")
	set("service.computed_per_item", computed/n, "ratio")
	set("store.put_us", put.meanUS(), "us")
	set("store.get_us", get.meanUS(), "us")
	set("store.bytes_per_put", putBytes, "B")
	return nil
}

// layerTimer times the calls the planner makes into the lp, rounding and
// sim layers, on workspaces reused the way the planner's pool reuses
// them: one per LP, so each stays sized for its own kind.
type layerTimer struct {
	ws1, ws2            *rounding.Workspace
	solve, lp1, lp2, mc stopwatch
	pivots              int
}

func newLayerTimer() *layerTimer {
	return &layerTimer{ws1: rounding.NewWorkspace(), ws2: rounding.NewWorkspace()}
}

// compute runs the item's computation through the layers and returns the
// part the planner would have spent in them: the estimate's Monte Carlo,
// or the plan's LP solve and rounding (RoundLP1Ws or RoundLP2Ws). For
// independent jobs it also times the bare rounding.SolveLP1 and counts
// the simplex pivots, outside the returned duration.
func (lt *layerTimer) compute(it item, estimate bool) (time.Duration, error) {
	var err error
	switch {
	case estimate:
		return lt.mc.timed(func() { err = monteCarloChunked(it) }), err
	case it.ins.Prec != nil:
		chains, err := it.ins.Chains()
		if err != nil {
			return 0, err
		}
		return lt.lp2.timed(func() {
			lt.ws2.BeginLP2()
			_, err = (*rounding.LP2Cache)(nil).RoundLP2Ws(lt.ws2, it.ins, chains)
		}), err
	}
	all := allJobs(it.ins.N)
	d := lt.lp1.timed(func() {
		lt.ws1.Begin()
		_, err = (*rounding.Cache)(nil).RoundLP1Ws(lt.ws1, it.ins, all, 0.5)
	})
	if err != nil {
		return d, err
	}
	var tstar float64
	lt.solve.timed(func() { _, tstar, err = rounding.SolveLP1(it.ins, all, 0.5) })
	if err != nil {
		return d, err
	}
	iters, err := lp1Pivots(it, tstar)
	lt.pivots += iters
	return d, err
}

// monteCarloChunked runs an estimate's trials the way the planner does:
// one SEM policy per computation, in chunks of progressChunk trials.
func monteCarloChunked(it item) error {
	pol := &core.SEM{Cache: rounding.NewCache()}
	for done := 0; done < estTrials; done += progressChunk {
		if _, err := sim.MonteCarlo(it.ins, pol, min(progressChunk, estTrials-done), it.seed+int64(done), trialWorkers); err != nil {
			return err
		}
	}
	return nil
}

func allJobs(n int) []int {
	jobs := make([]int, n)
	for j := range jobs {
		jobs[j] = j
	}
	return jobs
}

// lp1Pivots solves LP1(J, 1/2) of the item directly on the sparse simplex,
// whose public Solution reports its pivots, and checks its optimum
// against rounding.SolveLP1's t*.
func lp1Pivots(it item, tstar float64) (int, error) {
	ins := it.ins
	k, mm := ins.N, ins.M
	p := lp.NewProblem(mm*k + 1)
	p.C[mm*k] = 1
	for j := 0; j < k; j++ {
		var terms []lp.Term
		for i := 0; i < mm; i++ {
			if l := math.Min(ins.L[i][j], 0.5); l > 0 {
				terms = append(terms, lp.Term{Var: i*k + j, Coef: l})
			}
		}
		p.AddConstraint(terms, lp.GE, 0.5)
	}
	for i := 0; i < mm; i++ {
		terms := make([]lp.Term, 0, k+1)
		for j := 0; j < k; j++ {
			terms = append(terms, lp.Term{Var: i*k + j, Coef: 1})
		}
		p.AddConstraint(append(terms, lp.Term{Var: mm * k, Coef: -1}), lp.LE, 0)
	}
	sol, err := lp.NewSolver().Solve(p)
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal || math.Abs(sol.Obj-tstar) > 1e-6*math.Max(1, tstar) {
		return 0, fmt.Errorf("LP1 %s: simplex %v obj %v, SolveLP1 t* %v", it.fp, sol.Status, sol.Obj, tstar)
	}
	return sol.Iters, nil
}

// timeStore writes every frame to a fresh disk store, then reads each
// back and checks the bytes.
func timeStore(workdir string, frames [][]byte, t *tally) (put, get stopwatch, bytesPerPut float64, err error) {
	dir, err := os.MkdirTemp(workdir, "layer-store-")
	if err != nil {
		return put, get, 0, err
	}
	defer os.RemoveAll(dir)
	d, err := store.Open(dir, store.DiskConfig{Fsync: store.FsyncInterval})
	if err != nil {
		return put, get, 0, err
	}
	defer d.Close()
	ctx := context.Background()
	total := 0
	for i, f := range frames {
		k := store.Key{Hi: uint64(i) + 1, Lo: hashBody(f)}
		put.timed(func() { err = d.Put(ctx, k, f) })
		t.add(err)
		total += len(f)
	}
	for i, f := range frames {
		k := store.Key{Hi: uint64(i) + 1, Lo: hashBody(f)}
		var v []byte
		get.timed(func() { v, _, err = d.Get(ctx, k) })
		if err == nil && !bytes.Equal(v, f) {
			err = fmt.Errorf("store returned %d bytes for a %d-byte frame", len(v), len(f))
		}
		t.add(err)
	}
	return put, get, float64(total) / float64(max(len(frames), 1)), nil
}

// live runs the window's arrivals for dur against a suud with every
// request traced, then against one without tracing. The traced run splits
// each response's client latency (from send to last byte) into the
// server's total and the wire; the server's total splits into its stages
// and the unattributed rest. The untraced run gives live.lat_p90_ms, the
// whole phase's tail: the end-to-end metrics leave the tail out because
// the host's CPU steal moves it from run to run by more than any bound,
// and p90 is the highest percentile with ten batch-mixed batches beyond
// it in this phase.
func live(cfg *config, s *suite, dur time.Duration, m map[string]metric, t *tally) error {
	def := cfg.def
	reqs, err := s.phase(phaseWindow, def.rate, dur)
	if err != nil {
		return err
	}
	var p50 [2]float64
	var cpu [2]float64
	for k, traced := range []bool{true, false} {
		srv, hc, _, err := setup(cfg, s.serial(phasePrime), traced, t)
		if err != nil {
			return err
		}
		cpu0, err := srv.cpuTime()
		if err == nil {
			var r *phaseResult
			if r, err = runPhase(hc, srv.base+def.path, reqs, dur); err == nil {
				var cpu1 time.Duration
				cpu1, err = srv.cpuTime()
				r.check(def, t)
				p50[k] = quantile(r.latenciesMS(), 0.5)
				cpu[k] = msOf(cpu1-cpu0) / float64(len(reqs)*def.items)
				if traced {
					err = errors.Join(err, splitTraced(r, m))
					m["gen.late_p99_ms"] = metric{quantile(r.lateMS(), 0.99), "ms"}
				} else {
					m["live.lat_p90_ms"] = metric{hdQuantile(r.latenciesMS(), 0.9), "ms"}
				}
			}
		}
		if serr := stopAll(srv, hc); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	m["tracing_overhead.p50_ms"] = metric{p50[0] - p50[1], "ms"}
	m["tracing_overhead.cpu_ms_per_item"] = metric{cpu[0] - cpu[1], "ms"}
	return nil
}

// splitTraced derives wire_ms and unattributed_ms, the medians over the
// traced phase's responses. The stage sum leaves out the waiting stages
// (queue, flight): a batch's items wait while others compute, so their
// waits overlap the work stages and would be counted twice.
func splitTraced(r *phaseResult, m map[string]metric) error {
	var wire, unattributed []float64
	for i := range r.out {
		o := &r.out[i]
		sum, ok := trace.ParseHeader(o.trace)
		if !o.ok() || !ok {
			continue
		}
		stages := int64(0)
		for st, d := range sum.DurUS {
			if st != int(trace.StageQueue) && st != int(trace.StageFlight) {
				stages += d
			}
		}
		client := msOf(r.reqs[i].due + o.lat - o.sendAt)
		wire = append(wire, client-float64(sum.TotalUS)/1000)
		unattributed = append(unattributed, float64(sum.TotalUS-stages)/1000)
	}
	if len(wire) == 0 {
		return errors.New("traced suud sent no X-Suu-Trace header")
	}
	m["wire_ms"] = metric{median(wire), "ms"}
	m["unattributed_ms"] = metric{median(unattributed), "ms"}
	return nil
}
