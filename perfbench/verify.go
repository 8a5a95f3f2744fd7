package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	suu "repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
)

// verify checks one response against the request that produced it.
func verify(def *workloadDef, req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	switch def.path {
	case "/v1/plan/batch":
		var b service.BatchPlanResponse
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("decoding batch: %w", err)
		}
		if b.Size != len(req.items) || b.OK != len(req.items) || len(b.Items) != len(req.items) {
			return fmt.Errorf("batch of %d: size %d ok %d items %d", len(req.items), b.Size, b.OK, len(b.Items))
		}
		for i, it := range b.Items {
			if it.Status != "ok" || it.Plan == nil {
				return fmt.Errorf("batch item %d: status %q %s", i, it.Status, it.Error)
			}
			if err := checkPlan(it.Plan, req.items[i]); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	default:
		e, err := decodeEstimate(body)
		if err != nil {
			return err
		}
		it := req.items[0]
		switch {
		case e.Fingerprint != it.fp.String():
			return fmt.Errorf("estimate fingerprint %s, sent %s", e.Fingerprint, it.fp)
		case e.Policy != estPolicy || e.Trials != estTrials || e.Seed != it.seed:
			return fmt.Errorf("estimate answered %s/%d/%d, asked %s/%d/%d", e.Policy, e.Trials, e.Seed, estPolicy, estTrials, it.seed)
		case !(e.Mean >= 1) || math.IsInf(e.Mean, 0):
			return fmt.Errorf("estimate mean %v", e.Mean)
		}
		return nil
	}
}

func decodeEstimate(body []byte) (*service.EstimateResponse, error) {
	var e service.EstimateResponse
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("decoding estimate: %w", err)
	}
	return &e, nil
}

// checkPlan verifies a served schedule against the instance sent: the
// fingerprint matches, every job runs on some machine, and every machine
// row fits within the declared length.
func checkPlan(p *service.PlanResponse, it item) error {
	if p.Fingerprint != it.fp.String() {
		return fmt.Errorf("plan fingerprint %s, sent %s", p.Fingerprint, it.fp)
	}
	if p.Degraded {
		return errors.New("degraded plan")
	}
	if p.M != it.ins.M || p.N != it.ins.N || len(p.Machines) != it.ins.M {
		return fmt.Errorf("plan shape m=%d n=%d rows=%d, want %dx%d", p.M, p.N, len(p.Machines), it.ins.M, it.ins.N)
	}
	seen := make([]bool, it.ins.N)
	for i, row := range p.Machines {
		var t int64
		for _, r := range row {
			if r.Job < 0 || r.Job >= it.ins.N || r.Steps <= 0 {
				return fmt.Errorf("machine %d: bad run %+v", i, r)
			}
			seen[r.Job] = true
			t += r.Steps
		}
		if t > p.Length {
			return fmt.Errorf("machine %d row of %d steps exceeds length %d", i, t, p.Length)
		}
	}
	for j, ok := range seen {
		if !ok {
			return fmt.Errorf("job %d on no machine", j)
		}
	}
	return nil
}

// Quality: every plan is repeated as an oblivious schedule over this many
// seeded executions.
const (
	qualityTrials    = 64
	qualityMaxPasses = 1 << 20
)

// planQuality returns E[makespan]/bound for a served independent-jobs plan:
// the schedule is repeated (sim.World.RepeatOblivious) until every job
// completes, over qualityTrials executions seeded 0..qualityTrials-1.
func planQuality(p *service.PlanResponse, ins *model.Instance) (float64, error) {
	o := &sched.Oblivious{M: p.M, Runs: make([][]sched.Run, len(p.Machines)), Length: p.Length}
	for i, row := range p.Machines {
		for _, r := range row {
			o.Runs[i] = append(o.Runs[i], sched.Run{Job: r.Job, Steps: r.Steps})
		}
	}
	src := rng.New(0)
	w := sim.NewWorld(ins, rand.New(src))
	sum := 0.0
	for t := 0; t < qualityTrials; t++ {
		src.Seed(int64(t))
		w.Reset(rand.New(src))
		if _, err := w.RepeatOblivious(o, qualityMaxPasses); err != nil {
			return 0, err
		}
		ms, err := w.Makespan()
		if err != nil {
			return 0, err
		}
		sum += float64(ms)
	}
	lb, err := suu.LowerBound(ins)
	if err != nil {
		return 0, err
	}
	return sum / qualityTrials / lb, nil
}

// estimateExact recomputes an estimate in-process and reports whether the
// served summary equals it bit for bit.
func estimateExact(e *service.EstimateResponse, it item) error {
	res, err := sim.MonteCarlo(it.ins, &core.SEM{Cache: rounding.NewCache()}, estTrials, it.seed, 2)
	if err != nil {
		return err
	}
	s := stats.Summarize(res.Makespans)
	if math.Float64bits(s.Mean) != math.Float64bits(e.Mean) || math.Float64bits(s.Std) != math.Float64bits(e.Std) ||
		math.Float64bits(s.Median) != math.Float64bits(e.Median) {
		return fmt.Errorf("estimate seed %d: served mean %v std %v, in-process %v %v", it.seed, e.Mean, e.Std, s.Mean, s.Std)
	}
	return nil
}

// qualityOf computes the workload's quality ratio from the verification
// set's responses: batch-mixed averages planQuality over the catalog's
// independent specs; estimate averages the served SEM mean over the bound.
// Estimates are also checked bit for bit against sim.MonteCarlo.
func qualityOf(def *workloadDef, reqs []request, bodies [][]byte) (float64, error) {
	sum, n := 0.0, 0
	add := func(p *service.PlanResponse, it item) error {
		if it.ins.Prec != nil {
			return nil
		}
		q, err := planQuality(p, it.ins)
		if err != nil {
			return err
		}
		sum += q
		n++
		return nil
	}
	for i, req := range reqs {
		switch def.path {
		case "/v1/plan/batch":
			var b service.BatchPlanResponse
			if err := json.Unmarshal(bodies[i], &b); err != nil {
				return 0, err
			}
			for k := range b.Items {
				if err := add(b.Items[k].Plan, req.items[k]); err != nil {
					return 0, err
				}
			}
		default:
			e, err := decodeEstimate(bodies[i])
			if err != nil {
				return 0, err
			}
			if err := estimateExact(e, req.items[0]); err != nil {
				return 0, err
			}
			lb, err := suu.LowerBound(req.items[0].ins)
			if err != nil {
				return 0, err
			}
			sum += e.Mean / lb
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("empty verification set")
	}
	return sum / float64(n), nil
}
