package service

import (
	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/sched"
)

// degradedPlan serves the brownout fallback: a greedy LPT list schedule
// (baseline.ListSchedule) built without LP, workspace, or worker slot —
// O(n·m) and allocation-light, so it stays cheap exactly when the planner
// is drowning. The response is openly degraded: Degraded is set, TStar
// and LowerBound stay zero (the fallback carries no optimality
// certificate), and it is never written to the response cache or shared
// through the flight table — a retry after the storm, or a concurrent
// caller patient enough to queue, gets the real LP-rounded plan.
func (p *Planner) degradedPlan(ins *model.Instance, fp sched.Fingerprint, target float64, class dag.Class) *PlanResponse {
	// Chains normalize target to 0 before keying (LP2 has no target
	// knob); the list schedule still needs a positive log-mass target, so
	// they fall back to LP1's default 1/2.
	eff := target
	if eff == 0 {
		eff = 0.5
	}
	resp := &PlanResponse{
		Fingerprint: fp.String(),
		Class:       class.String(),
		M:           ins.M,
		N:           ins.N,
		Target:      target,
		Degraded:    true,
	}
	resp.Machines = serializeRuns(baseline.ListSchedule(ins, eff).Serialize(), &resp.Length)
	p.metrics.degraded.Add(1)
	return resp
}
