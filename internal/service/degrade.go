package service

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/trace"
)

// degradedServe serves g the brownout fallback: a greedy LPT list schedule
// (baseline.ListSchedule) built without LP, workspace, or worker slot —
// O(n·m) and allocation-light, so it stays cheap exactly when the planner
// is drowning. The response is openly degraded: Degraded is set, TStar
// and LowerBound stay zero (the fallback carries no optimality
// certificate), and it is never written to the response cache or shared
// through the flight table — a retry after the storm, or a concurrent
// caller patient enough to queue, gets the real LP-rounded plan. Its
// one-off frame is a per-request cold encode, metered like every other.
func (p *Planner) degradedServe(g *group, tc *trace.Ctx) (*cachedFrame, error) {
	start := time.Now()
	// Chains normalize target to 0 before keying (LP2 has no target
	// knob); the list schedule still needs a positive log-mass target, so
	// they fall back to LP1's default 1/2.
	eff := g.key.target
	if eff == 0 {
		eff = 0.5
	}
	resp := &PlanResponse{
		Fingerprint: g.key.fp.String(),
		Class:       g.class.String(),
		M:           g.ins.M,
		N:           g.ins.N,
		Target:      g.key.target,
		Degraded:    true,
	}
	resp.Machines = serializeRuns(baseline.ListSchedule(g.ins, eff).Serialize(), &resp.Length)
	p.metrics.degraded.Add(1)
	p.obsStage(tc, trace.StageDegrade, start)
	return p.encodeFrame(resp, tc)
}
