package core

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/sim"
)

// Forest is SUU-T (Appendix B): precedence constraints forming a directed
// forest are decomposed into O(log n) blocks of vertex-disjoint chains by
// heavy-path decomposition (the technique of Kumar et al.), and SUU-C runs
// once per block in order. Every block's jobs depend only on earlier blocks
// and on chain-internal predecessors, so each block is a legitimate SUU-C
// sub-instance; the approximation picks up the O(log n) block count:
// O(log n · log(n+m) · loglog min{m,n}).
type Forest struct {
	// Engine is the chain scheduler run per block; nil means a default
	// Chains (the paper's algorithm).
	Engine *Chains

	defOnce   sync.Once
	defEngine *Chains
}

// Name implements sim.Policy.
func (f *Forest) Name() string {
	if f.Engine != nil {
		return "suu-t[" + f.Engine.Name() + "]"
	}
	return "suu-t"
}

// Run completes an instance whose precedence class is a directed forest
// (chains and independent instances are degenerate cases).
func (f *Forest) Run(w *sim.World) error {
	ins := w.Instance()
	engine := f.Engine
	if engine == nil {
		// Built once, not per trial, so the default engine's caches and
		// solver workspaces are shared across the whole Monte Carlo run.
		f.defOnce.Do(func() { f.defEngine = &Chains{} })
		engine = f.defEngine
	}
	if ins.Prec == nil {
		chains, err := ins.Chains()
		if err != nil {
			return err
		}
		return engine.RunChains(w, chains)
	}
	blocks, err := ins.Prec.DecomposeForest()
	if err != nil {
		return fmt.Errorf("core: %s: %w", f.Name(), err)
	}
	for bi, block := range blocks {
		if err := engine.RunChains(w, []dag.Chain(block)); err != nil {
			return fmt.Errorf("core: %s block %d: %w", f.Name(), bi, err)
		}
	}
	if !w.AllDone() {
		return fmt.Errorf("core: %s left %d jobs uncompleted", f.Name(), w.NumRemaining())
	}
	return nil
}
