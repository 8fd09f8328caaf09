package solver

// The solver as first-class workload scenarios: `solver-wl` drives the
// workload-based strategy (§4.2.2) and `solver-mem` the memory-based
// one (§4.2.1) over a generated elimination tree, so `loadex run`
// sweeps the paper's real application across the
// scenario × mechanism × runtime matrix exactly like the synthetic
// load programs. The problem is a deterministic 3D grid sized from the
// cluster (larger grid at 16+ processes); the static mapping is rebuilt
// per run (it sets node types in place) from a cached symbolic
// analysis.
//
// Scenario parameters: only Procs is honored — masters, decisions,
// work and slaves are determined by the assembly tree, and the
// -threshold flag (synthetic work units) is replaced by the threshold
// derived from the tree's task granularity (§2.3). The No_more_master
// switch applies as given.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
	"repro/internal/workload"
)

// appScenario implements workload.Workload for one strategy.
type appScenario struct {
	name     string
	describe string
	strat    func() *sched.Strategy
	// speed, when set, derives the per-rank execution-speed factors for
	// a cluster size (heterogeneous scenarios; nil = homogeneous).
	speed func(procs int) []float64

	mu    sync.Mutex
	cache map[string]*symbolic.Analysis
}

// Name implements workload.Workload.
func (s *appScenario) Name() string { return s.name }

// Describe implements workload.Workload.
func (s *appScenario) Describe() string { return s.describe }

// gridFor sizes the generated 3D problem from the cluster: enough tree
// above the subtree layer for a healthy number of Type 2 decisions,
// small enough that a cell stays fast on every runtime. The 1024/4096
// tiers exist for the engine-throughput scale runs: at those ranks the
// smaller grids leave most of the cluster idle, while these keep a few
// hundred Type 2 decisions in flight and still complete in seconds on
// the pooled/batched simulator.
func gridFor(procs int) int {
	switch {
	case procs >= 4096:
		return 14
	case procs >= 1024:
		return 12
	case procs >= 16:
		return 10
	}
	return 8
}

// analysis returns the (cached) symbolic analysis of the grid problem.
// The analysis is read-only; trees and mappings are rebuilt per run.
func (s *appScenario) analysis(nx int) (*symbolic.Analysis, error) {
	key := fmt.Sprintf("grid%d", nx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.cache[key]; ok {
		return a, nil
	}
	p, _ := sparse.Grid3D(nx, nx, nx, 1, sparse.Star, sparse.Sym)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if s.cache == nil {
		s.cache = map[string]*symbolic.Analysis{}
	}
	s.cache[key] = a
	return a, nil
}

// NewApp implements workload.Workload.
func (s *appScenario) NewApp(mech core.Mech, cfg core.Config, p workload.Params) (workload.App, workload.AppRunOptions, error) {
	p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, workload.AppRunOptions{}, err
	}
	a, err := s.analysis(gridFor(p.Procs))
	if err != nil {
		return nil, workload.AppRunOptions{}, err
	}
	tr := tree.Split(tree.Build(a), tree.DefaultSplit())
	m, err := mapping.Map(tr, mapping.DefaultConfig(p.Procs))
	if err != nil {
		return nil, workload.AppRunOptions{}, err
	}
	prm := DefaultParams(mech, s.strat())
	// cfg.Threshold is in synthetic work units; the solver's threshold
	// is derived from the tree instead (prepare fills it). Only the
	// No_more_master optimization carries over.
	prm.MechConfig.NoMoreMasterOpt = cfg.NoMoreMasterOpt
	app, err := prepare(m, prm)
	if err != nil {
		return nil, workload.AppRunOptions{}, err
	}
	opts := prm.runOptions()
	if s.speed != nil {
		opts.Speed = s.speed(p.Procs)
	}
	return app, opts, nil
}

// heteroSpeed is solver-hetero's deterministic speed gradient: rank 0
// runs at nominal speed and the last rank is 1.75× slower, modeling a
// cluster of mixed generations. The port's hosts scale every Compute
// interval by the executing rank's factor, so the dynamic decisions
// see genuinely skewed progress.
func heteroSpeed(procs int) []float64 {
	speed := make([]float64, procs)
	for r := range speed {
		speed[r] = 1 + 0.75*float64(r)/float64(max(procs-1, 1))
	}
	return speed
}

func init() {
	workload.Register(&appScenario{
		name:     "solver-wl",
		describe: "the paper's multifrontal solver under the workload-based strategy (§4.2.2) on a generated elimination tree",
		strat:    sched.Workload,
	})
	workload.Register(&appScenario{
		name:     "solver-mem",
		describe: "the paper's multifrontal solver under the memory-based strategy (§4.2.1) on a generated elimination tree",
		strat:    sched.Memory,
	})
	workload.Register(&appScenario{
		name:     "solver-hetero",
		describe: "the workload-based solver on a heterogeneous cluster: per-rank speed factors ramp to 1.75× slower, exercising the port's speed-factor carriage",
		strat:    sched.Workload,
		speed:    heteroSpeed,
	})
}
