package solver_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	xnet "repro/internal/net"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/workload"
)

// runners returns one fresh AppRunner per runtime. Fresh values per
// call: runners are cheap and a shared one must not leak state between
// cells.
func runners() map[string]workload.AppRunner {
	return map[string]workload.AppRunner{
		"sim":  onSim(),
		"live": &live.AppRunner{},
		"net":  &xnet.AppRunner{},
	}
}

// TestCrossRuntimeSolverEquivalence runs one solver cell per mechanism
// on all three runtimes and checks the invariants that must hold
// regardless of transport and timing:
//
//   - executed-flops conservation: the total executed floating-point
//     work equals the sim reference exactly (slave flops are linear in
//     the rows split, so the total is structure-determined even though
//     the split itself varies with view timing);
//   - identical decision counts: one dynamic selection per Type 2 node
//     on every runtime, and assignment counts within the structural
//     bounds;
//   - view conservation: after quiescence every rank's own view entry
//     returns to zero on both metrics — all accounted work was
//     executed and all accounted memory released (the same invariant a
//     post-run snapshot would observe).
func TestCrossRuntimeSolverEquivalence(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			type obs struct {
				flops       float64
				decisions   int
				assignments int
				views       []*core.View
				procs       int
			}
			results := map[string]obs{}
			for rt, runner := range runners() {
				m := buildMapping(t, 8, 8, 8, 8)
				prm := solver.DefaultParams(mech, sched.Workload())
				app, opts, err := solver.NewApp(m, prm)
				if err != nil {
					t.Fatalf("%s: %v", rt, err)
				}
				hr, err := runner.RunApp(m.Config.NProcs, app, opts)
				if err != nil {
					t.Fatalf("%s: %v", rt, err)
				}
				out := app.Outcome(hr)
				if out.Err != nil {
					t.Fatalf("%s: %v", rt, out.Err)
				}
				res := out.Result.(*solver.Result)
				if res.Decisions != m.NumType2 {
					t.Fatalf("%s: %d decisions, want %d (one per Type 2 node)", rt, res.Decisions, m.NumType2)
				}
				results[rt] = obs{
					flops:       res.TotalExecutedFlops(),
					decisions:   res.Decisions,
					assignments: res.Assignments,
					views:       out.FinalViews,
					procs:       m.Config.NProcs,
				}
			}
			ref := results["sim"]
			for rt, o := range results {
				if o.decisions != ref.decisions {
					t.Errorf("%s: %d decisions vs sim %d", rt, o.decisions, ref.decisions)
				}
				if relDiff(o.flops, ref.flops) > 1e-9 {
					t.Errorf("%s: executed flops %v vs sim %v", rt, o.flops, ref.flops)
				}
				// Every decision commits at least one share and at most
				// n-1; the exact split shifts with view timing.
				if o.assignments < o.decisions || o.assignments > o.decisions*(o.procs-1) {
					t.Errorf("%s: %d assignments outside [%d, %d]", rt,
						o.assignments, o.decisions, o.decisions*(o.procs-1))
				}
				for r, view := range o.views {
					own := view.Load(r)
					for metric, v := range own {
						if math.Abs(v) > 1e-3 {
							t.Errorf("%s: rank %d final own %s = %v, want ~0",
								rt, r, core.Metric(metric), v)
						}
					}
				}
			}
		})
	}
}

// TestSolverWl32ProcSimCell runs the solver-wl scenario at the paper's
// 32-processor scale on the reference simulator, one cell per
// mechanism, and checks the structure-determined invariants at a size
// the 8-proc suite cannot: identical decision counts and executed flops
// across mechanisms (both are fixed by the assembly tree, not by view
// timing), the Dijkstra–Scholten control budget, and every rank's own
// view returning to zero after quiescence. Gated out of -short: the
// 32-proc sim cells are the slow tail of this package.
func TestSolverWl32ProcSimCell(t *testing.T) {
	if testing.Short() {
		t.Skip("32-proc sim cells skipped in -short mode")
	}
	const procs = 32
	w, err := workload.Get("solver-wl")
	if err != nil {
		t.Fatal(err)
	}
	d := sim.NewWorkloadDriver()
	p := workload.Params{Procs: procs}
	var refFlops float64
	refDecisions := 0
	for i, mech := range core.Mechanisms() {
		rep, err := d.Run(w, mech, core.Config{NoMoreMasterOpt: true}, p)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		res, ok := rep.AppResult.(*solver.Result)
		if !ok {
			t.Fatalf("%s: AppResult is %T", mech, rep.AppResult)
		}
		if res.Decisions == 0 || res.MaxPeakMem <= 0 {
			t.Fatalf("%s: degenerate result %+v", mech, res)
		}
		if i == 0 {
			refFlops, refDecisions = res.TotalExecutedFlops(), res.Decisions
		} else {
			if res.Decisions != refDecisions {
				t.Errorf("%s: %d decisions, want %d (one per Type 2 node regardless of mechanism)",
					mech, res.Decisions, refDecisions)
			}
			if relDiff(res.TotalExecutedFlops(), refFlops) > 1e-9 {
				t.Errorf("%s: executed flops %v, want %v (structure-determined)",
					mech, res.TotalExecutedFlops(), refFlops)
			}
		}
		if want := rep.Counters.DataMsgs + 2*(procs-1); rep.Counters.CtrlMsgs != want {
			t.Errorf("%s: ctrl msgs %d, want data msgs %d + 2(n-1) = %d",
				mech, rep.Counters.CtrlMsgs, rep.Counters.DataMsgs, want)
		}
		for r, view := range rep.FinalViews {
			for metric, v := range view.Load(r) {
				if math.Abs(v) > 1e-3 {
					t.Errorf("%s: rank %d final own %s = %v, want ~0",
						mech, r, core.Metric(metric), v)
				}
			}
		}
	}
}

// relDiff returns |a-b| / max(|a|, |b|, 1).
func relDiff(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / den
}

// TestSolverScenarioMatrix sweeps the registered solver scenarios over
// every mechanism on all three runtime drivers — the same path `loadex
// run -scenario solver-wl -mech all -runtime all` exercises.
func TestSolverScenarioMatrix(t *testing.T) {
	drivers := []workload.Driver{
		sim.NewWorkloadDriver(), live.NewDriver(), xnet.NewDriver(xnet.Options{}),
	}
	p := workload.Params{Procs: 8}
	for _, name := range []string{"solver-wl", "solver-mem"} {
		w, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range core.Mechanisms() {
			for _, d := range drivers {
				rep, err := d.Run(w, mech, core.Config{NoMoreMasterOpt: true}, p)
				if err != nil {
					t.Fatalf("%s × %s × %s: %v", name, mech, d.Runtime(), err)
				}
				if rep.DecisionsTaken == 0 {
					t.Fatalf("%s × %s × %s: no decisions", name, mech, d.Runtime())
				}
				if rep.Counters.StateMsgs == 0 || rep.Counters.DataMsgs == 0 {
					t.Fatalf("%s × %s × %s: empty counters %+v", name, mech, d.Runtime(), rep.Counters)
				}
				res, ok := rep.AppResult.(*solver.Result)
				if !ok {
					t.Fatalf("%s × %s × %s: AppResult is %T", name, mech, d.Runtime(), rep.AppResult)
				}
				if res.MaxPeakMem <= 0 {
					t.Fatalf("%s × %s × %s: no peak memory", name, mech, d.Runtime())
				}
				if rep.Counters.Decisions != int64(rep.DecisionsTaken) {
					t.Fatalf("%s × %s × %s: counters decisions %d != report %d",
						name, mech, d.Runtime(), rep.Counters.Decisions, rep.DecisionsTaken)
				}
			}
		}
	}
}
