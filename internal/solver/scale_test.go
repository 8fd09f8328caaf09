package solver_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/workload"
)

// runScaleCell runs one solver-wl sim cell and enforces its wall-clock
// budget. The budgets are deliberately loose multiples of the measured
// times (≈0.6s at 1024, ≈10s at 4096 on the pooled/batched engine) so
// the test catches a regression back to the pre-PR-9 engine — which
// took over a minute at 4096 — without flaking on a loaded CI host.
func runScaleCell(t *testing.T, procs int, mech core.Mech, budget time.Duration) *workload.Report {
	t.Helper()
	w, err := workload.Get("solver-wl")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := workload.Run(&sim.AppRunner{}, w, mech, core.Config{NoMoreMasterOpt: true}, workload.Params{Procs: procs})
	if err != nil {
		t.Fatalf("%d procs × %s: %v", procs, mech, err)
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("%d procs × %s: took %s, budget %s — engine throughput regression",
			procs, mech, elapsed.Round(time.Millisecond), budget)
	}
	if rep.SimEvents == 0 {
		t.Errorf("%d procs × %s: report carries no engine event count", procs, mech)
	}
	return rep
}

// TestSolverWlSimScale runs the solver-wl scenario at 1024 and 4096
// simulated processes — the engine-throughput scale the batched
// simulator exists for. At 1024 two mechanisms run and must agree on
// the structure-determined quantities (decision count and executed
// flops are fixed by the assembly tree, not by view timing); at 4096
// one mechanism proves the full run completes within its budget. Both
// sizes additionally check every rank's own view returns to zero after
// quiescence — read off the finished views themselves, one entry each,
// not off 4096 dense copies. Gated out of -short: these are the slowest
// cells in the repo's test suite.
func TestSolverWlSimScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024/4096-proc sim cells skipped in -short mode")
	}
	t.Run("1024", func(t *testing.T) {
		var refFlops float64
		refDecisions := 0
		for i, mech := range []core.Mech{core.MechIncrements, core.MechSnapshot} {
			rep := runScaleCell(t, 1024, mech, 30*time.Second)
			res, ok := rep.AppResult.(*solver.Result)
			if !ok {
				t.Fatalf("%s: AppResult is %T", mech, rep.AppResult)
			}
			if res.Decisions == 0 || res.MaxPeakMem <= 0 {
				t.Fatalf("%s: degenerate result %+v", mech, res)
			}
			if i == 0 {
				refFlops, refDecisions = res.TotalExecutedFlops(), res.Decisions
				continue
			}
			if res.Decisions != refDecisions {
				t.Errorf("%s: %d decisions, want %d (one per Type 2 node regardless of mechanism)",
					mech, res.Decisions, refDecisions)
			}
			if d := math.Abs(res.TotalExecutedFlops() - refFlops); d > 1e-9*math.Max(refFlops, 1) {
				t.Errorf("%s: executed flops %v, want %v (structure-determined)",
					mech, res.TotalExecutedFlops(), refFlops)
			}
		}
	})
	t.Run("4096", func(t *testing.T) {
		rep := runScaleCell(t, 4096, core.MechIncrements, 90*time.Second)
		res, ok := rep.AppResult.(*solver.Result)
		if !ok {
			t.Fatalf("AppResult is %T", rep.AppResult)
		}
		if res.Decisions == 0 || res.MaxPeakMem <= 0 {
			t.Fatalf("degenerate result %+v", res)
		}
		for r, view := range rep.FinalViews {
			for metric, v := range view.Load(r) {
				if math.Abs(v) > 1e-3 {
					t.Errorf("rank %d final own %s = %v, want ~0", r, core.Metric(metric), v)
				}
			}
		}
	})
}

// TestSolverWlSimAllocBudget pins what a 1024-rank increments cell
// allocates in total: 83.5 MB when every rank held a dense view of its
// own and Outcome copied each one, about 52 MB with the views paged
// over one shared seed, about 33 MB since the network keeps one row of
// link clocks per sender instead of n² (8 MB here) and in-flight and
// queued messages are compact (48 and 24 bytes instead of 80 and 72).
// The budget is that figure + 15 %, so n² view or link-clock storage, or
// full messages in the rank queues, coming back fails here before it
// shows in a benchmark.
func TestSolverWlSimAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-proc sim cell skipped in -short mode")
	}
	const budget = 38 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runScaleCell(t, 1024, core.MechIncrements, 30*time.Second)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("1024 procs × increments allocated %.1f MB, budget %d MB",
			float64(got)/(1<<20), budget>>20)
	} else {
		t.Logf("1024 procs × increments allocated %.1f MB", float64(got)/(1<<20))
	}
}
