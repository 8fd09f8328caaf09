package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/workload"
)

// buildLoadex compiles the real loadex binary (the test binary cannot
// re-execute itself as `loadex node`).
func buildLoadex(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "loadex")
	cmd := exec.Command("go", "build", "-o", exe, "repro/cmd/loadex")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build loadex: %v\n%s", err, out)
	}
	return exe
}

// TestForkedSolverEquivalence is the fourth lane of the cross-runtime
// solver equivalence suite: the same application cell on forked
// multi-process nodes (one OS process per rank, real TCP, detector-
// driven termination) must conserve executed flops exactly against the
// deterministic sim reference and take the same structural number of
// dynamic decisions — one per Type 2 node — with no shared memory
// between the ranks.
func TestForkedSolverEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a multi-process TCP cluster")
	}
	exe := buildLoadex(t)

	const procs = 4
	for _, tc := range []struct{ mech, term string }{
		{"increments", "ds"},
		{"snapshot", "safra"},
	} {
		tc := tc
		t.Run(tc.mech+"_"+tc.term, func(t *testing.T) {
			// Sim reference for the same cell.
			w, err := workload.Get("solver-wl")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.NewWorkloadDriver().Run(w, core.Mech(tc.mech),
				core.Config{NoMoreMasterOpt: true}, workload.Params{Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			refRes := ref.AppResult.(*solver.Result)

			p := nodeParams{
				procs: procs, scenario: "solver-wl", mech: tc.mech, term: tc.term,
				threshold: 5, noMore: true,
				masters: 1, decisions: 1, work: 60, slaves: 2,
				spin: time.Millisecond, settle: 10 * time.Millisecond,
			}
			stats, err := runClusterForkedWith(exe, &p)
			if err != nil {
				t.Fatal(err)
			}
			var flops float64
			var decisions int
			var ctrl int64
			for _, s := range stats {
				flops += s.Flops
				decisions += s.Decisions
				ctrl += s.Counters.CtrlMsgs
			}
			if decisions != refRes.Decisions {
				t.Errorf("forked decisions %d, sim %d", decisions, refRes.Decisions)
			}
			refFlops := refRes.TotalExecutedFlops()
			if den := math.Max(refFlops, 1); math.Abs(flops-refFlops)/den > 1e-9 {
				t.Errorf("forked executed flops %v, sim %v", flops, refFlops)
			}
			if ctrl == 0 {
				t.Error("no termination-detection control frames counted across the forked cluster")
			}
		})
	}
}
