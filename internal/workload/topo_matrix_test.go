package workload_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// The topology cells of the equivalence suite: the same scenario runs on
// sparse neighbor graphs under the neighbor-restricted mechanisms — the
// paper's maintained pair plus the two dissemination tenants — on both
// runtimes, the TCP mesh linking neighbors only and the termination
// detector routing its control frames along edges. Views no longer
// converge to the global finals (state only travels edges), so the
// invariants weaken deliberately:
//
//  1. selection coherence, restricted: every assignment targets a
//     neighbor of the master, and exactly the least-loaded neighbors per
//     the recorded view (re-derived with core.LeastLoadedAmong), with
//     equal positive shares;
//  2. conservation, unchanged: every assigned work item is executed —
//     executed totals equal the sum of assignment counts, and they are
//     identical across the runtimes.
func TestTopologyMatrixEquivalence(t *testing.T) {
	w, err := workload.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	progs := programs(t, w, matrixParams)
	for _, topoName := range []string{"ring", "grid2d"} {
		topo, err := core.NewTopology(topoName, matrixParams.Procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range []core.Mech{core.MechNaive, core.MechIncrements, core.MechGossip, core.MechDiffusion} {
			topo, mech := topo, mech
			t.Run(topoName+"/"+string(mech), func(t *testing.T) {
				cfg := core.Config{Topo: topo}
				reports := map[string]*workload.Report{}
				for _, runner := range matrixRunners() {
					rep, err := workload.Run(runner, w, mech, cfg, matrixParams)
					if err != nil {
						t.Fatalf("%s: %v", runner.Runtime(), err)
					}
					reports[runner.Runtime()] = rep
					checkTopologyInvariants(t, rep, topo, progs)
				}
				want := reports["sim"]
				for name, got := range reports {
					if name == "sim" {
						continue
					}
					if a, b := got.TotalExecuted(), want.TotalExecuted(); a != b {
						t.Errorf("%s executed %d items, sim executed %d", name, a, b)
					}
				}
			})
		}
	}
}

// checkTopologyInvariants asserts the sparse-graph invariants on one
// runtime's report.
func checkTopologyInvariants(t *testing.T, rep *workload.Report, topo *core.Topology, progs []workload.Program) {
	t.Helper()
	const eps = 1e-9
	name := rep.Runtime
	if got, want := len(rep.Records), workload.DecisionCount(progs); got != want {
		t.Fatalf("%s: recorded %d decisions, want %d", name, got, want)
	}
	var assigned int64
	for i, rec := range rep.Records {
		assigned += int64(len(rec.Assignments))
		sel := core.LeastLoadedAmong(core.ViewOf(rec.View), core.Workload,
			rec.Master, len(rec.Assignments), topo.Neighbors(rec.Master))
		if len(sel) != len(rec.Assignments) {
			t.Fatalf("%s decision %d: %d assignments, %d least-loaded neighbors", name, i, len(rec.Assignments), len(sel))
		}
		var firstShare float64
		for j, a := range rec.Assignments {
			if !topo.Edge(rec.Master, int(a.Proc)) {
				t.Errorf("%s decision %d: master %d assigned to non-neighbor %d on %s",
					name, i, rec.Master, a.Proc, topo.Name())
			}
			if int(a.Proc) != sel[j] {
				t.Errorf("%s decision %d (master %d): assignment %d targets %d, least-loaded neighbor per view is %d",
					name, i, rec.Master, j, a.Proc, sel[j])
			}
			if j == 0 {
				firstShare = a.Delta[core.Workload]
				if firstShare <= 0 {
					t.Errorf("%s decision %d: non-positive share %v", name, i, firstShare)
				}
			} else if math.Abs(a.Delta[core.Workload]-firstShare) > eps {
				t.Errorf("%s decision %d: unequal shares %v vs %v", name, i, a.Delta[core.Workload], firstShare)
			}
		}
	}
	if got := rep.TotalExecuted(); got != assigned {
		t.Errorf("%s: executed %d work items, assigned %d — work leaked or duplicated", name, got, assigned)
	}
}
