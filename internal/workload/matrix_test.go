package workload_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The scenario-matrix equivalence suite is the generalization of the
// original cross-runtime test: every registered scenario runs under
// every mechanism on both runners of the application port — sim
// (deterministic discrete events) and net (real localhost TCP,
// in-process), each ended by the termination detector — and the
// mechanism-level invariants must agree:
//
//  1. selection coherence — every slave selection targets exactly the
//     processes the master believed least-loaded per its recorded view
//     (re-derived independently with core.LeastLoaded), with equal
//     positive shares;
//  2. snapshot conservation — for scenarios with a constant per-item
//     share and no spontaneous local changes, the total load a snapshot
//     view reports lies within the committed-minus-completed window
//     spanned by the acquire..ready samples, offset by the total
//     initial load; at quiescence every rank's own entry is its
//     expected final load, and on sim — whose drained engine delivered
//     every trailing update — so is every entry of every maintained
//     view;
//  3. count equivalence — executed work items, reservations and
//     snapshots initiated are identical across the runtimes.
var matrixParams = workload.Params{
	Procs: 6, Masters: 2, Decisions: 2, Work: 90, Slaves: 3,
	Spin: 200 * time.Microsecond,
}

// matrixRunners returns the runtimes to cover. Net stays in -short
// mode: it is the concurrent runtime the race-detector CI lane
// exercises.
func matrixRunners() []workload.AppRunner {
	return []workload.AppRunner{&sim.AppRunner{}, &xnet.AppRunner{}}
}

// programs compiles a program scenario.
func programs(t *testing.T, w workload.Workload, p workload.Params) []workload.Program {
	t.Helper()
	progs, err := w.(workload.ProgramScenario).Programs(p)
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestScenarioMatrixEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		for _, mech := range core.Mechanisms() {
			w, mech := w, mech
			t.Run(w.Name()+"/"+string(mech), func(t *testing.T) {
				progs := programs(t, w, matrixParams)
				reports := map[string]*workload.Report{}
				for _, runner := range matrixRunners() {
					rep, err := workload.Run(runner, w, mech, core.Config{}, matrixParams)
					if err != nil {
						t.Fatalf("%s: %v", runner.Runtime(), err)
					}
					reports[runner.Runtime()] = rep
					checkMatrixInvariants(t, rep, progs)
				}
				// Count equivalence across runtimes.
				want := reports["sim"]
				for name, got := range reports {
					if name == "sim" {
						continue
					}
					if a, b := got.TotalExecuted(), want.TotalExecuted(); a != b {
						t.Errorf("%s executed %d items, sim executed %d", name, a, b)
					}
					gs, ws := got.TotalStats(), want.TotalStats()
					if gs.ReservationsSent != ws.ReservationsSent {
						t.Errorf("%s sent %d reservations, sim sent %d", name, gs.ReservationsSent, ws.ReservationsSent)
					}
					if gs.SnapshotsInitiated != ws.SnapshotsInitiated {
						t.Errorf("%s initiated %d snapshots, sim initiated %d", name, gs.SnapshotsInitiated, ws.SnapshotsInitiated)
					}
				}
			})
		}
	}
}

// TestRampNoMoreMasterOpt exercises the §2.3 recipient pruning the ramp
// scenario exists for: every rank declares No_more_master with the
// optimization enabled, so trailing updates are pruned and views may
// legitimately go stale — selection coherence and count equivalence
// must still hold (final-view equality is not asserted: staleness is
// the feature under test).
func TestRampNoMoreMasterOpt(t *testing.T) {
	w, err := workload.Get("ramp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{NoMoreMasterOpt: true}
	progs := programs(t, w, matrixParams)
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			var prev *workload.Report
			for _, runner := range matrixRunners() {
				rep, err := workload.Run(runner, w, mech, cfg, matrixParams)
				if err != nil {
					t.Fatalf("%s: %v", runner.Runtime(), err)
				}
				if got, want := len(rep.Records), workload.DecisionCount(progs); got != want {
					t.Fatalf("%s: recorded %d decisions, want %d", runner.Runtime(), got, want)
				}
				for i, rec := range rep.Records {
					sel := core.LeastLoaded(core.ViewOf(rec.View), core.Workload, rec.Master, len(rec.Assignments))
					for j, a := range rec.Assignments {
						if int(a.Proc) != sel[j] {
							t.Errorf("%s decision %d: assignment %d targets %d, least-loaded per view is %d",
								runner.Runtime(), i, j, a.Proc, sel[j])
						}
					}
				}
				if prev != nil {
					if a, b := rep.TotalExecuted(), prev.TotalExecuted(); a != b {
						t.Errorf("%s executed %d items, %s executed %d", runner.Runtime(), a, prev.Runtime, b)
					}
				}
				prev = rep
			}
		})
	}
}

// expectedItems counts the work items the programs will spawn: one per
// selected slave per decision.
func expectedItems(progs []workload.Program) int64 {
	n := len(progs)
	var total int64
	for _, prog := range progs {
		for _, st := range prog.Steps {
			if st.Op != workload.OpDecide {
				continue
			}
			k := st.Slaves
			if k > n-1 {
				k = n - 1
			}
			total += int64(k)
		}
	}
	return total
}

// checkMatrixInvariants asserts the per-runtime invariants on one
// report.
func checkMatrixInvariants(t *testing.T, rep *workload.Report, progs []workload.Program) {
	t.Helper()
	const eps = 1e-9
	name := rep.Runtime
	if got, want := len(rep.Records), workload.DecisionCount(progs); got != want {
		t.Fatalf("%s: recorded %d decisions, want %d", name, got, want)
	}
	if got, want := rep.TotalExecuted(), expectedItems(progs); got != want {
		t.Errorf("%s: executed %d work items, want %d", name, got, want)
	}

	share, constShare := workload.ConstantShare(progs)
	windowOK := constShare && !workload.HasLocalChanges(progs)
	initialTotal := workload.TotalInitial(progs)[core.Workload]

	for i, rec := range rep.Records {
		// Invariant 1: the assignment targets re-derive from the view.
		sel := core.LeastLoaded(core.ViewOf(rec.View), core.Workload, rec.Master, len(rec.Assignments))
		if len(sel) != len(rec.Assignments) {
			t.Fatalf("%s decision %d: %d assignments, %d least-loaded", name, i, len(rec.Assignments), len(sel))
		}
		var firstShare float64
		for j, a := range rec.Assignments {
			if int(a.Proc) != sel[j] {
				t.Errorf("%s decision %d (master %d): assignment %d targets %d, least-loaded per view is %d",
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
		// Invariant 2 (snapshot, constant-share scenarios): the view
		// total lies in the committed-minus-completed window of the
		// acquire..ready interval, offset by the initial total. Counter
		// placement (assigned leads Commit, credited trails the slave's
		// master_to_slave, executed trails the load decrement) makes
		// these bounds sound under real concurrency.
		if rep.Mech == core.MechSnapshot && windowOK {
			var sum float64
			for _, l := range rec.View {
				sum += l[core.Workload]
			}
			lo := initialTotal + float64(rec.CreditedAtAcquire-rec.ExecutedAtReady)*share
			hi := initialTotal + float64(rec.AssignedAtReady-rec.ExecutedAtAcquire)*share
			if sum < lo-eps || sum > hi+eps {
				t.Errorf("%s decision %d (master %d): snapshot total %v outside conservation window [%v, %v] (c0=%d d0=%d a1=%d d1=%d)",
					name, i, rec.Master, sum, lo, hi,
					rec.CreditedAtAcquire, rec.ExecutedAtAcquire, rec.AssignedAtReady, rec.ExecutedAtReady)
			}
		}
	}

	// Invariant 2, final cut: at quiescence all slave work is gone, so
	// every rank knows its own final load exactly. Remote entries of a
	// maintained view converge once the trailing updates land: on sim
	// the drained engine delivered them all; over TCP some may still be
	// on the wire when the detector fires (checkViewsConverge in
	// internal/net pins that they arrive).
	want := workload.ExpectedFinals(progs)
	if got := len(rep.FinalViews); got != len(progs) {
		t.Fatalf("%s: %d final views for %d ranks", name, got, len(progs))
	}
	allEntries := name == "sim" && rep.Mech != core.MechSnapshot
	for r, view := range rep.FinalViews {
		for p, l := range view.Snapshot() {
			if p != r && !allEntries {
				continue
			}
			for m := core.Metric(0); m < core.NumMetrics; m++ {
				if math.Abs(l[m]-want[p][m]) > eps {
					t.Errorf("%s: final view of rank %d sees %v %s on %d, want %v",
						name, r, l[m], m, p, want[p][m])
				}
			}
		}
	}
}
