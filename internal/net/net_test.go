package net

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestClusterBasicWorkflow(t *testing.T) {
	checkBasicWorkflow(t, Options{})
}

// checkBasicWorkflow runs one 3-slave decision per mechanism on a
// 4-rank cluster built with opts and checks every item executed.
func checkBasicWorkflow(t *testing.T, opts Options) {
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			cl, err := NewCluster(4, mech, core.Config{Threshold: core.Load{core.Workload: 1}}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			dec, err := cl.DecideObserved(0, 300, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec.Assignments) != 3 {
				t.Fatalf("assignments %v, want 3", dec.Assignments)
			}
			if err := cl.Drain(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			var executed int64
			for r := 0; r < 4; r++ {
				executed += cl.Executed(r)
			}
			if executed != 3 {
				t.Fatalf("executed %d work items, want 3", executed)
			}
			tr := cl.Transport(0)
			if tr.MsgsOut == 0 || tr.MsgsIn == 0 {
				t.Fatalf("no wire traffic recorded: %+v", tr)
			}
		})
	}
}

// TestClusterConcurrentDecisions is the package's race-detector stress
// test: several masters decide simultaneously over real TCP, so state
// traffic, data traffic and (for the snapshot mechanism) leader
// elections race end to end, and every decision initiates exactly one
// snapshot. Run with -race; -short keeps it in CI budget.
func TestClusterConcurrentDecisions(t *testing.T) {
	checkConcurrentDecisions(t, Options{})
}

func checkConcurrentDecisions(t *testing.T, opts Options) {
	rounds := 5
	if testing.Short() {
		rounds = 3
	}
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			const n, masters = 6, 3
			cl, err := NewCluster(n, mech, core.Config{Threshold: core.Load{core.Workload: 10}}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			var wg sync.WaitGroup
			for master := 0; master < masters; master++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := cl.Decide(m, 100, 2, time.Millisecond); err != nil {
							t.Error(err)
							return
						}
					}
				}(master)
			}
			wg.Wait()
			if err := cl.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			var executed int64
			for r := 0; r < n; r++ {
				executed += cl.Executed(r)
			}
			if want := int64(masters * rounds * 2); executed != want {
				t.Fatalf("executed %d work items, want %d", executed, want)
			}
			if mech == core.MechSnapshot {
				var initiated int64
				for m := 0; m < masters; m++ {
					initiated += cl.Stats(m).SnapshotsInitiated
				}
				if want := int64(masters * rounds); initiated != want {
					t.Fatalf("snapshots initiated %d, want %d", initiated, want)
				}
			}
		})
	}
}

// TestDecisionsOnOneNodeTakeTurns has several goroutines decide on the
// same master at once. The node runs their view acquisitions one at a
// time: under snapshot every decision starts its own snapshot, none
// nested in another, and every share shipped is executed.
func TestDecisionsOnOneNodeTakeTurns(t *testing.T) {
	const callers, calls, slaves = 4, 25, 2
	for _, mech := range []core.Mech{core.MechSnapshot, core.MechIncrements} {
		t.Run(string(mech), func(t *testing.T) {
			cl, err := NewCluster(4, mech, core.Config{Threshold: core.Load{core.Workload: 10}}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			var wg sync.WaitGroup
			for range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range calls {
						if _, err := cl.DecideObserved(0, 100, slaves, 0); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := cl.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if a, x := cl.AssignedItems(), cl.ExecutedItems(); a != callers*calls*slaves || x != a {
				t.Fatalf("assigned %d, executed %d work items, want %d each", a, x, callers*calls*slaves)
			}
			if mech == core.MechSnapshot {
				if got := cl.Stats(0).SnapshotsInitiated; got != callers*calls {
					t.Fatalf("master initiated %d snapshots, want %d", got, callers*calls)
				}
			}
		})
	}
}

func TestClusterViewsConvergeAfterQuiescence(t *testing.T) {
	for _, mech := range []core.Mech{core.MechNaive, core.MechIncrements} {
		t.Run(string(mech), func(t *testing.T) { checkViewsConverge(t, mech, Options{}) })
	}
}

// checkViewsConverge: with a zero threshold every change is broadcast,
// so after quiescence all views of a maintained mechanism must return
// to zero — the trailing updates still on the wire at drain all land.
func checkViewsConverge(t *testing.T, mech core.Mech, opts Options) {
	cl, err := NewCluster(4, mech, core.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	for i := 0; i < 4; i++ {
		if err := cl.Decide(i, 40, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitViewsZero(t, func(r int) []core.Load { return cl.View(r) }, 4, 2*time.Second)
}

// drivePrograms walks compiled rank programs on a Cluster's resident
// ranks — one goroutine per rank, its steps in order — then drains.
func drivePrograms(cl *Cluster, progs []workload.Program, spin time.Duration) error {
	var wg sync.WaitGroup
	errs := make([]error, len(progs))
	for r, prog := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range prog.Steps {
				switch st.Op {
				case workload.OpDecide:
					if errs[r] = cl.Decide(r, st.Work, st.Slaves, spin); errs[r] != nil {
						return
					}
				case workload.OpLocalChange:
					cl.LocalChange(r, st.Delta)
				case workload.OpNoMoreMaster:
					cl.NoMoreMaster(r)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return cl.Drain(time.Minute)
}

// programCluster compiles a program scenario and starts a cluster
// seeded with its initial loads and speed factors.
func programCluster(t *testing.T, scenario string, p workload.Params, mech core.Mech, cfg core.Config) (*Cluster, []workload.Program) {
	t.Helper()
	w, err := workload.Get(scenario)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := w.(workload.ProgramScenario).Programs(p)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.Initial, opts.Speed = workload.Setup(progs)
	cl, err := NewCluster(len(progs), mech, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cl, progs
}

// waitViewsZero polls until every node's view is all-zero (trailing
// updates are still on the wire right after drain).
func waitViewsZero(t *testing.T, view func(r int) []core.Load, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		clean := true
		for r := 0; r < n && clean; r++ {
			for _, l := range view(r) {
				if l[core.Workload] != 0 {
					clean = false
					break
				}
			}
		}
		if clean {
			return
		}
		if time.Now().After(deadline) {
			for r := 0; r < n; r++ {
				t.Logf("node %d view: %v", r, view(r))
			}
			t.Fatal("views did not converge to zero")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterSnapshotStats: one snapshot decision on a master other
// than rank 0 is counted on that master, once, and nowhere else — while
// the cluster runs and still after Stop, when the ranks answer without
// a driver.
func TestClusterSnapshotStats(t *testing.T) {
	cl, err := NewCluster(4, core.MechSnapshot, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.Decide(2, 90, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for r := 0; r < 4; r++ {
			want := int64(0)
			if r == 2 {
				want = 1
			}
			if got := cl.Stats(r).SnapshotsInitiated; got != want {
				t.Fatalf("%s: rank %d: snapshots initiated = %d, want %d", when, r, got, want)
			}
			if got := cl.Counters(r); got.Decisions != want || got.SnapshotRounds != want {
				t.Fatalf("%s: rank %d: counters read %d decisions and %d snapshot rounds, want %d each", when, r, got.Decisions, got.SnapshotRounds, want)
			}
		}
		if v := cl.View(2); len(v) != 4 {
			t.Fatalf("%s: rank 2's view has %d entries, want 4", when, len(v))
		}
	}
	check("running")
	cl.Stop()
	check("after Stop")
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(5, 3, Options{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := NewCluster(2, "bogus", core.Config{}, Options{}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestClusterRejectsBadRank(t *testing.T) {
	cl, err := NewCluster(2, core.MechNaive, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if _, err := cl.DecideObserved(9, 10, 1, 0); err == nil {
		t.Fatal("bad master accepted")
	}
	if _, err := cl.AcquireView(9); err == nil {
		t.Fatal("bad acquiring rank accepted")
	}
}
