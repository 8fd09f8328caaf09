package net

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestClusterBasicWorkflow(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			cl, err := NewCluster(4, mech, core.Config{Threshold: core.Load{core.Workload: 1}}, Options{})
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
// test, mirroring internal/live's: several masters decide
// simultaneously over real TCP, so state traffic, data traffic and (for
// the snapshot mechanism) leader elections race end to end. Run with
// -race; -short keeps it in CI budget.
func TestClusterConcurrentDecisions(t *testing.T) {
	rounds := 5
	if testing.Short() {
		rounds = 3
	}
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			const n, masters = 6, 3
			cl, err := NewCluster(n, mech, core.Config{Threshold: core.Load{core.Workload: 10}}, Options{})
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

func TestClusterViewsConvergeAfterQuiescence(t *testing.T) {
	// Zero threshold: every change is broadcast, so after quiescence all
	// views must return to zero.
	cl, err := NewCluster(4, core.MechIncrements, core.Config{}, Options{})
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

func TestNodeDoneProtocol(t *testing.T) {
	// The multi-process termination handshake: masters announce Done
	// after draining; every node observes all announcements.
	cl, err := NewCluster(3, core.MechNaive, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.Decide(0, 30, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Node(0).DrainOwn(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cl.Node(0).AnnounceDone()
	deadline := time.Now().Add(2 * time.Second)
	for r := 1; r < 3; r++ {
		for cl.Node(r).DonesReceived() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never saw the done announcement", r)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(5, 3, core.MechNaive, core.Config{}, Options{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := NewNode(0, 1, "bogus", core.Config{}, Options{}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}
