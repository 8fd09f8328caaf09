package core

import (
	"testing"
)

func mkMaintained(t *testing.T, mech Mech, n int, thr float64) (*fakeNet, []Exchanger) {
	t.Helper()
	net := newFakeNet(n)
	exs := make([]Exchanger, n)
	for r := 0; r < n; r++ {
		x, err := New(mech, n, r, Config{Threshold: Load{Workload: thr}, NoMoreMasterOpt: true})
		if err != nil {
			t.Fatal(err)
		}
		net.exs[r] = x
		exs[r] = x
		x.Init(net.ctx(r), Load{})
	}
	return net, exs
}

func TestNaiveThresholdSuppresssSmallChanges(t *testing.T) {
	net, exs := mkMaintained(t, MechNaive, 3, 10)
	exs[0].LocalChange(net.ctx(0), Load{Workload: 5}, false)
	if len(net.queue) != 0 {
		t.Fatal("sub-threshold change broadcast")
	}
	exs[0].LocalChange(net.ctx(0), Load{Workload: 6}, false) // total 11 > 10
	if len(net.queue) != 2 {
		t.Fatalf("queued %d, want 2 (one per peer)", len(net.queue))
	}
	net.drain(100)
	if got := exs[1].View().Metric(0, Workload); got != 11 {
		t.Fatalf("peer view = %v, want 11 (absolute)", got)
	}
}

func TestNaiveViewIsAbsoluteNotCumulative(t *testing.T) {
	net, exs := mkMaintained(t, MechNaive, 2, 1)
	exs[0].LocalChange(net.ctx(0), Load{Workload: 5}, false)
	net.drain(100)
	exs[0].LocalChange(net.ctx(0), Load{Workload: 5}, false)
	net.drain(100)
	if got := exs[1].View().Metric(0, Workload); got != 10 {
		t.Fatalf("view = %v, want 10", got)
	}
	// A lost/reordered absolute update cannot double-count: re-sending
	// the same absolute value leaves the view unchanged.
	exs[1].HandleMessage(net.ctx(1), 0, KindUpdate, UpdatePayload{Load: Load{Workload: 10}})
	if got := exs[1].View().Metric(0, Workload); got != 10 {
		t.Fatalf("view = %v after duplicate absolute, want 10", got)
	}
}

func TestNaiveCommitOnlyLocal(t *testing.T) {
	// Naive Commit must not send anything (no reservation mechanism) but
	// must update the master's own estimates.
	net, exs := mkMaintained(t, MechNaive, 3, 1)
	exs[0].Commit(net.ctx(0), []Assignment{{Proc: 1, Delta: Load{Workload: 50}}})
	if len(net.queue) != 0 {
		t.Fatal("naive Commit sent messages")
	}
	if got := exs[0].View().Metric(1, Workload); got != 50 {
		t.Fatalf("master's own view = %v, want 50", got)
	}
	if got := exs[2].View().Metric(1, Workload); got != 0 {
		t.Fatalf("bystander view = %v, want 0 (uninformed: the Figure 1 flaw)", got)
	}
}

func TestFigure1ScenarioNaiveVsIncrements(t *testing.T) {
	// Figure 1: P2 is busy with a long task. P0 selects P2 as slave, then
	// P1 performs its own selection before P2 ever runs again. Under the
	// naive mechanism P1's view of P2 is stale (it still sees 0); under
	// increments the Master_To_All from P0 has already informed P1.
	for _, mech := range []Mech{MechNaive, MechIncrements} {
		net, exs := mkMaintained(t, mech, 3, 1)
		// P0 decides: assigns 100 units to P2.
		asg := []Assignment{{Proc: 2, Delta: Load{Workload: 100}}}
		exs[0].Acquire(net.ctx(0), func() {})
		exs[0].Commit(net.ctx(0), asg)
		// All state messages are delivered (P2 computes, but state
		// messages are treated before P1's decision per Algorithm 1).
		net.drain(100)
		got := exs[1].View().Metric(2, Workload)
		switch mech {
		case MechNaive:
			if got != 0 {
				t.Fatalf("naive: P1 sees %v for P2, want stale 0", got)
			}
		case MechIncrements:
			if got != 100 {
				t.Fatalf("increments: P1 sees %v for P2, want 100 (reserved)", got)
			}
			// And P2 itself was credited by the Master_To_All.
			if self := exs[2].View().Load(2); self[Workload] != 100 {
				t.Fatalf("increments: P2 self load = %v, want 100", self[Workload])
			}
		}
	}
}

func TestIncrementsDeltaAccumulation(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 2, 10)
	for i := 0; i < 5; i++ {
		exs[0].LocalChange(net.ctx(0), Load{Workload: 3}, false)
	}
	// 15 > 10 at the 4th change: one flush happened, remainder pending.
	net.drain(100)
	if got := exs[1].View().Metric(0, Workload); got != 12 {
		t.Fatalf("view = %v, want 12 (flush at 12, 3 pending)", got)
	}
	if got := exs[0].View().Load(0)[Workload]; got != 15 {
		t.Fatalf("local = %v, want 15", got)
	}
}

func TestIncrementsNegativeDeltasBroadcast(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 2, 10)
	exs[0].LocalChange(net.ctx(0), Load{Workload: -20}, false)
	net.drain(100)
	if got := exs[1].View().Metric(0, Workload); got != -20 {
		t.Fatalf("view = %v, want -20 (|Δ| crosses threshold)", got)
	}
}

func TestIncrementsSlavePositiveSkipped(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 3, 1)
	// Master P0 reserves 100 on P1.
	exs[0].Commit(net.ctx(0), []Assignment{{Proc: 1, Delta: Load{Workload: 100}}})
	net.drain(100)
	if got := exs[1].View().Load(1)[Workload]; got != 100 {
		t.Fatalf("slave local = %v, want 100 from reservation", got)
	}
	// The subtask arrives: the positive slave-side variation must be
	// skipped (already accounted).
	exs[1].LocalChange(net.ctx(1), Load{Workload: 100}, true)
	if got := exs[1].View().Load(1)[Workload]; got != 100 {
		t.Fatalf("slave local = %v after subtask arrival, want still 100", got)
	}
	// Finishing the work (negative, as slave) must flow normally.
	exs[1].LocalChange(net.ctx(1), Load{Workload: -100}, true)
	net.drain(100)
	if got := exs[1].View().Load(1)[Workload]; got != 0 {
		t.Fatalf("slave local = %v after completion, want 0", got)
	}
	if got := exs[2].View().Metric(1, Workload); got != 0 {
		t.Fatalf("bystander sees %v, want 0 (reservation 100 then -100)", got)
	}
}

func TestIncrementsViewsConvergeWithZeroThreshold(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 4, 0)
	changes := []struct {
		rank int
		d    float64
	}{{0, 10}, {1, -3}, {2, 7}, {0, 5}, {3, 2}, {1, 8}}
	want := map[int]float64{}
	for _, c := range changes {
		exs[c.rank].LocalChange(net.ctx(c.rank), Load{Workload: c.d}, false)
		want[c.rank] += c.d
	}
	net.drain(1000)
	for viewer := 0; viewer < 4; viewer++ {
		for target := 0; target < 4; target++ {
			if got := exs[viewer].View().Metric(target, Workload); got != want[target] {
				t.Fatalf("proc %d sees %v for %d, want %v", viewer, got, target, want[target])
			}
		}
	}
}

func TestNoMoreMasterPrunesUpdates(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 3, 0)
	// P2 announces it will never be master again.
	exs[2].NoMoreMaster(net.ctx(2))
	net.drain(100)
	before := net.sent[KindUpdate]
	exs[0].LocalChange(net.ctx(0), Load{Workload: 5}, false)
	sent := net.sent[KindUpdate] - before
	if sent != 1 {
		t.Fatalf("update sent to %d peers, want 1 (P2 pruned)", sent)
	}
	net.drain(100)
	// But a Master_To_All that selects P2 still reaches it.
	exs[0].Commit(net.ctx(0), []Assignment{{Proc: 2, Delta: Load{Workload: 9}}})
	net.drain(100)
	if got := exs[2].View().Load(2)[Workload]; got != 9 {
		t.Fatalf("pruned slave local = %v, want 9 (still receives its reservation)", got)
	}
}

func TestMaintainedMechanismsNeverBusy(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 2, 0)
	exs[0].Acquire(net.ctx(0), func() {})
	if exs[0].Busy() || exs[1].Busy() {
		t.Fatal("maintained mechanism reported Busy")
	}
	net2, exs2 := mkMaintained(t, MechNaive, 2, 0)
	exs2[0].Acquire(net2.ctx(0), func() {})
	if exs2[0].Busy() {
		t.Fatal("naive reported Busy")
	}
}

func TestAcquireIsSynchronousForMaintained(t *testing.T) {
	net, exs := mkMaintained(t, MechIncrements, 2, 0)
	called := false
	exs[0].Acquire(net.ctx(0), func() { called = true })
	if !called {
		t.Fatal("maintained Acquire must call ready synchronously")
	}
}

func TestMultiMetricThreshold(t *testing.T) {
	net := newFakeNet(2)
	for r := 0; r < 2; r++ {
		x := NewIncrements(2, r, Config{Threshold: Load{Workload: 100, Memory: 10}})
		net.exs[r] = x
		x.Init(net.ctx(r), Load{})
	}
	x0 := net.exs[0].(*Increments)
	// Memory crosses its threshold even though workload does not.
	x0.LocalChange(net.ctx(0), Load{Workload: 1, Memory: 11}, false)
	net.drain(10)
	if got := net.exs[1].View().Metric(0, Memory); got != 11 {
		t.Fatalf("memory view = %v, want 11", got)
	}
	if got := net.exs[1].View().Metric(0, Workload); got != 1 {
		t.Fatalf("workload rides along = %v, want 1", got)
	}
}

func TestNewRejectsUnknownMechanism(t *testing.T) {
	if _, err := New(Mech("bogus"), 2, 0, Config{}); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if len(Mechanisms()) != 3 {
		t.Fatal("want 3 mechanisms")
	}
}
