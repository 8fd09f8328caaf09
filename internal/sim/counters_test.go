package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// goldenParams is the small deterministic scenario the golden counter
// values below were captured from: quickstart on 6 procs, 2 masters × 3
// decisions × 60 work units over the 2 least-loaded slaves.
func goldenParams() (workload.Workload, core.Config, workload.Params) {
	w, err := workload.Get("quickstart")
	if err != nil {
		panic(err)
	}
	cfg := core.Config{Threshold: core.Load{core.Workload: 5}, NoMoreMasterOpt: true}
	p := workload.Params{Procs: 6, Masters: 2, Decisions: 3, Work: 60, Slaves: 2, Spin: time.Millisecond}
	return w, cfg, p
}

func runGolden(t *testing.T, mech core.Mech) *workload.Report {
	t.Helper()
	w, cfg, p := goldenParams()
	rep, err := NewWorkloadDriver().Run(w, mech, cfg, p)
	if err != nil {
		t.Fatalf("%s: %v", mech, err)
	}
	return rep
}

// kindGolden pins one state kind's exact message count and volume.
type kindGolden struct {
	kind  int
	msgs  int64
	bytes float64
}

// checkKinds asserts the per-kind tallies exactly, including that no
// unlisted kind appears.
func checkKinds(t *testing.T, mech core.Mech, c core.Counters, want []kindGolden) {
	t.Helper()
	if len(c.PerKind) != len(want) {
		t.Errorf("%s: %d state kinds on the wire, want %d (%v)", mech, len(c.PerKind), len(want), c.PerKind)
	}
	var msgs int64
	var bytes float64
	for _, g := range want {
		got := c.Kind(g.kind)
		if got.Msgs != g.msgs || got.Bytes != g.bytes {
			t.Errorf("%s %s: got %d msgs / %g bytes, want %d / %g",
				mech, core.KindName(g.kind), got.Msgs, got.Bytes, g.msgs, g.bytes)
		}
		msgs += g.msgs
		bytes += g.bytes
	}
	if c.StateMsgs != msgs || c.StateBytes != bytes {
		t.Errorf("%s: totals %d msgs / %g bytes do not equal per-kind sum %d / %g",
			mech, c.StateMsgs, c.StateBytes, msgs, bytes)
	}
}

// TestSimGoldenCountersNaive pins the naive mechanism's exact message
// accounting on the deterministic simulator: every decision's slave
// variations re-broadcast absolute loads, twice per executed item (load
// up, load down), to all 5 peers.
func TestSimGoldenCountersNaive(t *testing.T) {
	rep := runGolden(t, core.MechNaive)
	c := rep.Counters
	if rep.DecisionsTaken != 6 || rep.TotalExecuted() != 12 {
		t.Fatalf("decisions=%d executed=%d, want 6 and 12", rep.DecisionsTaken, rep.TotalExecuted())
	}
	checkKinds(t, core.MechNaive, c, []kindGolden{
		{core.KindUpdate, 120, 120 * core.BytesUpdate},
	})
	if st := rep.TotalStats(); st.UpdatesSent != 120 {
		t.Fatalf("updates sent = %d, want 120", st.UpdatesSent)
	}
	if c.DataMsgs != 12 || c.DataBytes != 12*core.BytesWorkItem {
		t.Fatalf("data = %d msgs / %g bytes, want 12 / %g", c.DataMsgs, c.DataBytes, 12*core.BytesWorkItem)
	}
	if c.SnapshotRounds != 0 || c.DecisionLatency != 0 || c.BusyTime != 0 {
		t.Fatalf("maintained mechanism has snapshot costs: %+v", c)
	}
}

// TestSimGoldenCountersIncrements pins the increments mechanism: the
// reservation broadcast makes decisions visible system-wide, so slaves
// skip the positive re-announcement and only the load decrements flush —
// half the naive scheme's updates, plus 5 master_to_all per decision.
func TestSimGoldenCountersIncrements(t *testing.T) {
	rep := runGolden(t, core.MechIncrements)
	c := rep.Counters
	if rep.DecisionsTaken != 6 || rep.TotalExecuted() != 12 {
		t.Fatalf("decisions=%d executed=%d, want 6 and 12", rep.DecisionsTaken, rep.TotalExecuted())
	}
	checkKinds(t, core.MechIncrements, c, []kindGolden{
		{core.KindUpdate, 60, 60 * core.BytesUpdate},
		{core.KindMasterToAll, 30, 30 * core.MasterToAllBytes(2)},
	})
	st := rep.TotalStats()
	if st.UpdatesSent != 60 || st.ReservationsSent != 6 {
		t.Fatalf("updates=%d reservations=%d, want 60 and 6", st.UpdatesSent, st.ReservationsSent)
	}
	if c.SnapshotRounds != 0 || c.DecisionLatency != 0 || c.BusyTime != 0 {
		t.Fatalf("maintained mechanism has snapshot costs: %+v", c)
	}
}

// TestSimGoldenCountersSnapshot pins the snapshot mechanism: 6
// demand-driven snapshots, one of which loses its election and restarts,
// so 7 start_snp rounds; every completed snapshot collects 5 replies
// and broadcasts 5 end_snp; each decision informs its 2 slaves.
func TestSimGoldenCountersSnapshot(t *testing.T) {
	rep := runGolden(t, core.MechSnapshot)
	c := rep.Counters
	if rep.DecisionsTaken != 6 || rep.TotalExecuted() != 12 {
		t.Fatalf("decisions=%d executed=%d, want 6 and 12", rep.DecisionsTaken, rep.TotalExecuted())
	}
	checkKinds(t, core.MechSnapshot, c, []kindGolden{
		{core.KindStartSnp, 35, 35 * core.BytesStartSnp},
		{core.KindSnp, 30, 30 * core.BytesSnp},
		{core.KindEndSnp, 30, 30 * core.BytesEndSnp},
		{core.KindMasterToSlave, 12, 12 * core.BytesMasterToSlave},
	})
	st := rep.TotalStats()
	if st.SnapshotsInitiated != 6 || st.SnapshotRestarts != 1 {
		t.Fatalf("initiated=%d restarts=%d, want 6 and 1", st.SnapshotsInitiated, st.SnapshotRestarts)
	}
	// Snapshot rounds = decisions + election-loss restarts, and each
	// round broadcast start_snp to all 5 peers.
	if c.SnapshotRounds != 7 {
		t.Fatalf("snapshot rounds = %d, want 7 (6 decisions + 1 restart)", c.SnapshotRounds)
	}
	if got := c.Kind(core.KindStartSnp).Msgs; got != c.SnapshotRounds*5 {
		t.Fatalf("start_snp msgs = %d, want rounds×5 = %d", got, c.SnapshotRounds*5)
	}
	// The demand-driven scheme pays for its exact views in time:
	// acquire latency and snapshot-blocked busy time are positive, in
	// deterministic virtual seconds.
	if c.Decisions != 6 || c.DecisionLatency <= 0 {
		t.Fatalf("decisions=%d latency=%g, want 6 with positive latency", c.Decisions, c.DecisionLatency)
	}
	if c.BusyTime <= c.DecisionLatency {
		t.Fatalf("busy time %g should exceed initiator latency %g (bystanders block too)",
			c.BusyTime, c.DecisionLatency)
	}
	if st.SnapshotTime != c.DecisionLatency {
		t.Fatalf("mechanism SnapshotTime %g != counters DecisionLatency %g (same quantity, two paths)",
			st.SnapshotTime, c.DecisionLatency)
	}
}

// TestSimCountersMechanismOrdering pins the paper's headline comparison
// on one deterministic workload: the increments scheme sends strictly
// fewer updates than the naive scheme, and the snapshot scheme sends no
// spontaneous updates at all but pays decision latency.
func TestSimCountersMechanismOrdering(t *testing.T) {
	naive := runGolden(t, core.MechNaive)
	incr := runGolden(t, core.MechIncrements)
	snap := runGolden(t, core.MechSnapshot)
	if n, i := naive.TotalStats().UpdatesSent, incr.TotalStats().UpdatesSent; n <= i {
		t.Fatalf("naive updates (%d) must exceed increments updates (%d)", n, i)
	}
	if u := snap.Counters.Kind(core.KindUpdate).Msgs; u != 0 {
		t.Fatalf("snapshot mechanism sent %d spontaneous updates, want 0", u)
	}
	if naive.Counters.DecisionLatency != 0 || incr.Counters.DecisionLatency != 0 {
		t.Fatal("maintained mechanisms must acquire views with zero latency")
	}
	if snap.Counters.DecisionLatency <= 0 {
		t.Fatal("snapshot mechanism must pay positive acquire latency")
	}
	// All three move the same application work.
	if naive.Counters.DataMsgs != incr.Counters.DataMsgs || incr.Counters.DataMsgs != snap.Counters.DataMsgs {
		t.Fatalf("data-channel item counts diverge: %d / %d / %d",
			naive.Counters.DataMsgs, incr.Counters.DataMsgs, snap.Counters.DataMsgs)
	}
}
