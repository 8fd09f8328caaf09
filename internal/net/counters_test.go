package net

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestDriverCounters checks the in-process TCP runtime fills the uniform
// counters coherently under real concurrency: totals equal the per-kind
// sum, the mechanism stats and the transport tallies agree on the
// quantities they both see, and every decision is accounted.
func TestDriverCounters(t *testing.T) {
	// Every work item is one TypeData frame of fixed size.
	item, err := BinaryCodec{}.Encode(nil, DataMessage(0, workload.DataMsg{}))
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Params{Procs: 5, Masters: 2, Decisions: 3, Work: 60, Slaves: 2, Spin: 200 * time.Microsecond}
	cfg := core.Config{Threshold: core.Load{core.Workload: 5}, NoMoreMasterOpt: true}
	w, err := workload.Get("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range core.Mechanisms() {
		mech := mech
		t.Run(string(mech), func(t *testing.T) {
			rep, err := workload.Run(&AppRunner{}, w, mech, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			c := rep.Counters
			var msgs int64
			var bytes float64
			for _, tally := range c.PerKind {
				msgs += tally.Msgs
				bytes += tally.Bytes
			}
			if c.StateMsgs != msgs || c.StateBytes != bytes {
				t.Fatalf("totals (%d, %g) != per-kind sum (%d, %g)", c.StateMsgs, c.StateBytes, msgs, bytes)
			}
			if c.Decisions != int64(rep.DecisionsTaken) {
				t.Fatalf("counters saw %d decisions, report %d", c.Decisions, rep.DecisionsTaken)
			}
			if c.DataMsgs != rep.TotalExecuted() {
				t.Fatalf("data items %d != executed %d", c.DataMsgs, rep.TotalExecuted())
			}
			if c.DataBytes != float64(c.DataMsgs*int64(len(item))) {
				t.Fatalf("data bytes %g != items × %d-byte data frame", c.DataBytes, len(item))
			}
			st := rep.TotalStats()
			if got := c.Kind(core.KindUpdate).Msgs; got != st.UpdatesSent {
				t.Fatalf("update tally %d != mechanism UpdatesSent %d", got, st.UpdatesSent)
			}
			if c.SnapshotRounds != core.SnapshotRoundsOf(st) {
				t.Fatalf("snapshot rounds %d != initiated+restarts %d", c.SnapshotRounds, core.SnapshotRoundsOf(st))
			}
			if mech == core.MechSnapshot {
				if c.DecisionLatency <= 0 || c.BusyTime <= 0 {
					t.Fatalf("snapshot runtime costs missing: latency=%g busy=%g", c.DecisionLatency, c.BusyTime)
				}
				if got, want := c.Kind(core.KindMasterToSlave).Msgs, int64(rep.DecisionsTaken*p.Slaves); got != want {
					t.Fatalf("master_to_slave %d, want decisions×slaves = %d", got, want)
				}
			} else if c.SnapshotRounds != 0 {
				t.Fatalf("maintained mechanism ran %d snapshot rounds", c.SnapshotRounds)
			}
		})
	}
}
