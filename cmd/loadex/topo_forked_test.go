package main

import (
	"testing"
	"time"
)

// TestForkedClusterSparseTopology runs the maintained mechanisms over a
// forked ring cluster: one OS process per rank, TCP links dialed
// only along ring edges, quiescence decided by the termination detector
// whose control frames travel those links too. The run must execute
// every assigned work item — on the ring each master's 2 slaves are
// exactly its 2 neighbors.
func TestForkedClusterSparseTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a multi-process TCP cluster")
	}
	exe := buildLoadex(t)

	for _, mech := range []string{"naive", "increments"} {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			p := nodeParams{
				procs: 6, scenario: "quickstart", mech: mech, topo: "ring",
				threshold: 5, noMore: true, term: "ds",
				masters: 2, decisions: 2, work: 60, slaves: 2,
				spin: 200 * time.Microsecond,
			}
			stats, err := runClusterForkedWith(exe, &p)
			if err != nil {
				t.Fatal(err)
			}
			var executed, decisions int64
			for _, s := range stats {
				executed += s.Executed
				decisions += int64(s.Decisions)
			}
			if want := int64(p.masters * p.decisions); decisions != want {
				t.Errorf("decisions %d, want %d", decisions, want)
			}
			if want := int64(p.masters * p.decisions * p.slaves); executed != want {
				t.Errorf("executed %d, want %d", executed, want)
			}
		})
	}
}
