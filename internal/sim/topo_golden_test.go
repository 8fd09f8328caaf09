package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestFullTopologyReproducesGoldens is the refactor's strict no-op
// guarantee: running the golden scenario with an explicit `full`
// topology must reproduce the nil-topology run bit-for-bit — identical
// per-kind message counts and byte volumes, records, final views and
// mechanism stats — for every one of the paper's mechanisms. The
// neighbor seam only changes behaviour when a sparse graph is named.
func TestFullTopologyReproducesGoldens(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		w, cfg, p := goldenParams()
		base, err := workload.Run(&AppRunner{}, w, mech, cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		topo, err := core.NewTopology("full", p.Procs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topo = topo
		full, err := workload.Run(&AppRunner{}, w, mech, cfg, p)
		if err != nil {
			t.Fatalf("%s on full: %v", mech, err)
		}
		base.Elapsed, full.Elapsed = 0, 0 // wall clock, not part of the identity
		if !reflect.DeepEqual(base.Counters, full.Counters) {
			t.Errorf("%s: counters moved under full topology:\n nil:  %+v\n full: %+v",
				mech, base.Counters, full.Counters)
		}
		if !reflect.DeepEqual(base.Records, full.Records) {
			t.Errorf("%s: decision records moved under full topology", mech)
		}
		for r := range base.FinalViews {
			if !reflect.DeepEqual(base.FinalViews[r].Snapshot(), full.FinalViews[r].Snapshot()) {
				t.Errorf("%s: rank %d's final view moved under full topology", mech, r)
			}
		}
		if !reflect.DeepEqual(base.Stats, full.Stats) {
			t.Errorf("%s: mechanism stats moved under full topology", mech)
		}
		if !reflect.DeepEqual(base.Executed, full.Executed) {
			t.Errorf("%s: executed counts moved under full topology", mech)
		}
	}
}

// TestSparseTopologyRunsGoldenScenario drives the golden scenario over
// sparse graphs with every mechanism (the paper's three restricted to
// neighbors, plus the two dissemination tenants): the runs must
// complete — with the network panicking on any state message that
// crosses a non-edge — and still execute all work, since quickstart's
// masters assign only to ranks the decision plan reaches.
func TestSparseTopologyRunsGoldenScenario(t *testing.T) {
	for _, mech := range core.AllMechanisms() {
		for _, name := range []string{"ring", "grid2d"} {
			w, cfg, p := goldenParams()
			topo, err := core.NewTopology(name, p.Procs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Topo = topo
			rep, err := workload.Run(&AppRunner{}, w, mech, cfg, p)
			if err != nil {
				t.Fatalf("%s on %s: %v", mech, name, err)
			}
			if rep.DecisionsTaken != 6 {
				t.Errorf("%s on %s: %d decisions, want 6", mech, name, rep.DecisionsTaken)
			}
			if got := rep.TotalExecuted(); got != 12 {
				t.Errorf("%s on %s: executed %d items, want 12", mech, name, got)
			}
			// Every assignment of every decision stayed on an edge.
			for _, rec := range rep.Records {
				for _, a := range rec.Assignments {
					if !topo.Edge(rec.Master, int(a.Proc)) {
						t.Errorf("%s on %s: master %d assigned to non-neighbor %d",
							mech, name, rec.Master, a.Proc)
					}
				}
			}
		}
	}
}
