package chaos

import "testing"

// sparseRun is a minimal 4-rank ring trace satisfying every invariant:
// state messages travel ring edges only and the one decision selects
// the master's least-loaded neighbors.
func sparseRun() []Event {
	return []Event{
		{Ev: EvMeta, N: 4, Scenario: "s", Mech: "naive", Topo: "ring"},
		{Ev: EvState, Rank: 0, Peer: 1, Kind: 1},
		{Ev: EvState, Rank: 0, Peer: 3, Kind: 1},
		{Ev: EvState, Rank: 2, Peer: 1, Kind: 1},
		{Ev: EvSend, Rank: 0, Peer: 1, Kind: 1, Work: 2},
		{Ev: EvRecv, Rank: 1, Peer: 0, Kind: 1, Work: 2},
		{Ev: EvStart, Rank: 1, Spin: 0.5},
		{Ev: EvDone, Rank: 1},
		// Rank 0's neighbors on the 4-ring are {1, 3}; both are lighter
		// than the non-neighbor 2, which a full-graph selection would
		// also have taken.
		{Ev: EvDecide, Rank: 0, View: []float64{9, 1, 0, 2}, Sel: []int{1, 3}},
		{Ev: EvFinal, Rank: 0, Executed: 0},
		{Ev: EvFinal, Rank: 1, Executed: 1},
		{Ev: EvFinal, Rank: 2, Executed: 0},
		{Ev: EvFinal, Rank: 3, Executed: 0},
	}
}

func TestValidateSparseTopologyClean(t *testing.T) {
	r := Validate(sparseRun())
	if !r.OK() {
		t.Fatalf("clean sparse run flagged: %v", r.Violations)
	}
	if r.Topo != "ring" || r.States != 3 {
		t.Fatalf("bad tallies: topo=%q states=%d", r.Topo, r.States)
	}
}

func TestValidateSparseTopologyViolations(t *testing.T) {
	cases := []struct {
		name, check string
		mutate      func([]Event) []Event
	}{
		{"state across a non-edge", "topology", func(e []Event) []Event {
			return append(e, Event{Ev: EvState, Rank: 0, Peer: 2, Kind: 1})
		}},
		{"selection outside the neighborhood", "selection", func(e []Event) []Event {
			// Rank 2 is the globally least-loaded but not a neighbor of 0.
			e[8].Sel = []int{1, 2}
			return e
		}},
		{"unbuildable topology", "meta", func(e []Event) []Event {
			e[0].Topo = "moebius"
			return e
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Validate(tc.mutate(sparseRun()))
			if r.OK() {
				t.Fatalf("violation not detected")
			}
			if !violated(r, tc.check) {
				t.Fatalf("want a %q violation, got %v", tc.check, r.Violations)
			}
		})
	}
}

// TestValidateFullTopologyUnrestricted pins the no-op edge of the seam:
// a run whose meta names the full topology validates exactly like one
// naming none — any state route and any least-loaded selection pass.
func TestValidateFullTopologyUnrestricted(t *testing.T) {
	e := sparseRun()
	e[0].Topo = "full"
	e = append(e, Event{Ev: EvState, Rank: 0, Peer: 2, Kind: 1})
	// With every rank a candidate, the least-loaded pair is {2, 1}.
	e[8].Sel = []int{1, 2}
	if r := Validate(e); !r.OK() {
		t.Fatalf("full-topology run flagged: %v", r.Violations)
	}
}
