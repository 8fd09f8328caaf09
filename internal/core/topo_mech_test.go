package core

import (
	"slices"
	"testing"
)

// mkTopoMech builds one mechanism per rank over the given topology and
// wires them through the deterministic fake fabric, recording every
// send's endpoints so tests can assert no state message ever crosses a
// non-edge.
func mkTopoMech(t *testing.T, mech Mech, topo *Topology, thr float64) (*fakeNet, []Exchanger) {
	t.Helper()
	n := topo.N()
	net := newFakeNet(n)
	for r := 0; r < n; r++ {
		x, err := New(mech, n, r, Config{Threshold: Load{Workload: thr}, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		net.exs[r] = x
		x.Init(net.ctx(r), Load{})
	}
	return net, net.exs
}

// drainOnEdges drains the fabric, asserting every delivered message
// travels a topology edge.
func drainOnEdges(t *testing.T, net *fakeNet, topo *Topology, limit int) {
	t.Helper()
	for steps := 0; len(net.queue) > 0; steps++ {
		if steps > limit {
			t.Fatal("message storm")
		}
		m := net.queue[0]
		if !topo.Edge(m.from, m.to) {
			t.Fatalf("%s sent %d→%d across a non-edge of %s", KindName(m.kind), m.from, m.to, topo.Name())
		}
		net.step()
	}
}

func TestMechanismsStayOnTopologyEdges(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, topoName := range []string{"ring", "grid2d", "hypercube"} {
			topo := mustTopo(t, topoName, 8)
			net, exs := mkTopoMech(t, mech, topo, 0)
			// Exercise every send path: spontaneous changes, a decision
			// (Acquire/Commit) from two masters, and No_more_master.
			for r := 0; r < 8; r++ {
				exs[r].LocalChange(net.ctx(r), Load{Workload: float64(r + 1)}, false)
			}
			drainOnEdges(t, net, topo, 10000)
			for _, master := range []int{0, 5} {
				done := false
				exs[master].Acquire(net.ctx(master), func() { done = true })
				drainOnEdges(t, net, topo, 10000)
				if !done {
					t.Fatalf("%s on %s: Acquire never became ready", mech, topoName)
				}
				d := PlanDecisionOn(topo, exs[master].View(), master, 2, 60)
				for _, a := range d.Assignments {
					if !topo.Edge(master, int(a.Proc)) {
						t.Fatalf("%s on %s: master %d selected non-neighbor %d", mech, topoName, master, a.Proc)
					}
				}
				exs[master].Commit(net.ctx(master), d.Assignments)
				drainOnEdges(t, net, topo, 10000)
			}
			exs[3].NoMoreMaster(net.ctx(3))
			drainOnEdges(t, net, topo, 10000)
		}
	}
}

// peersOracle is the materialised list peers must walk: the topology's
// neighbors, or every other rank, ascending.
func peersOracle(topo *Topology, n, rank int) []int {
	if !topo.IsFull() {
		return topo.Neighbors(rank)
	}
	return allOtherRanks(n, rank)
}

// sentTo drains what rank `from` queued on the fabric without delivering
// it, asserting every message has the given kind, and returns the
// recipients in send order.
func sentTo(t *testing.T, net *fakeNet, from, kind int) []int {
	t.Helper()
	var to []int
	for _, m := range net.queue {
		if m.from != from || m.kind != kind {
			t.Fatalf("unexpected %s %d→%d, want only %s from %d", KindName(m.kind), m.from, m.to, KindName(kind), from)
		}
		to = append(to, m.to)
	}
	net.queue = nil
	return to
}

// maintainedTopos are the graphs the §2.3 tests sweep: two sparse ones,
// the generated complete graph and the nil topology that implies it.
func maintainedTopos(t *testing.T, n int) map[string]*Topology {
	return map[string]*Topology{
		"ring": mustTopo(t, "ring", n), "random-3": mustTopo(t, "random-3", n),
		"full": mustTopo(t, "full", n), "nil": nil,
	}
}

func TestNoMoreMasterReachesExactlyThePeers(t *testing.T) {
	// §2.3: the announcement goes to whoever sends this rank updates —
	// its neighbors on a sparse graph, all n-1 ranks on the complete one
	// (there as one Broadcast, which the fabric expands) — ascending.
	const n = 9
	for _, mech := range []Mech{MechNaive, MechIncrements} {
		for name, topo := range maintainedTopos(t, n) {
			for r := 0; r < n; r++ {
				net := newFakeNet(n)
				x, err := New(mech, n, r, Config{NoMoreMasterOpt: true, Topo: topo})
				if err != nil {
					t.Fatal(err)
				}
				x.NoMoreMaster(net.ctx(r))
				if got, want := sentTo(t, net, r, KindNoMoreMaster), peersOracle(topo, n, r); !slices.Equal(got, want) {
					t.Fatalf("%s on %s: rank %d announced to %v, want %v", mech, name, r, got, want)
				}
			}
		}
	}
}

func TestUpdatesAndReservationsHonourNoMoreMaster(t *testing.T) {
	// flush, maybeBroadcast and Commit walk the same peers, ascending,
	// minus the ranks that declared No_more_master — except that a
	// reservation still reaches a pruned rank it selects.
	const n, quitter = 9, 4
	for _, mech := range []Mech{MechNaive, MechIncrements} {
		for name, topo := range maintainedTopos(t, n) {
			net := newFakeNet(n)
			for r := 0; r < n; r++ {
				x, err := New(mech, n, r, Config{NoMoreMasterOpt: true, Topo: topo})
				if err != nil {
					t.Fatal(err)
				}
				net.exs[r] = x
				x.Init(net.ctx(r), Load{})
			}
			net.exs[quitter].NoMoreMaster(net.ctx(quitter))
			net.drain(100)
			for r := 0; r < n; r++ {
				if r == quitter {
					continue
				}
				all := peersOracle(topo, n, r)
				pruned := slices.DeleteFunc(slices.Clone(all), func(p int) bool { return p == quitter })
				net.exs[r].LocalChange(net.ctx(r), Load{Workload: 5}, false)
				if got := sentTo(t, net, r, KindUpdate); !slices.Equal(got, pruned) {
					t.Fatalf("%s on %s: rank %d updated %v, want %v", mech, name, r, got, pruned)
				}
				if mech != MechIncrements {
					continue
				}
				net.exs[r].Commit(net.ctx(r), []Assignment{{Proc: int32(pruned[0]), Delta: Load{Workload: 1}}})
				if got := sentTo(t, net, r, KindMasterToAll); !slices.Equal(got, pruned) {
					t.Fatalf("%s on %s: rank %d reserved to %v, want %v", mech, name, r, got, pruned)
				}
				if !slices.Contains(all, quitter) {
					continue
				}
				net.exs[r].Commit(net.ctx(r), []Assignment{{Proc: quitter, Delta: Load{Workload: 1}}})
				if got := sentTo(t, net, r, KindMasterToAll); !slices.Equal(got, all) {
					t.Fatalf("%s on %s: rank %d reserved to %v, want %v (the selected quitter included)", mech, name, r, got, all)
				}
			}
		}
	}
}
