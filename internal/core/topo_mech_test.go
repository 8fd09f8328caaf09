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
	for _, mech := range AllMechanisms() {
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

func TestGossipSpreadsOverSparseGraph(t *testing.T) {
	// A rumor from rank 0 must reach every rank of a ring: fanout 2
	// covers both neighbors at each hop and the TTL default spans the
	// diameter.
	topo := mustTopo(t, "ring", 8)
	net := newFakeNet(8)
	for r := 0; r < 8; r++ {
		x := NewGossip(8, r, Config{Topo: topo})
		net.exs[r] = x
		x.Init(net.ctx(r), Load{})
	}
	net.exs[0].LocalChange(net.ctx(0), Load{Workload: 42}, false)
	net.drain(10000)
	for r := 1; r < 8; r++ {
		if got := net.exs[r].View().Metric(0, Workload); got != 42 {
			t.Fatalf("rank %d sees %v for origin 0, want 42", r, got)
		}
	}
}

func TestGossipDropsStaleRumors(t *testing.T) {
	topo := mustTopo(t, "ring", 4)
	net := newFakeNet(4)
	for r := 0; r < 4; r++ {
		x := NewGossip(4, r, Config{Topo: topo})
		net.exs[r] = x
		x.Init(net.ctx(r), Load{})
	}
	x1 := net.exs[1].(*Gossip)
	x1.HandleMessage(net.ctx(1), 0, KindGossip, GossipPayload{Origin: 0, Seq: 3, TTL: 1, Load: Load{Workload: 30}})
	if got := x1.View().Metric(0, Workload); got != 30 {
		t.Fatalf("fresh rumor not applied: %v", got)
	}
	x1.HandleMessage(net.ctx(1), 3, KindGossip, GossipPayload{Origin: 0, Seq: 2, TTL: 5, Load: Load{Workload: 20}})
	if got := x1.View().Metric(0, Workload); got != 30 {
		t.Fatalf("stale rumor applied: %v", got)
	}
	if len(net.queue) != 0 {
		t.Fatal("stale or TTL-expired rumor was re-forwarded")
	}
}

func TestGossipForwardingIsDeterministic(t *testing.T) {
	// Two identical runs must produce the identical delivery trace —
	// the per-rank RNG streams are pure functions of (rank, n), which
	// is what keeps sim runs reproducible and forked processes aligned.
	run := func() []fakeMsg {
		topo := mustTopo(t, "random-3", 9)
		net := newFakeNet(9)
		for r := 0; r < 9; r++ {
			x := NewGossip(9, r, Config{Topo: topo})
			net.exs[r] = x
			x.Init(net.ctx(r), Load{})
		}
		net.exs[4].LocalChange(net.ctx(4), Load{Workload: 7}, false)
		var log []fakeMsg
		for steps := 0; len(net.queue) > 0; steps++ {
			if steps > 10000 {
				t.Fatal("message storm")
			}
			log = append(log, net.queue[0])
			net.step()
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].from != b[i].from || a[i].to != b[i].to || a[i].kind != b[i].kind {
			t.Fatalf("delivery traces diverge at step %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDiffusionAveragesNeighborEstimates(t *testing.T) {
	topo := mustTopo(t, "ring", 4) // 0-1-2-3-0
	net, exs := mkTopoMech(t, MechDiffusion, topo, 0)
	// Rank 0 loads up: neighbors 1 and 3 learn the exact value.
	exs[0].LocalChange(net.ctx(0), Load{Workload: 8}, false)
	net.drain(100)
	if got := exs[1].View().Metric(0, Workload); got != 8 {
		t.Fatalf("direct neighbor sees %v, want 8 (sender's own entry is exact)", got)
	}
	if got := exs[2].View().Metric(0, Workload); got != 0 {
		t.Fatalf("non-neighbor sees %v before any relay, want 0", got)
	}
	// Rank 1 now changes: its view (holding the exact 8) diffuses to
	// rank 2, which averages 0 and 8.
	exs[1].LocalChange(net.ctx(1), Load{Workload: 2}, false)
	net.drain(100)
	if got := exs[2].View().Metric(0, Workload); got != 4 {
		t.Fatalf("two-hop estimate = %v, want 4 ((0+8)/2)", got)
	}
	// A neighbor's stale estimate of rank 2 itself must never leak in.
	if got := exs[2].View().Metric(2, Workload); got != 0 {
		t.Fatalf("rank 2's own entry drifted to %v", got)
	}
}

func TestDiffusionIgnoresMalformedVector(t *testing.T) {
	topo := mustTopo(t, "ring", 4)
	net, exs := mkTopoMech(t, MechDiffusion, topo, 0)
	exs[1].HandleMessage(net.ctx(1), 0, KindDiffuse, DiffusePayload{Loads: []Load{{Workload: 9}}})
	for r := 0; r < 4; r++ {
		if got := exs[1].View().Metric(r, Workload); got != 0 {
			t.Fatalf("malformed vector applied: rank %d = %v", r, got)
		}
	}
}

func TestGossipDiffusionRegistryAndDefaults(t *testing.T) {
	if len(Mechanisms()) != 3 {
		t.Fatal("the paper's mechanism set must stay at 3 (goldens iterate it)")
	}
	if len(AllMechanisms()) != 5 {
		t.Fatalf("AllMechanisms = %v, want the paper's 3 + gossip + diffusion", AllMechanisms())
	}
	for _, m := range []Mech{MechGossip, MechDiffusion} {
		x, err := New(m, 4, 0, Config{})
		if err != nil {
			t.Fatal(err)
		}
		switch x.(type) {
		case *Gossip:
			if m != MechGossip {
				t.Fatalf("New(%q) built a *Gossip", m)
			}
		case *Diffusion:
			if m != MechDiffusion {
				t.Fatalf("New(%q) built a *Diffusion", m)
			}
		default:
			t.Fatalf("New(%q) built a %T", m, x)
		}
		if x.Busy() {
			t.Fatal("dissemination mechanisms never block")
		}
	}
	if ttl := defaultGossipTTL(8); ttl != 5 {
		t.Fatalf("default TTL(8) = %d, want ⌈log2 8⌉+2 = 5", ttl)
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
