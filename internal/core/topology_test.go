package core

import (
	"strings"
	"testing"
)

// checkTopology asserts structural sanity: symmetry, sortedness, no
// self-loops or duplicates, and Edge/Neighbors agreement.
func checkTopology(t *testing.T, topo *Topology) {
	t.Helper()
	n := topo.N()
	for r := 0; r < n; r++ {
		last := -1
		for _, p := range topo.Neighbors(r) {
			if p == r {
				t.Fatalf("%s/%d: rank %d is its own neighbor", topo.Name(), n, r)
			}
			if p <= last {
				t.Fatalf("%s/%d: rank %d neighbors not strictly ascending: %v", topo.Name(), n, r, topo.Neighbors(r))
			}
			last = p
			if !topo.Edge(r, p) || !topo.Edge(p, r) {
				t.Fatalf("%s/%d: edge (%d,%d) not symmetric", topo.Name(), n, r, p)
			}
			found := false
			for _, q := range topo.Neighbors(p) {
				if q == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s/%d: %d lists %d but not vice versa", topo.Name(), n, r, p)
			}
		}
		if topo.Degree(r) != len(topo.Neighbors(r)) {
			t.Fatalf("%s/%d: degree mismatch on rank %d", topo.Name(), n, r)
		}
	}
	if topo.Edge(0, 0) {
		t.Fatalf("%s: self-loop reported as edge", topo.Name())
	}
}

// connected reports whether the graph is connected (every generator
// must produce a connected graph, or the termination detector's
// spanning tree cannot reach everyone).
func connected(topo *Topology) bool {
	n := topo.N()
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range topo.Neighbors(r) {
			if !seen[p] {
				seen[p] = true
				count++
				stack = append(stack, p)
			}
		}
	}
	return count == n
}

func TestTopologyGenerators(t *testing.T) {
	for _, name := range []string{"full", "ring", "grid2d", "torus", "random-2", "random-3"} {
		for _, n := range []int{1, 2, 3, 4, 6, 7, 9, 12, 16, 31} {
			topo, err := NewTopology(name, n)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, n, err)
			}
			checkTopology(t, topo)
			if n > 1 && !connected(topo) {
				t.Fatalf("%s/%d: not connected", name, n)
			}
		}
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		topo, err := NewTopology("hypercube", n)
		if err != nil {
			t.Fatalf("hypercube/%d: %v", n, err)
		}
		checkTopology(t, topo)
		if n > 1 && !connected(topo) {
			t.Fatalf("hypercube/%d: not connected", n)
		}
	}
}

func TestTopologyFullMatchesBroadcastOrder(t *testing.T) {
	// The refactor's byte-identity hinge: on full, every rank's
	// neighbor list is every other rank ascending — the exact visit
	// order of the old `for to := 0; to < n; to++` broadcast loops.
	topo, err := NewTopology("full", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.IsFull() || (*Topology)(nil).IsFull() == false {
		t.Fatal("full/nil topology must report IsFull")
	}
	want := [][]int{{1, 2, 3, 4}, {0, 2, 3, 4}, {0, 1, 3, 4}, {0, 1, 2, 4}, {0, 1, 2, 3}}
	for r := 0; r < 5; r++ {
		got := topo.Neighbors(r)
		if len(got) != len(want[r]) {
			t.Fatalf("rank %d: %v, want %v", r, got, want[r])
		}
		for i := range got {
			if got[i] != want[r][i] {
				t.Fatalf("rank %d: %v, want %v", r, got, want[r])
			}
		}
	}
}

func TestTopologyShapes(t *testing.T) {
	ring, _ := NewTopology("ring", 6)
	for r := 0; r < 6; r++ {
		if ring.Degree(r) != 2 {
			t.Fatalf("ring degree(%d) = %d, want 2", r, ring.Degree(r))
		}
	}
	if !ring.Edge(0, 5) || !ring.Edge(0, 1) || ring.Edge(0, 3) {
		t.Fatal("ring edges wrong")
	}
	two, _ := NewTopology("ring", 2)
	if two.Degree(0) != 1 || two.Degree(1) != 1 {
		t.Fatalf("2-ring must collapse to one edge, degrees %d/%d", two.Degree(0), two.Degree(1))
	}
	hc, _ := NewTopology("hypercube", 8)
	for r := 0; r < 8; r++ {
		if hc.Degree(r) != 3 {
			t.Fatalf("hypercube(8) degree(%d) = %d, want 3", r, hc.Degree(r))
		}
	}
	torus, _ := NewTopology("torus", 6) // 2 × 3
	for r := 0; r < 6; r++ {
		if torus.Degree(r) < 2 {
			t.Fatalf("torus degree(%d) = %d", r, torus.Degree(r))
		}
	}
	rk, _ := NewTopology("random-3", 10)
	for r := 0; r < 10; r++ {
		if rk.Degree(r) < 3 {
			t.Fatalf("random-3 degree(%d) = %d, want ≥ 3", r, rk.Degree(r))
		}
	}
	// Deterministic across constructions (forked processes must agree).
	rk2, _ := NewTopology("random-3", 10)
	for r := 0; r < 10; r++ {
		a, b := rk.Neighbors(r), rk2.Neighbors(r)
		if len(a) != len(b) {
			t.Fatalf("random-3 not deterministic at rank %d", r)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("random-3 not deterministic at rank %d", r)
			}
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology("moebius", 4); err == nil || !strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown topology must list the registry, got %v", err)
	}
	if _, err := NewTopology("hypercube", 6); err == nil {
		t.Fatal("hypercube on non-power-of-two accepted")
	}
	if _, err := NewTopology("random-0", 4); err == nil {
		t.Fatal("random-0 accepted")
	}
	if _, err := NewTopology("random-x", 4); err == nil {
		t.Fatal("random-x accepted")
	}
	if _, err := New(MechNaive, 4, 0, Config{Topo: mustTopo(t, "ring", 6)}); err == nil {
		t.Fatal("mechanism accepted a topology generated for a different n")
	}
	if len(TopologyInfos()) != len(TopologyNames()) {
		t.Fatal("registry listing out of sync")
	}
}

func mustTopo(t *testing.T, name string, n int) *Topology {
	t.Helper()
	topo, err := NewTopology(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestLeastLoadedAmong(t *testing.T) {
	v := ViewOf([]Load{{Workload: 5}, {Workload: 1}, {Workload: 3}, {Workload: 1}, {Workload: 0}})
	// Restricted to {1,2,3}: rank 4's zero load is invisible; the tie
	// between 1 and 3 breaks toward the lower rank.
	got := LeastLoadedAmong(v, Workload, 0, 2, []int{1, 2, 3})
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
	// Excluding self, candidates including self.
	got = LeastLoadedAmong(v, Workload, 1, 2, []int{1, 2, 3})
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("got %v, want [3 2]", got)
	}
	// On the full candidate set it agrees with LeastLoaded.
	all := []int{0, 1, 2, 3, 4}
	a := LeastLoaded(v, Workload, 0, 3)
	b := LeastLoadedAmong(v, Workload, 0, 3, all)
	if len(a) != len(b) {
		t.Fatalf("full-candidate mismatch: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("full-candidate mismatch: %v vs %v", a, b)
		}
	}
}

func TestPlanDecisionOnRestrictsToNeighbors(t *testing.T) {
	topo := mustTopo(t, "ring", 6)
	v := ViewOf([]Load{{}, {Workload: 9}, {}, {}, {}, {Workload: 4}})
	d := PlanDecisionOn(topo, v, 0, 2, 100)
	if len(d.Assignments) != 2 {
		t.Fatalf("want 2 assignments, got %+v", d.Assignments)
	}
	for _, a := range d.Assignments {
		if int(a.Proc) != 1 && int(a.Proc) != 5 {
			t.Fatalf("assignment to non-neighbor %d of master 0 on ring", a.Proc)
		}
		if a.Delta[Workload] != 50 {
			t.Fatalf("share = %v, want 50", a.Delta[Workload])
		}
	}
	// Full topology must be exactly PlanDecision.
	full := PlanDecisionOn(nil, v, 0, 2, 100)
	ref := PlanDecision(v, 0, 2, 100)
	if len(full.Assignments) != len(ref.Assignments) {
		t.Fatalf("full PlanDecisionOn diverged: %+v vs %+v", full, ref)
	}
	for i := range ref.Assignments {
		if full.Assignments[i] != ref.Assignments[i] {
			t.Fatalf("full PlanDecisionOn diverged: %+v vs %+v", full, ref)
		}
	}
}
