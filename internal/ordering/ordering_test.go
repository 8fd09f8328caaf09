package ordering

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/sparse"
)

// fillOf simulates symbolic elimination in the given order and returns the
// number of factor entries (including diagonal). Brute force, for tests
// only: O(n · deg²).
func fillOf(g *sparse.Graph, p Perm) int64 {
	n := g.N
	pos := p.Inverse()
	// adj sets in elimination order, as maps (small tests only).
	adj := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		adj[pos[v]] = map[int32]bool{}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.AdjOf(v) {
			adj[pos[v]][pos[u]] = true
		}
	}
	var fill int64
	for k := 0; k < n; k++ {
		var higher []int32
		for u := range adj[k] {
			if u > int32(k) {
				higher = append(higher, u)
			}
		}
		fill += int64(len(higher)) + 1
		for i, u := range higher {
			for _, w := range higher[i+1:] {
				adj[u][w] = true
				adj[w][u] = true
			}
		}
	}
	return fill
}

// exactMinDegree is a reference O(n²·deg) implementation used to sanity
// check the quotient-graph code's quality on small problems.
func exactMinDegree(g *sparse.Graph) Perm {
	n := g.N
	adj := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int32]bool{}
		for _, u := range g.AdjOf(v) {
			adj[v][u] = true
		}
	}
	eliminated := make([]bool, n)
	order := make(Perm, 0, n)
	for k := 0; k < n; k++ {
		best, bestDeg := int32(-1), n+1
		for v := 0; v < n; v++ {
			if !eliminated[v] && len(adj[v]) < bestDeg {
				best, bestDeg = int32(v), len(adj[v])
			}
		}
		eliminated[best] = true
		order = append(order, best)
		var nbrs []int32
		for u := range adj[best] {
			if !eliminated[u] {
				nbrs = append(nbrs, u)
			}
		}
		for _, u := range nbrs {
			delete(adj[u], best)
			for _, w := range nbrs {
				if w != u {
					adj[u][w] = true
				}
			}
		}
	}
	return order
}

func TestPermValidateAndInverse(t *testing.T) {
	p := Perm{2, 0, 1}
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	if inv[2] != 0 || inv[0] != 1 || inv[1] != 2 {
		t.Fatalf("inverse = %v", inv)
	}
	if err := (Perm{0, 0, 1}).Validate(3); err == nil {
		t.Fatal("duplicate not caught")
	}
	if err := (Perm{0, 5, 1}).Validate(3); err == nil {
		t.Fatal("out of range not caught")
	}
}

func TestMinimumDegreeIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8, degRaw uint8) bool {
		n := int(nRaw)%300 + 5
		deg := int(degRaw)%6 + 1
		p := sparse.RandomSym(n, deg, 0.6, sim.NewRNG(seed), sparse.Sym)
		g := p.ToGraph()
		return MinimumDegree(g).Validate(n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumDegreeQuality(t *testing.T) {
	// MD should beat natural order substantially on a 2D grid, and be in
	// the same ballpark as the exact reference.
	_, g := sparse.Grid2D(14, 14, 1, sparse.Star, sparse.Sym)
	natural := fillOf(g, Identity(g.N))
	md := fillOf(g, MinimumDegree(g))
	exact := fillOf(g, exactMinDegree(g))
	if md >= natural {
		t.Fatalf("MD fill %d not better than natural %d", md, natural)
	}
	if float64(md) > 1.6*float64(exact) {
		t.Fatalf("quotient MD fill %d much worse than exact MD %d", md, exact)
	}
}

func TestMinimumDegreeHandlesDenseRows(t *testing.T) {
	// A power-law matrix with hub rows must still order quickly and
	// validly (dense postponement).
	p := sparse.PowerLawSym(800, 4, 6, 300, sim.NewRNG(5))
	g := p.ToGraph()
	perm := MinimumDegree(g)
	if err := perm.Validate(g.N); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumDegreeEmptyAndTiny(t *testing.T) {
	empty := &sparse.Graph{N: 0, Ptr: []int32{0}}
	if len(MinimumDegree(empty)) != 0 {
		t.Fatal("empty graph")
	}
	g := &sparse.Graph{N: 3, Ptr: []int32{0, 0, 0, 0}} // no edges
	if err := MinimumDegree(g).Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDissectionGeometric(t *testing.T) {
	_, g := sparse.Grid3D(8, 8, 8, 1, sparse.Star, sparse.Sym)
	perm := NestedDissection(g)
	if err := perm.Validate(g.N); err != nil {
		t.Fatal(err)
	}
	nd := fillOf(g, perm)
	natural := fillOf(g, Identity(g.N))
	if nd >= natural {
		t.Fatalf("ND fill %d not better than natural %d on 3D grid", nd, natural)
	}
}

func TestNestedDissectionNeedsCoords(t *testing.T) {
	g := sparse.RandomSym(400, 4, 0.9, sim.NewRNG(1), sparse.Sym).ToGraph()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "coordinates") {
			t.Fatalf("NestedDissection without coordinates: recovered %v, want a panic naming coordinates", r)
		}
	}()
	NestedDissection(g)
}

// TestOrderDispatcher: MethodAuto is geometric nested dissection on a
// graph with coordinates and minimum degree on one without; every other
// method name is rejected.
func TestOrderDispatcher(t *testing.T) {
	_, grid := sparse.Grid2D(6, 6, 1, sparse.Star, sparse.Sym)
	random := sparse.RandomSym(300, 4, 0.5, sim.NewRNG(2), sparse.Sym).ToGraph()
	for _, c := range []struct {
		name string
		g    *sparse.Graph
		want Perm
	}{
		{"with coordinates", grid, NestedDissection(grid)},
		{"without coordinates", random, MinimumDegree(random)},
	} {
		p, err := Order(c.g, MethodAuto)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(p, c.want) {
			t.Fatalf("%s: MethodAuto order differs from the expected algorithm's", c.name)
		}
	}
	for _, m := range []Method{"nd", "bogus"} {
		if _, err := Order(grid, m); err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Fatalf("method %q: error %v, want unknown method", m, err)
		}
	}
}

func TestMinimumDegreeDeterministic(t *testing.T) {
	p := sparse.RandomSym(300, 4, 0.5, sim.NewRNG(2), sparse.Sym)
	g := p.ToGraph()
	a := MinimumDegree(g)
	b := MinimumDegree(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MinimumDegree is nondeterministic")
		}
	}
}

func BenchmarkNestedDissection(b *testing.B) {
	_, g := sparse.Grid3D(24, 24, 24, 3, sparse.Star, sparse.Sym)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(NestedDissection(g)) != g.N {
			b.Fatal("short permutation")
		}
	}
}
