package symbolic

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ordering"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// buildGraph makes the adjacency graph of a small explicit edge list.
func buildGraph(n int, edges [][2]int) *sparse.Graph {
	b := sparse.NewBuilder(n, sparse.Unsym)
	for i := 0; i < n; i++ {
		b.Add(i, i)
	}
	for _, e := range edges {
		b.AddSym(e[0], e[1])
	}
	return b.Build().ToGraph()
}

func TestEtreeKnownExample(t *testing.T) {
	// Chain 0-1-2-3: etree is the chain itself.
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	parent := Etree(g)
	want := []int32{1, 2, 3, -1}
	for i := range want {
		if parent[i] != want[i] {
			t.Fatalf("parent = %v, want %v", parent, want)
		}
	}
}

func TestEtreeStarGraph(t *testing.T) {
	// Star with center 4 (highest label): every leaf's parent is 4.
	g := buildGraph(5, [][2]int{{0, 4}, {1, 4}, {2, 4}, {3, 4}})
	parent := Etree(g)
	for v := 0; v < 4; v++ {
		if parent[v] != 4 {
			t.Fatalf("parent[%d] = %d, want 4", v, parent[v])
		}
	}
	if parent[4] != -1 {
		t.Fatal("root must have parent -1")
	}
}

func TestEtreeFillPath(t *testing.T) {
	// 0-1, 0-2: eliminating 0 creates fill (1,2), so parent[1] = 2.
	g := buildGraph(3, [][2]int{{0, 1}, {0, 2}})
	parent := Etree(g)
	if parent[0] != 1 || parent[1] != 2 || parent[2] != -1 {
		t.Fatalf("parent = %v, want [1 2 -1]", parent)
	}
}

// etreeBrute recomputes the etree via explicit symbolic elimination:
// parent[v] = min{u > v : L(u,v) != 0}.
func etreeBrute(g *sparse.Graph) []int32 {
	n := g.N
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int]bool{}
		for _, u := range g.AdjOf(v) {
			adj[v][int(u)] = true
		}
	}
	parent := make([]int32, n)
	for v := 0; v < n; v++ {
		parent[v] = -1
		var higher []int
		for u := range adj[v] {
			if u > v {
				higher = append(higher, u)
			}
		}
		min := -1
		for _, u := range higher {
			if min < 0 || u < min {
				min = u
			}
		}
		if min >= 0 {
			parent[v] = int32(min)
			for _, u := range higher {
				for _, w := range higher {
					if u != w {
						adj[u][w] = true
					}
				}
			}
		}
	}
	return parent
}

func TestEtreeMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 3
		p := sparse.RandomSym(n, 3, 0.5, sim.NewRNG(seed), sparse.Sym)
		g := p.ToGraph()
		fast := Etree(g)
		slow := etreeBrute(g)
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPostorderIsValidAndChildrenFirst(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%80 + 3
		p := sparse.RandomSym(n, 3, 0.5, sim.NewRNG(seed), sparse.Sym)
		parent := Etree(p.ToGraph())
		post := Postorder(parent)
		if err := ordering.Perm(post).Validate(n); err != nil {
			return false
		}
		pos := make([]int32, n)
		for k, v := range post {
			pos[v] = int32(k)
		}
		for v := 0; v < n; v++ {
			if parent[v] >= 0 && pos[v] >= pos[parent[v]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// colCountsBrute computes column counts by explicit symbolic elimination.
func colCountsBrute(g *sparse.Graph) []int32 {
	n := g.N
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int]bool{}
		for _, u := range g.AdjOf(v) {
			adj[v][int(u)] = true
		}
	}
	counts := make([]int32, n)
	for v := 0; v < n; v++ {
		var higher []int
		for u := range adj[v] {
			if u > v {
				higher = append(higher, u)
			}
		}
		counts[v] = int32(len(higher)) + 1
		for _, u := range higher {
			for _, w := range higher {
				if u != w {
					adj[u][w] = true
				}
			}
		}
	}
	return counts
}

func TestColCountsMatchBruteForceProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 3
		p := sparse.RandomSym(n, 3, 0.4, sim.NewRNG(seed), sparse.Sym)
		g := p.ToGraph()
		parent := Etree(g)
		// Etree(g) is not postordered: ColCounts postorders internally
		// and answers in g's own labels.
		fast := ColCounts(g, parent)
		slow := colCountsBrute(g)
		for i := range fast {
			if fast[i] != slow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSupernodesPartitionPivots(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%150 + 5
		p := sparse.RandomSym(n, 4, 0.6, sim.NewRNG(seed), sparse.Sym)
		a, err := Analyze(p, DefaultOptions())
		if err != nil {
			return false
		}
		return a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSupernodesChainCollapses(t *testing.T) {
	// A chain graph has a chain etree with counts n, n-1, ..., wait:
	// chain counts are all 2 except the root. Fundamental merging cannot
	// collapse it fully, but relaxed amalgamation with SmallPiv >= n
	// should give very few nodes.
	g := buildGraph(20, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9},
		{9, 10}, {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15}, {15, 16},
		{16, 17}, {17, 18}, {18, 19},
	})
	parent := Etree(g)
	counts := ColCounts(g, parent)
	nodes := Supernodes(parent, counts, AmalgParams{SmallPiv: 64, FillTol: 0})
	if len(nodes) != 1 {
		t.Fatalf("chain amalgamated into %d nodes, want 1", len(nodes))
	}
	if nodes[0].Npiv != 20 {
		t.Fatalf("npiv = %d, want 20", nodes[0].Npiv)
	}
}

func TestSupernodesNoAmalgamationKeepsFundamental(t *testing.T) {
	// Dense 4x4 clique: one fundamental supernode of 4 pivots.
	g := buildGraph(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	parent := Etree(g)
	counts := ColCounts(g, parent)
	nodes := Supernodes(parent, counts, AmalgParams{SmallPiv: 0, FillTol: 0})
	if len(nodes) != 1 || nodes[0].Npiv != 4 || nodes[0].Nfront != 4 {
		t.Fatalf("clique nodes = %+v, want single 4x4 node", nodes)
	}
}

func TestAnalyzeGridShapes(t *testing.T) {
	p, _ := sparse.Grid3D(6, 6, 6, 1, sparse.Star, sparse.Sym)
	a, err := Analyze(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Roots) != 1 {
		t.Fatalf("connected grid should have one root, got %d", len(a.Roots))
	}
	root := a.Nodes[len(a.Nodes)-1]
	if root.Parent != -1 {
		t.Fatal("last topological node must be a root")
	}
	// The root front of a 3D grid under ND is the top separator: it must
	// be clearly larger than typical leaf fronts.
	minFront := root.Nfront
	for i := range a.Nodes {
		if a.Nodes[i].Nfront < minFront {
			minFront = a.Nodes[i].Nfront
		}
	}
	if root.Nfront <= minFront {
		t.Fatal("root front not larger than leaf fronts")
	}
	if a.FactorEntries <= int64(a.N) {
		t.Fatal("factor has no fill?")
	}
}

// TestAnalyzeOrdersGridsByMinimumDegree pins the ordering quirk Analyze's
// doc names: a pattern has no coordinates, so a grid analysed through
// Analyze is ordered by minimum degree, not by nested dissection.
func TestAnalyzeOrdersGridsByMinimumDegree(t *testing.T) {
	p, g := sparse.Grid3D(8, 8, 8, 1, sparse.Star, sparse.Sym)
	got, err := Analyze(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bare := &sparse.Graph{N: g.N, Ptr: g.Ptr, Adj: g.Adj}
	want, err := AnalyzeGraph(bare, ordering.MinimumDegree(bare), true, DefaultAmalg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Analyze differs from AnalyzeGraph of the coordinate-free graph under minimum degree")
	}
	nd, err := AnalyzeGraph(g, ordering.NestedDissection(g), true, DefaultAmalg())
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(got.Perm, nd.Perm) {
		t.Fatal("Analyze ordered the grid as nested dissection does")
	}
}

func TestAnalyzeUnsymmetricProblem(t *testing.T) {
	pr, err := sparse.ByName("TWOTONE")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pr.Generate(0.01, 42)
	a, err := Analyze(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Sym {
		t.Fatal("TWOTONE should be unsymmetric")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRejectsBadPerm(t *testing.T) {
	p, _ := sparse.Grid2D(4, 4, 1, sparse.Star, sparse.Sym)
	g := p.ToGraph()
	if _, err := AnalyzeGraph(g, ordering.Perm{0, 0}, true, DefaultAmalg()); err == nil {
		t.Fatal("bad permutation accepted")
	}
}
