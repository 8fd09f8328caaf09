package symbolic

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ordering"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// colCountsOracle is the row-subtree ColCounts the skeleton algorithm
// replaced: entry L(i,j) exists iff j lies on the etree path from some
// k ∈ adj(i), k < i, up to i. It visits every factor entry, O(|L|).
func colCountsOracle(g *sparse.Graph, parent []int32) []int32 {
	n := g.N
	count := make([]int32, n)
	mark := make([]int32, n)
	for i := range count {
		count[i] = 1 // diagonal
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		mark[i] = int32(i)
		for _, k := range g.AdjOf(i) {
			if k >= int32(i) {
				continue
			}
			for j := k; mark[j] != int32(i); j = parent[j] {
				count[j]++
				mark[j] = int32(i)
				if parent[j] < 0 {
					break
				}
			}
		}
	}
	return count
}

// TestColCountsMatchRowSubtreeOracle compares the two algorithms on the
// etrees the pipeline never produces but the signature admits: forests
// with several roots (disconnected graphs), parents that are not
// postordered, and n = 0 and 1 — and on the postordered relabelling the
// pipeline does produce.
func TestColCountsMatchRowSubtreeOracle(t *testing.T) {
	rng := sim.NewRNG(29)
	for trial := 0; trial < 300; trial++ {
		n := trial % 3 // n = 0 and 1 included
		if n > 1 {
			n = 2 + rng.Intn(120)
		}
		// avgDeg 0-1 leaves many isolated vertices and small components.
		g := sparse.RandomSym(n, trial%5, 0.5, rng, sparse.Kind(trial%2)).ToGraph()
		parent := Etree(g)
		if got, want := ColCounts(g, parent), colCountsOracle(g, parent); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): natural order\n got %v\nwant %v\nparent %v", trial, n, got, want, parent)
		}
		post := Postorder(parent)
		gp, pp := permuteGraph(g, ordering.Perm(post)), RelabelParent(parent, post)
		if got, want := ColCounts(gp, pp), colCountsOracle(gp, pp); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): postordered\n got %v\nwant %v\nparent %v", trial, n, got, want, pp)
		}
	}
}

// postorderOracle is the Postorder the head/next child lists replaced:
// one child slice per vertex, walked by a DFS with explicit cursors.
func postorderOracle(parent []int32) []int32 {
	n := len(parent)
	children := make([][]int32, n)
	var roots []int32
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			children[p] = append(children[p], int32(v))
		} else {
			roots = append(roots, int32(v))
		}
	}
	post := make([]int32, 0, n)
	cursor := make([]int32, n)
	var stack []int32
	for _, r := range roots {
		stack = append(stack, r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if int(cursor[v]) < len(children[v]) {
				stack = append(stack, children[v][cursor[v]])
				cursor[v]++
				continue
			}
			post = append(post, v)
			stack = stack[:len(stack)-1]
		}
	}
	return post
}

// permuteGraph relabels g by the order p — vertex v becomes its position
// in p — with every list sorted: the copy AnalyzeGraph once made.
func permuteGraph(g *sparse.Graph, p ordering.Perm) *sparse.Graph {
	inv := p.Inverse()
	ptr := make([]int32, g.N+1)
	for newV, oldV := range p {
		ptr[newV+1] = ptr[newV] + int32(g.Degree(int(oldV)))
	}
	adj := make([]int32, len(g.Adj))
	for newV, oldV := range p {
		lst := adj[ptr[newV]:ptr[newV+1]]
		for i, u := range g.AdjOf(int(oldV)) {
			lst[i] = inv[u]
		}
		slices.Sort(lst)
	}
	var coords [][3]float64
	if g.Coords != nil {
		coords = make([][3]float64, g.N)
		for newV, oldV := range p {
			coords[newV] = g.Coords[oldV]
		}
	}
	return &sparse.Graph{N: g.N, Ptr: ptr, Adj: adj, Coords: coords}
}

// analyzeGraphOracle is the AnalyzeGraph that permuted the graph twice:
// by the fill order to compute the etree, then that copy by the postorder
// to count columns, which postordered the postordered tree again.
func analyzeGraphOracle(g *sparse.Graph, perm ordering.Perm, sym bool, amalg AmalgParams) *Analysis {
	gp := permuteGraph(&sparse.Graph{N: g.N, Ptr: g.Ptr, Adj: g.Adj}, perm)
	parent := Etree(gp)
	post := postorderOracle(parent)
	full := make(ordering.Perm, g.N)
	for k, v := range post {
		full[k] = perm[v]
	}
	gpp := permuteGraph(gp, ordering.Perm(post))
	parentPost := RelabelParent(parent, post)
	counts := ColCounts(gpp, parentPost)
	nodes := Supernodes(parentPost, counts, amalg)
	var roots []int32
	for i := range nodes {
		if nodes[i].Parent < 0 {
			roots = append(roots, nodes[i].ID)
		}
	}
	return &Analysis{N: g.N, Perm: full, Parent: parentPost, Counts: counts, Nodes: nodes,
		Roots: roots, FactorEntries: FactorNNZ(counts), Sym: sym}
}

// TestAnalyzeGraphMatchesTwoPermutationOracle: the one-permutation
// pipeline reproduces the whole Analysis on forests (n = 0 and 1,
// disconnected graphs) under random and minimum-degree orders, and on
// grids under nested dissection and minimum degree.
func TestAnalyzeGraphMatchesTwoPermutationOracle(t *testing.T) {
	check := func(name string, g *sparse.Graph, perm ordering.Perm, sym bool) {
		t.Helper()
		got, err := AnalyzeGraph(g, perm, sym, DefaultAmalg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := analyzeGraphOracle(g, perm, sym, DefaultAmalg()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AnalyzeGraph differs from the two-permutation oracle", name)
		}
	}
	rng := sim.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		n := trial % 3 // n = 0 and 1 included
		if n > 1 {
			n = 2 + rng.Intn(150)
		}
		// avgDeg 0-1 leaves many isolated vertices and small components.
		g := sparse.RandomSym(n, trial%5, 0.5, rng, sparse.Kind(trial%2)).ToGraph()
		random := make(ordering.Perm, n)
		for k, v := range rng.Perm(n) {
			random[k] = int32(v)
		}
		check(fmt.Sprintf("trial %d random order", trial), g, random, trial%2 == 0)
		check(fmt.Sprintf("trial %d minimum degree", trial), g, ordering.MinimumDegree(g), trial%2 == 0)
	}
	_, gp := sparse.GridPerturbed(30, 27, 0.05, sim.NewRNG(7), sparse.Unsym)
	check("grid-perturbed nd", gp, ordering.NestedDissection(gp), false)
	for _, st := range []sparse.Stencil{sparse.Star, sparse.Box} {
		for dof := 1; dof <= 2; dof++ {
			p, g := sparse.Grid3D(9, 8, 7, dof, st, sparse.Sym)
			check(fmt.Sprintf("grid stencil %d dof %d nd", st, dof), g, ordering.NestedDissection(g), true)
			check(fmt.Sprintf("grid stencil %d dof %d md", st, dof), g, ordering.MinimumDegree(p.ToGraph()), true)
		}
	}
}

// TestPostorderMatchesChildSliceOracle covers forests of every shape the
// etree of a random graph yields, and trees that are not etrees.
func TestPostorderMatchesChildSliceOracle(t *testing.T) {
	rng := sim.NewRNG(37)
	for trial := 0; trial < 300; trial++ {
		n := trial % 3
		if n > 1 {
			n = 2 + rng.Intn(100)
		}
		parent := make([]int32, n)
		for v := range parent {
			// A random parent above v, or a root.
			parent[v] = -1
			if v+1 < n && rng.Intn(5) > 0 {
				parent[v] = int32(v + 1 + rng.Intn(n-v-1))
			}
		}
		if got, want := Postorder(parent), postorderOracle(parent); !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v (parent %v)", trial, got, want, parent)
		}
	}
}

// TestAnalyzeGraphAllocs pins the one-permutation pipeline with head/next
// child lists far below the 10 312 allocations the two-permutation one
// with a slice per parent made on this input; it makes 163, most of them
// Supernodes' child lists.
func TestAnalyzeGraphAllocs(t *testing.T) {
	_, g := sparse.Grid3D(12, 12, 12, 3, sparse.Star, sparse.Sym)
	perm := ordering.NestedDissection(g)
	got := testing.AllocsPerRun(3, func() {
		if _, err := AnalyzeGraph(g, perm, true, DefaultAmalg()); err != nil {
			t.Fatal(err)
		}
	})
	if got > 200 {
		t.Fatalf("AnalyzeGraph allocates %v times, want at most 200", got)
	}
}

// benchAnalysisInput is the grid of sparse's microbenchmarks, ordered.
func benchAnalysisInput() (*sparse.Graph, ordering.Perm) {
	_, g := sparse.Grid3D(24, 24, 24, 3, sparse.Star, sparse.Sym)
	return g, ordering.NestedDissection(g)
}

func BenchmarkColCounts(b *testing.B) {
	g, perm := benchAnalysisInput()
	gp := permuteGraph(g, perm)
	parent := Etree(gp)
	want := FactorNNZ(colCountsOracle(gp, parent))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FactorNNZ(ColCounts(gp, parent)) != want {
			b.Fatal("ColCounts changed the factor size")
		}
	}
	b.ReportMetric(float64(want), "factor_nnz")
}

func BenchmarkAnalyzeGraph(b *testing.B) {
	g, perm := benchAnalysisInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeGraph(g, perm, true, DefaultAmalg()); err != nil {
			b.Fatal(err)
		}
	}
}
