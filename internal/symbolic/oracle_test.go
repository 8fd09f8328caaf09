package symbolic

import (
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
		gp, pp := ordering.PermuteGraph(g, ordering.Perm(post)), RelabelParent(parent, post)
		if got, want := ColCounts(gp, pp), colCountsOracle(gp, pp); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): postordered\n got %v\nwant %v\nparent %v", trial, n, got, want, pp)
		}
	}
}

// benchAnalysisInput is the grid of sparse's microbenchmarks, ordered.
func benchAnalysisInput() (*sparse.Graph, ordering.Perm) {
	_, g := sparse.Grid3D(24, 24, 24, 3, sparse.Star, sparse.Sym)
	return g, ordering.NestedDissection(g)
}

func BenchmarkColCounts(b *testing.B) {
	g, perm := benchAnalysisInput()
	gp := ordering.PermuteGraph(g, perm)
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
