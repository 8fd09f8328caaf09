package sparse

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// buildOracle is the comparison-sort Build the counting sort replaced:
// sort the (column, row) pairs, drop repeats, count columns.
func buildOracle(b *Builder) *Pattern {
	type entry struct{ r, c int32 }
	es := make([]entry, len(b.rows))
	for k := range b.rows {
		es[k] = entry{b.rows[k], b.cols[k]}
	}
	sort.Slice(es, func(x, y int) bool {
		if es[x].c != es[y].c {
			return es[x].c < es[y].c
		}
		return es[x].r < es[y].r
	})
	p := &Pattern{N: b.n, Kind: b.kind, ColPtr: make([]int32, b.n+1)}
	last := entry{-1, -1}
	for _, e := range es {
		if e == last {
			continue
		}
		last = e
		p.RowIdx = append(p.RowIdx, e.r)
		p.ColPtr[e.c+1]++
	}
	for j := 0; j < b.n; j++ {
		p.ColPtr[j+1] += p.ColPtr[j]
	}
	return p
}

// toGraphOracle is the ToGraph the scatter replaced: collect both
// directions of every off-diagonal entry, then sort and dedupe each list.
func toGraphOracle(p *Pattern) *Graph {
	lists := make([][]int32, p.N)
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			if i := p.RowIdx[q]; int(i) != j {
				lists[i] = append(lists[i], int32(j))
				lists[j] = append(lists[j], i)
			}
		}
	}
	g := &Graph{N: p.N, Ptr: make([]int32, p.N+1)}
	for v, lst := range lists {
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		g.Adj = append(g.Adj, slices.Compact(lst)...)
		g.Ptr[v+1] = int32(len(g.Adj))
	}
	return g
}

// randomBuilder fills a builder with COO input that exercises every case
// the counting sort must handle: repeats of earlier entries, upper- and
// lower-triangle entries in both kinds, explicit (i,j)+(j,i) pairs, and
// columns that stay empty (only the first `used` indices are drawn).
func randomBuilder(rng *sim.RNG, n int, kind Kind) *Builder {
	b := NewBuilder(n, kind)
	if n == 0 {
		return b
	}
	used := 1 + rng.Intn(n)
	for k := rng.Intn(6 * n); k > 0; k-- {
		switch i, j := rng.Intn(used), rng.Intn(used); rng.Intn(4) {
		case 0:
			b.Add(i, j)
		case 1:
			b.AddSym(i, j)
		case 2:
			b.Add(i, i)
		case 3:
			if len(b.rows) > 0 {
				d := rng.Intn(len(b.rows))
				b.Add(int(b.rows[d]), int(b.cols[d]))
			}
		}
	}
	return b
}

func TestBuildAndToGraphMatchSortOracles(t *testing.T) {
	rng := sim.NewRNG(13)
	for trial := 0; trial < 400; trial++ {
		n := trial % 4 // n = 0 and 1 included
		if n > 1 {
			n = 2 + rng.Intn(60)
		}
		kind := Kind(trial / 4 % 2)
		b := randomBuilder(rng, n, kind)
		got, want := b.Build(), buildOracle(b)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d (n=%d %v): %v", trial, n, kind, err)
		}
		if got.N != want.N || got.Kind != want.Kind || !slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowIdx, want.RowIdx) {
			t.Fatalf("trial %d (n=%d %v): Build differs from the sort oracle\n got %v %v\nwant %v %v",
				trial, n, kind, got.ColPtr, got.RowIdx, want.ColPtr, want.RowIdx)
		}
		gg, wg := got.ToGraph(), toGraphOracle(got)
		if gg.N != wg.N || !slices.Equal(gg.Ptr, wg.Ptr) || !slices.Equal(gg.Adj, wg.Adj) {
			t.Fatalf("trial %d (n=%d %v): ToGraph differs from the sort oracle\n got %v %v\nwant %v %v",
				trial, n, kind, gg.Ptr, gg.Adj, wg.Ptr, wg.Adj)
		}
	}
}

// TestToGraphAcceptsUnsortedColumns: ToGraph must not depend on Build's
// output invariants, since a Pattern's fields are exported.
func TestToGraphAcceptsUnsortedColumns(t *testing.T) {
	p := &Pattern{N: 4, Kind: Unsym, ColPtr: []int32{0, 3, 5, 5, 7}, RowIdx: []int32{3, 1, 1, 0, 2, 0, 3}}
	gg, wg := p.ToGraph(), toGraphOracle(p)
	if !slices.Equal(gg.Ptr, wg.Ptr) || !slices.Equal(gg.Adj, wg.Adj) {
		t.Fatalf("got %v %v, want %v %v", gg.Ptr, gg.Adj, wg.Ptr, wg.Adj)
	}
}

// benchGrid is the pattern the analysis microbenchmarks share: the shape
// of AUDIKW_1/BMWCRA_1 (3 dofs, 7-point stencil), 41 472 unknowns.
func benchGrid() (*Pattern, *Graph) { return Grid3D(24, 24, 24, 3, Star, Sym) }

func BenchmarkBuild(b *testing.B) {
	p, _ := benchGrid()
	bld := NewBuilder(p.N, p.Kind)
	for j := 0; j < p.N; j++ {
		for _, i := range p.RowIdx[p.ColPtr[j]:p.ColPtr[j+1]] {
			bld.Add(int(i), j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bld.Build().Stored() != p.Stored() {
			b.Fatal("Build changed the pattern")
		}
	}
}

func BenchmarkToGraph(b *testing.B) {
	p, g := benchGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.ToGraph().Edges() != g.Edges() {
			b.Fatal("ToGraph changed the graph")
		}
	}
}
