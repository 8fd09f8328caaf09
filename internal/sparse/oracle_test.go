package sparse

import (
	"fmt"
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

// grid3DOracle is the Grid3D the direct CSR writer replaced: the stencil
// as coordinate entries through Builder, then ToGraph.
func grid3DOracle(nx, ny, nz, dof int, st Stencil, kind Kind) (*Pattern, *Graph) {
	fwd := [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if st == Box {
		fwd = fwd[:0]
		for dz := 0; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dz > 0 || dy > 0 || (dy == 0 && dx > 0) {
						fwd = append(fwd, [3]int{dx, dy, dz})
					}
				}
			}
		}
	}
	n := nx * ny * nz * dof
	b := NewBuilder(n, kind)
	idx := func(x, y, z, d int) int { return ((z*ny+y)*nx+x)*dof + d }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for d1 := 0; d1 < dof; d1++ {
					for d2 := d1; d2 < dof; d2++ {
						b.AddSym(idx(x, y, z, d1), idx(x, y, z, d2))
					}
				}
				for _, o := range fwd {
					x2, y2, z2 := x+o[0], y+o[1], z+o[2]
					if x2 < 0 || x2 >= nx || y2 < 0 || y2 >= ny || z2 >= nz {
						continue
					}
					for d1 := 0; d1 < dof; d1++ {
						for d2 := 0; d2 < dof; d2++ {
							b.AddSym(idx(x, y, z, d1), idx(x2, y2, z2, d2))
						}
					}
				}
			}
		}
	}
	p := b.Build()
	g := p.ToGraph()
	g.Coords = make([][3]float64, n)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				for d := 0; d < dof; d++ {
					g.Coords[idx(x, y, z, d)] = [3]float64{float64(x), float64(y), float64(z)}
				}
			}
		}
	}
	return p, g
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

// checkGrid3D asserts that Grid3D equals the Builder+ToGraph route
// exactly and sizes its slices exactly.
func checkGrid3D(t *testing.T, nx, ny, nz, dof int, st Stencil, kind Kind) {
	t.Helper()
	p, g := Grid3D(nx, ny, nz, dof, st, kind)
	wp, wg := grid3DOracle(nx, ny, nz, dof, st, kind)
	name := fmt.Sprintf("%d×%d×%d dof %d stencil %d %v", nx, ny, nz, dof, st, kind)
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if p.N != wp.N || p.Kind != wp.Kind || !slices.Equal(p.ColPtr, wp.ColPtr) || !slices.Equal(p.RowIdx, wp.RowIdx) {
		t.Fatalf("%s: pattern differs from the Builder route", name)
	}
	if g.N != wg.N || !slices.Equal(g.Ptr, wg.Ptr) || !slices.Equal(g.Adj, wg.Adj) || !slices.Equal(g.Coords, wg.Coords) {
		t.Fatalf("%s: graph differs from the Builder route", name)
	}
	if cap(g.Adj) != len(g.Adj) || cap(p.RowIdx) != len(p.RowIdx) {
		t.Fatalf("%s: Adj or RowIdx over-allocated (cap %d/%d, len %d/%d)", name, cap(g.Adj), cap(p.RowIdx), len(g.Adj), len(p.RowIdx))
	}
}

func TestGrid3DMatchesBuilderOracle(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {1, 5, 1}, {2, 3, 4}, {8, 8, 3}}
	for _, s := range shapes {
		for _, st := range []Stencil{Star, Box} {
			for _, kind := range []Kind{Sym, Unsym} {
				for dof := 1; dof <= 3; dof++ {
					checkGrid3D(t, s[0], s[1], s[2], dof, st, kind)
				}
			}
		}
	}
}

// TestRegistryGridsMatchBuilderOracle covers the shapes the paper tables
// generate. A registry grid's dimensions are read back from its
// coordinates; its stencil is the one registered.
func TestRegistryGridsMatchBuilderOracle(t *testing.T) {
	stencil := map[string]Stencil{
		"BMWCRA_1": Star, "MSDOOR": Star, "SHIP_003": Star, "AUDIKW_1": Star, "CONV3D64": Star,
		"ULTRASOUND3": Box, "XENON2": Box, "ULTRASOUND80": Box,
	}
	for name, st := range stencil {
		pr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{0.04, 0.08} {
			_, g := pr.Generate(scale, 1)
			last := g.Coords[g.N-1]
			nx, ny, nz := int(last[0])+1, int(last[1])+1, int(last[2])+1
			checkGrid3D(t, nx, ny, nz, g.N/(nx*ny*nz), st, pr.Kind)
		}
	}
}

// TestGrid3DAllocs pins the direct path: the five slices of the pattern
// and the graph plus their two headers, with no coordinate list.
func TestGrid3DAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(3, func() { benchGrid() }); got != 7 {
		t.Fatalf("Grid3D(24,24,24,3,Star,Sym) allocates %v times, want 7", got)
	}
}

// benchGrid is the pattern the analysis microbenchmarks share: the shape
// of AUDIKW_1/BMWCRA_1 (3 dofs, 7-point stencil), 41 472 unknowns.
func benchGrid() (*Pattern, *Graph) { return Grid3D(24, 24, 24, 3, Star, Sym) }

func BenchmarkGrid3D(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p, _ := benchGrid(); p.N != 24*24*24*3 {
			b.Fatal("Grid3D changed the order")
		}
	}
}

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
