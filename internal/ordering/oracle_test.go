package ordering

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/sparse"
)

// ndBySort is the nested dissection that median selection replaced: every
// geometric bisection fully sorts its vertices by (coordinate on the widest
// axis, vertex) and splits the sorted list in two; every list keeps the
// order its split left it in.
func ndBySort(g *sparse.Graph) Perm {
	n := g.N
	order := make(Perm, 0, n)
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	inSet := make([]int32, n)
	var stamp int32
	var dissect func(vs []int32)
	dissect = func(vs []int32) {
		if len(vs) <= ndLeafSize {
			order = append(order, vs...)
			return
		}
		var a, b []int32
		if g.Coords != nil {
			a, b = geometricSplitBySort(g, vs)
		} else {
			a, b = levelSplit(g, vs)
		}
		if len(a) == 0 || len(b) == 0 {
			order = append(order, vs...)
			return
		}
		stamp++
		for _, v := range b {
			inSet[v] = stamp
		}
		var core, sep []int32
		for _, v := range a {
			onBoundary := false
			for _, u := range g.AdjOf(int(v)) {
				if inSet[u] == stamp {
					onBoundary = true
					break
				}
			}
			if onBoundary {
				sep = append(sep, v)
			} else {
				core = append(core, v)
			}
		}
		if len(sep) == len(vs) || (len(core) == 0 && len(b) == len(vs)) {
			order = append(order, vs...)
			return
		}
		dissect(core)
		dissect(b)
		order = append(order, sep...)
	}
	dissect(verts)
	return order
}

// geometricSplitBySort halves vs along the widest coordinate axis at the
// median by sorting all of vs.
func geometricSplitBySort(g *sparse.Graph, vs []int32) (a, b []int32) {
	var lo, hi [3]float64
	for d := 0; d < 3; d++ {
		lo[d], hi[d] = 1e300, -1e300
	}
	for _, v := range vs {
		c := g.Coords[v]
		for d := 0; d < 3; d++ {
			if c[d] < lo[d] {
				lo[d] = c[d]
			}
			if c[d] > hi[d] {
				hi[d] = c[d]
			}
		}
	}
	axis := 0
	for d := 1; d < 3; d++ {
		if hi[d]-lo[d] > hi[axis]-lo[axis] {
			axis = d
		}
	}
	type key struct {
		c float64
		v int32
	}
	keys := make([]key, len(vs))
	for i, v := range vs {
		keys[i] = key{g.Coords[v][axis], v}
	}
	slices.SortFunc(keys, func(x, y key) int {
		switch {
		case x.c < y.c:
			return -1
		case x.c > y.c:
			return 1
		}
		return cmp.Compare(x.v, y.v)
	})
	sorted := make([]int32, len(keys))
	for i, k := range keys {
		sorted[i] = k.v
	}
	mid := len(sorted) / 2
	return sorted[:mid], sorted[mid:]
}

// quantised returns g with every coordinate rounded onto levels values per
// axis, so most split keys tie and the vertex index decides.
func quantised(g *sparse.Graph, levels float64) *sparse.Graph {
	var hi [3]float64
	for _, c := range g.Coords {
		for d := range c {
			hi[d] = math.Max(hi[d], c[d])
		}
	}
	q := *g
	q.Coords = make([][3]float64, len(g.Coords))
	for v, c := range g.Coords {
		for d := range c {
			if hi[d] > 0 {
				q.Coords[v][d] = math.Floor(c[d] / hi[d] * (levels - 0.5))
			}
		}
	}
	return &q
}

func TestNestedDissectionMatchesSortOracle(t *testing.T) {
	type graphCase struct {
		name string
		g    *sparse.Graph
	}
	var cases []graphCase
	for _, pr := range append(sparse.Set1(), sparse.Set2()...) {
		_, g := pr.Generate(0.05, 1)
		cases = append(cases, graphCase{pr.Name, g})
	}
	for _, st := range []sparse.Stencil{sparse.Star, sparse.Box} {
		for _, dof := range []int{1, 3} {
			_, g := sparse.Grid3D(9, 8, 7, dof, st, sparse.Sym)
			cases = append(cases, graphCase{fmt.Sprintf("grid3d-st%d-dof%d", st, dof), g})
		}
	}
	msdoor, err := sparse.ByName("MSDOOR")
	if err != nil {
		t.Fatal(err)
	}
	_, shell := msdoor.Generate(0.02, 1)
	_, perturbed := sparse.GridPerturbed(40, 37, 0.05, sim.NewRNG(7), sparse.Unsym)
	_, cube := sparse.Grid3D(12, 11, 10, 1, sparse.Star, sparse.Sym)
	cases = append(cases,
		graphCase{"msdoor-shell", shell},
		graphCase{"grid-perturbed", perturbed},
		graphCase{"ties-3-per-axis", quantised(cube, 3)},
	)
	// The leaf-size boundary: a leaf, the smallest split, and a split
	// whose halves are one leaf and one split.
	for _, n := range []int{ndLeafSize, ndLeafSize + 1, 2*ndLeafSize + 1} {
		_, g := sparse.Grid3D(n, 1, 1, 1, sparse.Star, sparse.Sym)
		cases = append(cases, graphCase{fmt.Sprintf("line-%d", n), g})
	}
	_, g49 := sparse.Grid2D(7, 7, 1, sparse.Box, sparse.Sym)
	cases = append(cases, graphCase{"grid-7x7", g49})

	for _, c := range cases {
		got, want := NestedDissection(c.g), ndBySort(c.g)
		if err := got.Validate(c.g.N); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Errorf("%s (n=%d): differs from the sort oracle first at position %d: got %d, want %d",
				c.name, c.g.N, i, got[i], want[i])
		}
	}
}

// TestNestedDissectionAllocs pins the geometric path's allocations to its
// fixed workspace: none per bisection, so the count does not grow with n.
func TestNestedDissectionAllocs(t *testing.T) {
	_, small := sparse.Grid3D(12, 12, 12, 1, sparse.Star, sparse.Sym)
	_, large := sparse.Grid3D(24, 24, 24, 3, sparse.Star, sparse.Sym)
	a := testing.AllocsPerRun(5, func() { NestedDissection(small) })
	b := testing.AllocsPerRun(2, func() { NestedDissection(large) })
	if a != b || a > 6 {
		t.Fatalf("allocs/op = %v at 12³ and %v at 24³×3, want one constant ≤ 6", a, b)
	}
}
