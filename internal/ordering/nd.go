package ordering

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/reuse"
	"repro/internal/sparse"
)

// ndLeafSize is the subgraph size below which recursion stops and the
// vertices are ordered directly.
const ndLeafSize = 48

// NestedDissection computes an elimination order by recursive bisection.
// When the graph carries vertex coordinates (mesh generators attach them)
// the bisection is geometric: split the widest bounding-box axis at the
// median, take as separator the boundary layer of one side. Without
// coordinates it falls back to level-structure bisection from a
// pseudo-peripheral vertex. Separators are ordered last, which yields the
// wide, well-balanced assembly trees that METIS produces on mesh problems.
func NestedDissection(g *sparse.Graph) Perm {
	if g.Coords == nil {
		return levelDissection(g)
	}
	d := dissectors.Get()
	defer dissectors.Put(d)
	d.g, d.order, d.stamp = g, make(Perm, 0, g.N), 0
	d.keys, d.mark = slices.Grow(d.keys[:0], g.N)[:g.N], slices.Grow(d.mark[:0], g.N)[:g.N]
	for i := range d.keys {
		d.keys[i] = ndKey{v: int32(i)}
	}
	clear(d.mark)
	d.dissect(d.keys)
	return d.order
}

// dissectors keeps the bisection workspaces between calls.
var dissectors = make(reuse.Free[geoDissector], 4) // a Lab orders one problem at a time; room for a few Labs

// geoDissector holds the geometric bisection's workspace. Each subgraph is
// a range of keys that its split rearranges in place; nothing is allocated
// per bisection.
//
// A split's total order — coordinate on the widest axis, then vertex
// index — fixes which vertices fall below the median, so selection finds
// the same halves a full sort would. Order inside a range shows only where
// the range is emitted whole (a leaf or a separator), and only there is it
// sorted, by the coordinate its keys still hold from the split that
// produced it. Keys start at zero, so a graph small enough to be one leaf
// comes out in natural order.
type geoDissector struct {
	g     *sparse.Graph
	order Perm
	keys  []ndKey
	mark  []uint8 // mark[v] == stamp: v is in the current split's upper half
	stamp uint8
}

// ndKey is a vertex with its coordinate on the axis of the last split
// that placed it.
type ndKey struct {
	c float64
	v int32
}

// cmpNdKey orders keys by (coordinate, vertex): the split order.
func cmpNdKey(a, b ndKey) int {
	switch {
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return cmp.Compare(a.v, b.v)
}

// less reports cmpNdKey(a, b) < 0.
func (a ndKey) less(b ndKey) bool {
	return a.c < b.c || !(a.c > b.c) && a.v < b.v
}

// dissect orders the vertices of s.
func (d *geoDissector) dissect(s []ndKey) {
	if len(s) <= ndLeafSize {
		d.emit(s)
		return
	}
	axis := d.widestAxis(s)
	coords := d.g.Coords
	for i := range s {
		s[i].c = coords[s[i].v][axis]
	}
	mid := len(s) / 2
	selectNth(s, mid)
	// Separator: members of the lower half adjacent to the upper half,
	// moved to the end of the lower half. Neither half is empty, so the
	// level path's degenerate cases cannot arise.
	if d.stamp++; d.stamp == 0 {
		clear(d.mark)
		d.stamp = 1
	}
	for _, k := range s[mid:] {
		d.mark[k.v] = d.stamp
	}
	sep := mid
	for i := 0; i < sep; {
		if d.onBoundary(s[i].v) {
			sep--
			s[i], s[sep] = s[sep], s[i]
		} else {
			i++
		}
	}
	d.dissect(s[:sep])
	d.dissect(s[mid:])
	d.emit(s[sep:mid])
}

func (d *geoDissector) onBoundary(v int32) bool {
	for _, u := range d.g.AdjOf(int(v)) {
		if d.mark[u] == d.stamp {
			return true
		}
	}
	return false
}

// emit appends the vertices of s to the order in split order.
func (d *geoDissector) emit(s []ndKey) {
	slices.SortFunc(s, cmpNdKey)
	for _, k := range s {
		d.order = append(d.order, k.v)
	}
}

// widestAxis returns the axis along which the bounding box of s is widest
// (the lowest such axis on ties).
func (d *geoDissector) widestAxis(s []ndKey) int {
	var lo, hi [3]float64
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = 1e300, -1e300
	}
	for _, k := range s {
		c := d.g.Coords[k.v]
		for a := 0; a < 3; a++ {
			if c[a] < lo[a] {
				lo[a] = c[a]
			}
			if c[a] > hi[a] {
				hi[a] = c[a]
			}
		}
	}
	axis := 0
	for a := 1; a < 3; a++ {
		if hi[a]-lo[a] > hi[axis]-lo[axis] {
			axis = a
		}
	}
	return axis
}

// selectNth rearranges s so that s[k] is its element of rank k, with every
// element before it preceding it in split order. Quickselect with
// median-of-three pivots; small ranges, and ranges still unresolved after
// about 2·log₂ n partition rounds, are finished by a sort.
func selectNth(s []ndKey, k int) {
	for budget := 2 * bits.Len(uint(len(s))); len(s) > 16 && budget > 0; budget-- {
		p := partition(s)
		switch {
		case k < p:
			s = s[:p]
		case k > p:
			s, k = s[p+1:], k-p-1
		default:
			return
		}
	}
	slices.SortFunc(s, cmpNdKey)
}

// partition splits s (len ≥ 3) around the median of its first, middle and
// last elements and returns the pivot's index: everything before it
// precedes it, everything after follows. Keys are distinct (vertex indices
// break ties), which the unguarded scans rely on.
func partition(s []ndKey) int {
	m, last := len(s)/2, len(s)-1
	if s[m].less(s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if s[last].less(s[0]) {
		s[last], s[0] = s[0], s[last]
	}
	if s[last].less(s[m]) {
		s[last], s[m] = s[m], s[last]
	}
	// s[0] < s[m] < s[last]: the pivot moves to the front, and s[last]
	// stops the upward scan.
	s[0], s[m] = s[m], s[0]
	p := s[0]
	i, j := 1, last
	for {
		for s[i].less(p) {
			i++
		}
		for p.less(s[j]) {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[0], s[j] = s[j], s[0]
	return j
}

// levelDissection is NestedDissection for graphs without coordinates.
func levelDissection(g *sparse.Graph) Perm {
	n := g.N
	order := make(Perm, 0, n)
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	inSet := make([]int32, n) // stamp marking current vertex subset
	var stamp int32
	var dissect func(vs []int32)
	dissect = func(vs []int32) {
		if len(vs) <= ndLeafSize {
			order = append(order, vs...)
			return
		}
		a, b := levelSplit(g, vs)
		if len(a) == 0 || len(b) == 0 {
			order = append(order, vs...)
			return
		}
		// Separator: members of a adjacent to b.
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
		dissect(core)
		dissect(b)
		order = append(order, sep...)
	}
	dissect(verts)
	return order
}

// levelSplit bisects vs by the level structure of a BFS from a
// pseudo-peripheral vertex restricted to vs.
func levelSplit(g *sparse.Graph, vs []int32) (a, b []int32) {
	member := make(map[int32]bool, len(vs))
	for _, v := range vs {
		member[v] = true
	}
	root := pseudoPeripheral(g, vs[0], member)
	level := map[int32]int{root: 0}
	queue := []int32{root}
	maxLevel := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.AdjOf(int(v)) {
			if member[u] {
				if _, ok := level[u]; !ok {
					level[u] = level[v] + 1
					if level[u] > maxLevel {
						maxLevel = level[u]
					}
					queue = append(queue, u)
				}
			}
		}
	}
	// Unreached vertices (other components) join side b.
	half := len(level) / 2
	cum, cut := 0, maxLevel/2
	counts := make([]int, maxLevel+1)
	for _, l := range level {
		counts[l]++
	}
	for l := 0; l <= maxLevel; l++ {
		cum += counts[l]
		if cum >= half {
			cut = l
			break
		}
	}
	for _, v := range vs {
		if l, ok := level[v]; ok && l <= cut {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a, b
}

// pseudoPeripheral finds a vertex of (approximately) maximal eccentricity
// within the member set by repeated BFS.
func pseudoPeripheral(g *sparse.Graph, start int32, member map[int32]bool) int32 {
	root := start
	bestDepth := -1
	for iter := 0; iter < 4; iter++ {
		depth := map[int32]int{root: 0}
		queue := []int32{root}
		last := root
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			last = v
			for _, u := range g.AdjOf(int(v)) {
				if member[u] {
					if _, ok := depth[u]; !ok {
						depth[u] = depth[v] + 1
						queue = append(queue, u)
					}
				}
			}
		}
		if depth[last] <= bestDepth {
			break
		}
		bestDepth = depth[last]
		root = last
	}
	return root
}
