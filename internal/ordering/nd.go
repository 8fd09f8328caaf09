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

// NestedDissection computes an elimination order by geometric recursive
// bisection: split the widest bounding-box axis of the vertex coordinates
// at the median, take as separator the boundary layer of one side.
// Separators are ordered last, which yields the wide, well-balanced
// assembly trees that METIS produces on mesh problems. The graph must
// carry coordinates (mesh generators attach them); a graph without them
// is ordered by MinimumDegree, as Order's MethodAuto does.
func NestedDissection(g *sparse.Graph) Perm {
	if g.Coords == nil {
		panic("ordering: NestedDissection needs vertex coordinates; order a graph without them by MinimumDegree")
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
	// moved to the end of the lower half. Neither half is empty.
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
