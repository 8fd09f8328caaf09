package ordering

import (
	"cmp"
	"slices"
	"sort"

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
		var a, b []int32
		if g.Coords != nil {
			a, b = geometricSplit(g, vs)
		} else {
			a, b = levelSplit(g, vs)
		}
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

// geometricSplit halves vs along the widest coordinate axis at the median.
func geometricSplit(g *sparse.Graph, vs []int32) (a, b []int32) {
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

// RCM computes a reverse Cuthill-McKee order: a bandwidth-reducing
// breadth-first order from a pseudo-peripheral root, neighbours visited by
// increasing degree, then reversed. Useful as a baseline ordering and for
// banded problems.
func RCM(g *sparse.Graph) Perm {
	n := g.N
	visited := make([]bool, n)
	order := make(Perm, 0, n)
	all := map[int32]bool{}
	for v := int32(0); v < int32(n); v++ {
		all[v] = true
	}
	for s := int32(0); s < int32(n); s++ {
		if visited[s] {
			continue
		}
		root := pseudoPeripheral(g, s, all)
		if visited[root] {
			root = s
		}
		visited[root] = true
		queue := []int32{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			var nbrs []int32
			for _, u := range g.AdjOf(int(v)) {
				if !visited[u] {
					visited[u] = true
					nbrs = append(nbrs, u)
				}
			}
			sort.Slice(nbrs, func(i, j int) bool {
				di, dj := g.Degree(int(nbrs[i])), g.Degree(int(nbrs[j]))
				if di != dj {
					return di < dj
				}
				return nbrs[i] < nbrs[j]
			})
			queue = append(queue, nbrs...)
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}
