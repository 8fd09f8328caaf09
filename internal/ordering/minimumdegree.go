package ordering

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sparse"
)

// MinimumDegree computes a fill-reducing elimination order using a
// quotient-graph multiple-minimum-degree algorithm with element
// absorption, outmatched-element absorption, supervariable merging
// (indistinguishable-node detection by hashing) and dense-row postponement
// — the standard ingredients of AMD-family codes. Degrees are weighted by
// supervariable sizes and computed with the AMD bound
//
//	d(v) = |A_v \ Lp| + |Lp \ v| + Σ_{e ∈ E_v} |L_e \ Lp|
//
// which is exact when v touches at most two elements.
func MinimumDegree(g *sparse.Graph) Perm {
	n := g.N
	if n == 0 {
		return Perm{}
	}

	const (
		stLive int8 = iota
		stElem      // eliminated: the vertex now names an element
		stMerged
		stDense
	)
	state := make([]int8, n)
	size := make([]int32, n) // supervariable weights
	// adjVar[v]: explicit variable adjacency (may contain stale entries,
	// filtered by state on read). For an element e, adjVar[e] is L_e.
	adjVar := make([][]int32, n)
	adjEl := make([][]int32, n)
	deg := make([]int32, n)
	absorbed := make([]bool, n) // element absorbed into a newer element

	// Supervariable member chains: firstMember/nextMember form a linked
	// list of original vertices represented by a live head.
	nextMember := make([]int32, n)
	lastMember := make([]int32, n)
	for v := range nextMember {
		nextMember[v] = -1
		lastMember[v] = int32(v)
		size[v] = 1
	}

	for v := 0; v < n; v++ {
		a := g.AdjOf(v)
		adjVar[v] = append([]int32(nil), a...)
		deg[v] = int32(len(a))
	}

	// Degree buckets (doubly linked lists).
	head := make([]int32, n+1)
	next := make([]int32, n)
	prev := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	inBucket := make([]bool, n)
	insert := func(v int32) {
		d := deg[v]
		next[v] = head[d]
		prev[v] = -1
		if head[d] >= 0 {
			prev[head[d]] = v
		}
		head[d] = v
		inBucket[v] = true
	}
	remove := func(v int32) {
		if !inBucket[v] {
			return
		}
		if prev[v] >= 0 {
			next[prev[v]] = next[v]
		} else {
			head[deg[v]] = next[v]
		}
		if next[v] >= 0 {
			prev[next[v]] = prev[v]
		}
		inBucket[v] = false
	}

	// Dense-row postponement: rows denser than the AMD-style threshold
	// are ordered last; they would otherwise dominate the quotient graph.
	densTh := int32(math.Max(16, 10*math.Sqrt(float64(n))))
	var dense []int32
	liveOrig := 0
	for v := int32(0); v < int32(n); v++ {
		if deg[v] > densTh {
			state[v] = stDense
			dense = append(dense, v)
			continue
		}
		insert(v)
		liveOrig++
	}

	mark := make([]int32, n)
	var stamp int32 = 1
	w := make([]int32, n) // |L_e \ Lp| counters, -1 = untouched
	for i := range w {
		w[i] = -1
	}

	order := make(Perm, 0, n)
	emit := func(v int32) {
		for m := v; m >= 0; m = nextMember[m] {
			order = append(order, m)
		}
	}

	curMin := int32(0)
	var lp []int32
	var touched []int32

	for liveOrig > 0 {
		// Pop the minimum-degree live variable.
		var p int32 = -1
		for curMin <= int32(n) {
			if h := head[curMin]; h >= 0 {
				p = h
				break
			}
			curMin++
		}
		if p < 0 {
			break // only dense vertices remain
		}
		remove(p)

		// Build Lp = reachable live variables through A_p and adjacent
		// elements.
		stamp++
		mark[p] = stamp
		lp = lp[:0]
		lpWeight := int32(0)
		for _, u := range adjVar[p] {
			if state[u] == stLive && mark[u] != stamp {
				mark[u] = stamp
				lp = append(lp, u)
				lpWeight += size[u]
			}
		}
		for _, e := range adjEl[p] {
			if state[e] != stElem || absorbed[e] {
				continue
			}
			for _, u := range adjVar[e] {
				if state[u] == stLive && mark[u] != stamp {
					mark[u] = stamp
					lp = append(lp, u)
					lpWeight += size[u]
				}
			}
			absorbed[e] = true // element absorption
		}

		// p becomes an element with variable list Lp.
		state[p] = stElem
		adjVar[p] = append(adjVar[p][:0], lp...)
		adjEl[p] = nil
		emit(p)
		liveOrig -= int(size[p])

		// First pass: w[e] = |L_e \ Lp| (weighted) for every element
		// touching Lp; compact stale entries out of L_e on first touch.
		touched = touched[:0]
		for _, v := range lp {
			for _, e := range adjEl[v] {
				if state[e] != stElem || absorbed[e] || e == p {
					continue
				}
				if w[e] < 0 {
					le := adjVar[e][:0]
					var wl int32
					for _, u := range adjVar[e] {
						if state[u] == stLive {
							le = append(le, u)
							wl += size[u]
						}
					}
					adjVar[e] = le
					w[e] = wl
					touched = append(touched, e)
				}
				w[e] -= size[v]
			}
		}
		// Outmatched elements: L_e ⊆ Lp ⇒ absorb into p.
		for _, e := range touched {
			if w[e] == 0 {
				absorbed[e] = true
			}
		}

		// Second pass: prune lists and recompute degrees of Lp members.
		for _, v := range lp {
			av := adjVar[v][:0]
			var avW int32
			for _, u := range adjVar[v] {
				if state[u] == stLive && mark[u] != stamp { // drops Lp members and p
					av = append(av, u)
					avW += size[u]
				}
			}
			adjVar[v] = av
			ev := adjEl[v][:0]
			var elW int32
			for _, e := range adjEl[v] {
				if state[e] == stElem && !absorbed[e] && e != p {
					ev = append(ev, e)
					if w[e] > 0 {
						elW += w[e]
					}
				}
			}
			ev = append(ev, p)
			adjEl[v] = ev

			d := avW + (lpWeight - size[v]) + elW
			if max := int32(liveOrig) - size[v]; d > max {
				d = max
			}
			if d < 0 {
				d = 0
			}
			remove(v)
			deg[v] = d
			insert(v)
			if d < curMin {
				curMin = d
			}
		}

		// Supervariable detection: group Lp members by a cheap adjacency
		// hash, then confirm by exact comparison and merge.
		if len(lp) > 1 {
			type hv struct {
				h uint64
				v int32
			}
			hs := make([]hv, 0, len(lp))
			for _, v := range lp {
				if state[v] != stLive {
					continue
				}
				var h uint64 = 1469598103934665603
				for _, u := range adjVar[v] {
					h = (h ^ uint64(u)) * 1099511628211
				}
				var eh uint64
				for _, e := range adjEl[v] {
					eh += uint64(e)*2654435761 + 0x9e37
				}
				hs = append(hs, hv{h + eh, v})
			}
			slices.SortFunc(hs, func(a, b hv) int { return cmp.Compare(a.h, b.h) })
			for i := 0; i < len(hs); {
				j := i + 1
				for j < len(hs) && hs[j].h == hs[i].h {
					j++
				}
				for a := i; a < j; a++ {
					va := hs[a].v
					if state[va] != stLive {
						continue
					}
					for b := a + 1; b < j; b++ {
						vb := hs[b].v
						if state[vb] != stLive {
							continue
						}
						if sameAdjacency(adjVar[va], adjVar[vb], adjEl[va], adjEl[vb]) {
							// Merge vb into va.
							remove(vb)
							state[vb] = stMerged
							nextMember[lastMember[va]] = vb
							lastMember[va] = lastMember[vb]
							size[va] += size[vb]
							d := deg[va] - size[vb]
							if d < 0 {
								d = 0
							}
							remove(va)
							deg[va] = d
							insert(va)
							if d < curMin {
								curMin = d
							}
						}
					}
				}
				i = j
			}
		}

		// Reset w for the touched elements.
		for _, e := range touched {
			w[e] = -1
		}
	}

	// Dense vertices last, lowest original degree first.
	slices.SortFunc(dense, func(a, b int32) int {
		return cmp.Compare(g.Degree(int(a)), g.Degree(int(b)))
	})
	for _, v := range dense {
		order = append(order, v)
	}
	return order
}

// sameAdjacency reports whether two variables have identical pruned
// adjacency (both variable and element lists). Lists are small; sorting
// in place is fine because order within them is not semantically
// significant.
func sameAdjacency(avA, avB, elA, elB []int32) bool {
	if len(avA) != len(avB) || len(elA) != len(elB) {
		return false
	}
	slices.Sort(avA)
	slices.Sort(avB)
	for i := range avA {
		if avA[i] != avB[i] {
			return false
		}
	}
	slices.Sort(elA)
	slices.Sort(elB)
	for i := range elA {
		if elA[i] != elB[i] {
			return false
		}
	}
	return true
}
