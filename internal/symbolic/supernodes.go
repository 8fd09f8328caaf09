package symbolic

import "fmt"

// AmalgParams tunes relaxed supernode amalgamation (the analysis knob that
// controls assembly-tree granularity, as in MUMPS).
type AmalgParams struct {
	// SmallPiv: a child whose merged pivot count with its parent stays
	// below this is always absorbed (tiny fronts are never worth a task).
	SmallPiv int32
	// FillTol: otherwise merge when the extra (logical) fill introduced
	// by the merge is below this fraction of the merged front area.
	FillTol float64
	// MaxPiv caps the pivot count of an amalgamated node; 0 = no cap.
	MaxPiv int32
}

// DefaultAmalg returns the parameters used by the experiments.
func DefaultAmalg() AmalgParams {
	return AmalgParams{SmallPiv: 16, FillTol: 0.02, MaxPiv: 0}
}

// SNode is one assembly-tree node after amalgamation: a set of Npiv pivot
// variables eliminated within a frontal matrix of order Nfront.
type SNode struct {
	ID       int32
	Parent   int32 // -1 for roots
	Children []int32
	FirstPiv int32 // first pivot in postorder (for fundamental chains)
	Npiv     int32
	Nfront   int32
}

// SchurSize returns the order of the contribution block produced by the
// node (Nfront - Npiv).
func (s *SNode) SchurSize() int32 { return s.Nfront - s.Npiv }

// Supernodes builds fundamental supernodes from a postordered etree and
// its column counts, then applies relaxed amalgamation. Nodes are returned
// in topological order (children before parents) with consistent
// Parent/Children links.
func Supernodes(parent []int32, counts []int32, prm AmalgParams) []SNode {
	ar := arenas.Get()
	defer ar.release()
	return supernodes(ar, parent, counts, prm)
}

// supernodes is Supernodes with its scratch taken from ar. The working
// supernodes are held as columns (parent, first pivot, pivots, front) of
// arena arrays; only the returned nodes and their child lists allocate.
func supernodes(ar *arena, parent []int32, counts []int32, prm AmalgParams) []SNode {
	defer ar.free(ar.used)
	n := len(parent)
	if n == 0 {
		return nil
	}
	// Count children to detect chain merges.
	nchild := ar.take(n)
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			nchild[parent[v]]++
		}
	}
	// Fundamental supernodes: v and parent v+1 merge when v is the only
	// child and the column structures nest exactly.
	snOf, first, npiv, nfront := ar.take(n), ar.take(n), ar.take(n), ar.take(n)
	ns := 0
	for v := 0; v < n; v++ {
		if v > 0 && parent[v-1] == int32(v) && nchild[v] == 1 &&
			counts[v] == counts[v-1]-1 {
			snOf[v] = snOf[v-1]
			npiv[snOf[v]]++
			continue
		}
		snOf[v] = int32(ns)
		first[ns], npiv[ns], nfront[ns] = int32(v), 1, counts[v]
		ns++
	}
	// Link the supernode tree through the last pivot of each supernode;
	// the child counts are spent, so their array holds the links.
	up := nchild[:ns]
	for i := range up {
		up[i] = -1
		if p := parent[first[i]+npiv[i]-1]; p >= 0 {
			up[i] = snOf[p]
		}
	}

	// Relaxed amalgamation, bottom-up: absorb a child into its parent
	// when the node is tiny or the extra fill is acceptable. Nfront of the
	// merged node is the standard upper bound npiv_child + nfront_parent
	// (the child's border is contained in the parent's front plus the
	// child's own pivots). An absorbed node keeps its parent link, through
	// which its children resolve to the absorbing node; newID marks it -1.
	newID := snOf[:ns]
	clear(newID)
	// Process in topological (increasing FirstPiv ⇒ children first) order.
	for c := range ns {
		p := up[c]
		if newID[c] < 0 || p < 0 {
			continue
		}
		mergedPiv := npiv[c] + npiv[p]
		mergedFront := max(npiv[c]+nfront[p], nfront[c])
		// Merging pads the child's pivot rows from width Nfront_c to the
		// merged front width: that is the (logical) fill the merge
		// introduces.
		extra := float64(npiv[c]) * float64(mergedFront-nfront[c])
		area := float64(mergedFront) * float64(mergedFront)
		small := mergedPiv <= prm.SmallPiv
		okFill := extra <= prm.FillTol*area
		capped := prm.MaxPiv > 0 && mergedPiv > prm.MaxPiv
		if capped || (!small && !okFill) {
			continue
		}
		// Absorb c into p.
		npiv[p] = mergedPiv
		nfront[p] = mergedFront
		first[p] = min(first[p], first[c])
		newID[c] = -1
	}

	// Compact: renumber live nodes in topological order and rebuild links.
	live := 0
	for i := range newID {
		if newID[i] == 0 {
			newID[i] = int32(live)
			live++
		}
	}
	out := make([]SNode, live)
	nkids := 0
	for i, id := range newID {
		if id < 0 {
			continue
		}
		// Chase the parent link through absorbed nodes to the live ancestor.
		p := up[i]
		for p >= 0 && newID[p] < 0 {
			p = up[p]
		}
		if p >= 0 {
			p = newID[p]
			nkids++
		}
		if p == id {
			panic("symbolic: node became its own parent")
		}
		out[id] = SNode{ID: id, Parent: p, FirstPiv: first[i], Npiv: npiv[i], Nfront: nfront[i]}
	}
	// Child lists, ascending, carved from one array.
	kids := make([]int32, 0, nkids)
	nk := ar.take(live)
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			nk[p]++
		}
	}
	for i := range out {
		if nk[i] > 0 {
			out[i].Children = kids[len(kids) : len(kids) : len(kids)+int(nk[i])]
			kids = kids[:len(kids)+int(nk[i])]
		}
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[p].Children = append(out[p].Children, out[i].ID)
		}
	}
	// Topological sanity: children must precede parents.
	for i := range out {
		if p := out[i].Parent; p >= 0 && p <= int32(i) {
			panic(fmt.Sprintf("symbolic: tree not topological (node %d parent %d)", i, p))
		}
	}
	return out
}
