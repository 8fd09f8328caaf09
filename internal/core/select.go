package core

// LeastLoaded returns the ranks of the k processes with the smallest
// estimate of metric m in the view, excluding rank `exclude` (pass -1 to
// exclude nobody). Ties break toward the lower rank, so the selection is
// a deterministic function of the view — every runtime (sim, live, net)
// uses this one function, which is what lets the cross-runtime
// equivalence tests re-derive a master's selection from its recorded
// view.
//
// The selection is a bounded max-heap partial sort (topK): O(n log k)
// instead of scanning candidates quadratically, so the hot decision
// path scales past the paper's 128 processes (see BenchmarkLeastLoaded).
// The scan walks the view's pages and base segments, not Load(p) per
// rank.
func LeastLoaded(v *View, m Metric, exclude, k int) []int {
	n := v.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		return []int{}
	}
	if k == 1 {
		// The common PlanDecision case: one least-loaded slave. The view
		// tracks its minimum incrementally, so this is O(1) when the
		// cache is warm and a plain scan (which re-warms it) otherwise.
		if best := v.minRank(m, exclude); best >= 0 {
			return []int{best}
		}
		return []int{}
	}
	sel := newTopK(k)
	for pi := range v.pages {
		lo := pi << viewPageShift
		for i, e := range v.segment(pi) {
			if lo+i != exclude {
				sel.offer(lo+i, e[m])
			}
		}
	}
	return sel.drain()
}

// topK keeps the k best (lowest load, then lowest key) of the
// candidates offered to it in a max-heap: the root is the worst kept
// candidate, evicted when a strictly better one arrives. Keys must be
// offered in ascending order, so an incoming candidate that ties the
// root on load necessarily has the higher key and loses the tie-break —
// strict comparison preserves the exact lower-key-wins semantics.
type topK struct {
	heap []cand
	k    int
}

type cand struct {
	p int
	l float64
}

func (a cand) worse(b cand) bool { return a.l > b.l || (a.l == b.l && a.p > b.p) }

func newTopK(k int) topK { return topK{heap: make([]cand, 0, k), k: k} }

// offer is the scan's inner loop: all but a few candidates are no
// better than the worst one kept and leave here, inlined.
func (t *topK) offer(p int, l float64) {
	if len(t.heap) == t.k && l >= t.heap[0].l {
		return
	}
	t.push(cand{p, l})
}

func (t *topK) push(c cand) {
	h := t.heap
	if len(h) < t.k {
		h = append(h, c)
		// Sift up.
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h[i].worse(h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		t.heap = h
	} else if h[0].worse(c) {
		h[0] = c
		t.siftDown()
	}
}

func (t *topK) siftDown() {
	h := t.heap
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		top := i
		if left < len(h) && h[left].worse(h[top]) {
			top = left
		}
		if right < len(h) && h[right].worse(h[top]) {
			top = right
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// drain empties the heap worst-first into the returned keys,
// best-first.
func (t *topK) drain() []int {
	out := make([]int, len(t.heap))
	for len(t.heap) > 0 {
		last := len(t.heap) - 1
		out[last] = t.heap[0].p
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		t.siftDown()
	}
	return out
}

// LeastLoadedAmong is LeastLoaded restricted to the given candidate
// ranks (deduplicated by the caller; self/exclude entries are
// skipped). Ties break toward the lower rank when candidates are
// ascending — the topology's neighbor lists are. Selection on a
// sparse topology uses it so masters only select slaves they share an
// edge with.
func LeastLoadedAmong(v *View, m Metric, exclude, k int, candidates []int) []int {
	if k > len(candidates) {
		k = len(candidates)
	}
	if k <= 0 {
		return []int{}
	}
	// Candidates compete under their position in the list, which is what
	// breaks ties.
	sel := newTopK(k)
	for i, p := range candidates {
		if p != exclude && p >= 0 && p < v.N() {
			sel.offer(i, v.Metric(p, m))
		}
	}
	out := sel.drain()
	for i, at := range out {
		out[i] = candidates[at]
	}
	return out
}

// Decision records one dynamic decision for invariant checking: the
// view the master consulted at acquire-ready time and the assignments
// it committed. The live and net runtimes both return it from their
// observed-decision APIs, so cross-runtime tests compare like with
// like.
type Decision struct {
	Master      int
	View        []Load
	Assignments []Assignment
}

// PlanDecision takes the dynamic scheduling decision every runtime
// driver shares: record the master's view, select the `slaves`
// least-workload peers per that view, and split totalWork into equal
// shares. Keeping the plan in one function is what makes the
// cross-runtime equivalence tests meaningful — sim, live and net
// cannot drift apart on tie-breaking, share rounding or counter
// ordering. The caller commits the returned assignments and ships the
// work.
func PlanDecision(view *View, master, slaves int, totalWork float64) Decision {
	d := Decision{Master: master, View: view.Snapshot()}
	sel := LeastLoaded(view, Workload, master, slaves)
	share := totalWork / float64(len(sel))
	for _, p := range sel {
		d.Assignments = append(d.Assignments, Assignment{Proc: int32(p), Delta: Load{Workload: share}})
	}
	return d
}

// PlanDecisionOn is PlanDecision restricted to a topology: on a sparse
// graph the master selects slaves among its neighbors only (the only
// ranks whose load it hears about and the only links it can ship work
// over). On the complete graph (nil or full) it is exactly
// PlanDecision — same code path, same tie-breaking.
func PlanDecisionOn(topo *Topology, view *View, master, slaves int, totalWork float64) Decision {
	if topo.IsFull() {
		return PlanDecision(view, master, slaves, totalWork)
	}
	d := Decision{Master: master, View: view.Snapshot()}
	sel := LeastLoadedAmong(view, Workload, master, slaves, topo.Neighbors(master))
	if len(sel) == 0 {
		return d
	}
	share := totalWork / float64(len(sel))
	for _, p := range sel {
		d.Assignments = append(d.Assignments, Assignment{Proc: int32(p), Delta: Load{Workload: share}})
	}
	return d
}
