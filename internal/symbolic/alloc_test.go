package symbolic

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/ordering"
	"repro/internal/sparse"
)

// allocated returns the bytes f allocates. The caller disables the
// collector, so the scratch a previous call left for reuse is still there.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// nodesBytes is the storage of the nodes Supernodes returns: the nodes
// and the one array their child lists are carved from.
func nodesBytes(nodes []SNode) uint64 {
	kids := 0
	for i := range nodes {
		kids += len(nodes[i].Children)
	}
	return uint64(len(nodes))*uint64(unsafe.Sizeof(SNode{})) + 4*uint64(kids)
}

// slack covers size-class rounding (at most an eighth over 1 KB) and a
// small constant: pins hold within it, not to the byte.
func slack(b uint64) uint64 { return b + b/8 + 4096 }

// TestAnalyzeGraphAllocatesOnlyItsResult pins the analysis's scratch
// reuse: a second analysis of the same graph allocates the Analysis it
// returns and nothing else of size.
func TestAnalyzeGraphAllocatesOnlyItsResult(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, g := sparse.Grid3D(16, 16, 16, 3, sparse.Star, sparse.Sym)
	perm := ordering.NestedDissection(g)
	analyze := func() *Analysis {
		a, err := AnalyzeGraph(g, perm, true, DefaultAmalg())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	analyze()
	var a *Analysis
	got := allocated(func() { a = analyze() })
	result := uint64(unsafe.Sizeof(*a)) + 4*uint64(cap(a.Perm)+cap(a.Parent)+cap(a.Counts)+cap(a.Roots)) + nodesBytes(a.Nodes)
	if got > slack(result) {
		t.Fatalf("second AnalyzeGraph of n=%d allocated %d bytes; its result is %d", g.N, got, result)
	}
}

// TestSupernodesAllocatesOnlyItsOutput pins Supernodes to its output plus
// at most one construction array of the tree's size.
func TestSupernodesAllocatesOnlyItsOutput(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, g := sparse.Grid3D(16, 16, 16, 3, sparse.Star, sparse.Sym)
	a, err := AnalyzeGraph(g, ordering.NestedDissection(g), true, DefaultAmalg())
	if err != nil {
		t.Fatal(err)
	}
	Supernodes(a.Parent, a.Counts, DefaultAmalg())
	var nodes []SNode
	got := allocated(func() { nodes = Supernodes(a.Parent, a.Counts, DefaultAmalg()) })
	if out := nodesBytes(nodes); got > slack(out+4*uint64(a.N)) {
		t.Fatalf("Supernodes allocated %d bytes for %d bytes of output (n=%d)", got, out, a.N)
	}
}
