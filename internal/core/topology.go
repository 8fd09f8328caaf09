package core

import (
	"fmt"
	"iter"
	"strings"
)

// Topology is the neighbor graph the mechanisms exchange state over.
// The paper's three mechanisms implicitly assume a complete graph —
// every broadcast reaches all n-1 peers — and `full` reproduces that
// exactly. Sparse generators (ring, grid2d, torus, hypercube,
// random-k) restrict every state send, every slave selection and, in
// the TCP runtime, every socket to graph edges.
//
// A nil *Topology everywhere means `full`, so existing call sites need
// no topology-aware branches.
type Topology struct {
	name string
	n    int
	// nbrs[r] lists r's neighbors in ascending rank order. For `full`
	// this is every other rank, which makes neighbor iteration
	// byte-identical to the pre-topology `for to := 0; to < n; to++`
	// broadcast loops — the property the sim goldens pin.
	nbrs [][]int
}

// Name returns the generator name ("full" for nil).
func (t *Topology) Name() string {
	if t == nil {
		return TopoFull
	}
	return t.name
}

// N returns the number of ranks the topology was generated for.
func (t *Topology) N() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Neighbors returns rank's neighbors in ascending order. The slice is
// shared — callers must not mutate it.
func (t *Topology) Neighbors(rank int) []int { return t.nbrs[rank] }

// Degree returns the number of neighbors of rank.
func (t *Topology) Degree(rank int) int { return len(t.nbrs[rank]) }

// Edge reports whether (a,b) is an edge. Edges are undirected; a nil
// topology is complete, so every pair of distinct ranks is an edge.
func (t *Topology) Edge(a, b int) bool {
	if a == b {
		return false
	}
	if t == nil {
		return true
	}
	if a < 0 || b < 0 || a >= t.n || b >= t.n {
		return false
	}
	// Binary search the sorted neighbor list of the smaller-degree side.
	list := t.nbrs[a]
	if len(t.nbrs[b]) < len(list) {
		list, b = t.nbrs[b], a
	}
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && list[lo] == b
}

// IsFull reports whether the topology is the complete graph (nil or
// generated by `full`). Mechanisms use it to keep the paper's exact
// broadcast semantics on the complete graph.
func (t *Topology) IsFull() bool { return t == nil || t.name == TopoFull }

// The registered topology generator names. random-k is a family:
// "random-2", "random-3", ... select the minimum degree k.
const (
	TopoFull      = "full"
	TopoRing      = "ring"
	TopoGrid2D    = "grid2d"
	TopoTorus     = "torus"
	TopoHypercube = "hypercube"
	topoRandom    = "random" // family prefix, spelled random-<k>
)

// TopologyInfo describes one registered generator for listings.
type TopologyInfo struct {
	// Name is the spelling accepted by NewTopology ("random-<k>" for
	// the parameterized family).
	Name string
	// Params describes the generator's parameters and constraints.
	Params string
	// Desc is a one-line description.
	Desc string
}

// TopologyInfos lists the registered generators in listing order.
func TopologyInfos() []TopologyInfo {
	return []TopologyInfo{
		{TopoFull, "none", "complete graph — the paper's implicit all-to-all mesh (the default)"},
		{TopoRing, "none", "bidirectional ring: rank i ↔ (i±1) mod n"},
		{TopoGrid2D, "none", "2D mesh, ⌈√n⌉ columns row-major, 4-neighborhood, no wraparound"},
		{TopoTorus, "none", "2D torus: rows × cols = n with rows the largest divisor ≤ √n, wraparound"},
		{TopoHypercube, "n must be a power of two", "hypercube: neighbors differ in one bit of the rank"},
		{topoRandom + "-<k>", "k ≥ 1: minimum degree", "ring for connectivity plus seeded random edges until every degree ≥ k"},
	}
}

// TopologyNames lists the accepted generator spellings, with the
// random family shown as its pattern.
func TopologyNames() []string {
	infos := TopologyInfos()
	names := make([]string, len(infos))
	for i, inf := range infos {
		names[i] = inf.Name
	}
	return names
}

// NewTopology generates the named topology over n ranks. Unknown names
// and parameter violations (hypercube on a non-power-of-two n,
// random-k with k < 1) are errors naming the registered generators,
// mirroring the mechanism/chaos registries.
func NewTopology(name string, n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: topology %q needs at least 1 rank, got %d", name, n)
	}
	t := &Topology{name: name, n: n, nbrs: make([][]int, n)}
	switch {
	case name == TopoFull:
		for r := 0; r < n; r++ {
			t.nbrs[r] = allOtherRanks(n, r)
		}
	case name == TopoRing:
		for r := 0; r < n; r++ {
			t.addEdge(r, (r+1)%n)
		}
	case name == TopoGrid2D:
		cols := gridCols(n)
		for r := 0; r < n; r++ {
			if (r+1)%cols != 0 && r+1 < n {
				t.addEdge(r, r+1)
			}
			if r+cols < n {
				t.addEdge(r, r+cols)
			}
		}
	case name == TopoTorus:
		rows := torusRows(n)
		cols := n / rows
		for r := 0; r < n; r++ {
			row, col := r/cols, r%cols
			t.addEdge(r, row*cols+(col+1)%cols)
			t.addEdge(r, ((row+1)%rows)*cols+col)
		}
	case name == TopoHypercube:
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("core: hypercube needs a power-of-two rank count, got %d", n)
		}
		for r := 0; r < n; r++ {
			for bit := 1; bit < n; bit <<= 1 {
				t.addEdge(r, r^bit)
			}
		}
	case len(name) > len(topoRandom)+1 && name[:len(topoRandom)+1] == topoRandom+"-":
		k := 0
		for _, c := range name[len(topoRandom)+1:] {
			if c < '0' || c > '9' {
				k = -1
				break
			}
			k = k*10 + int(c-'0')
		}
		if k < 1 {
			return nil, fmt.Errorf("core: topology %q: random-<k> needs an integer minimum degree k ≥ 1", name)
		}
		// Ring overlay guarantees connectivity; seeded extra edges lift
		// every degree to k. The seed derives from (n, k) only, so every
		// forked process generates the identical graph.
		for r := 0; r < n; r++ {
			t.addEdge(r, (r+1)%n)
		}
		rng := splitmix64(uint64(n)*1000003 + uint64(k))
		for r := 0; r < n; r++ {
			for guard := 0; len(t.nbrs[r]) < k && guard < 64*n; guard++ {
				p := int(rng.next() % uint64(n))
				if p != r && !t.Edge(r, p) {
					t.addEdge(r, p)
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown topology %q (available: %s)",
			name, strings.Join(TopologyNames(), ", "))
	}
	return t, nil
}

// addEdge inserts the undirected edge (a,b), keeping neighbor lists
// sorted and duplicate-free (a ring of 2 ranks has one edge, not two).
func (t *Topology) addEdge(a, b int) {
	if a == b || t.Edge(a, b) {
		return
	}
	t.nbrs[a] = insertSorted(t.nbrs[a], b)
	t.nbrs[b] = insertSorted(t.nbrs[b], a)
}

func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// allOtherRanks is the complete graph's neighbor list: every rank but
// self, ascending — the exact visit order of the pre-topology
// broadcast loops.
func allOtherRanks(n, rank int) []int {
	out := make([]int, 0, n-1)
	for p := 0; p < n; p++ {
		if p != rank {
			out = append(out, p)
		}
	}
	return out
}

// gridCols picks the grid2d column count: ⌈√n⌉, so the mesh is as
// square as n allows with a possibly-partial last row.
func gridCols(n int) int {
	c := 1
	for c*c < n {
		c++
	}
	return c
}

// torusRows picks the torus factorization rows × cols = n with rows
// the largest divisor of n not exceeding √n (a prime n degenerates to
// a 1 × n ring, which the wraparound edges make exactly a ring).
func torusRows(n int) int {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best
}

// splitmix64 is the small deterministic PRNG random-k topologies draw
// from: reproducible independent of the runtime (identical across sim,
// net and forked processes).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// peers yields the ranks a mechanism on rank sends state to, ascending:
// the topology's neighbors, or on the complete graph (nil or `full`)
// every rank but rank itself. There the list is implied rather than
// stored — a materialised copy per rank is n² ints a cluster — and the
// visit order is that of the pre-topology broadcast loops.
func peers(topo *Topology, n, rank int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if !topo.IsFull() {
			for _, to := range topo.Neighbors(rank) {
				if !yield(to) {
					return
				}
			}
			return
		}
		for to := 0; to < n; to++ {
			if to != rank && !yield(to) {
				return
			}
		}
	}
}

// sendToPeers sends one message to every rank peers yields. On the
// complete graph that is the transport's Broadcast — every runtime
// implements it as the same ascending Send loop, and the simulator
// carries it as one record instead of n-1.
func sendToPeers(ctx Context, topo *Topology, kind int, payload any, bytes float64) {
	if topo.IsFull() {
		ctx.Broadcast(kind, payload, bytes)
		return
	}
	for _, to := range topo.Neighbors(ctx.Rank()) {
		ctx.Send(to, kind, payload, bytes)
	}
}
