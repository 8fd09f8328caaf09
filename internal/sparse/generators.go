package sparse

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Stencil selects the connectivity of grid generators.
type Stencil uint8

const (
	// Star is the 5-point (2D) / 7-point (3D) stencil.
	Star Stencil = iota
	// Box is the 9-point (2D) / 27-point (3D) stencil, producing the
	// denser rows of higher-order discretizations (e.g. the ULTRASOUND
	// problems).
	Box
)

// Grid3D generates the pattern of a finite-difference/element operator on
// an nx×ny×nz grid with the given stencil, with dof unknowns per grid
// point (dof > 1 models vector problems such as elasticity, giving the
// denser rows of the PARASOL structural matrices). Coordinates are
// attached for geometric nested dissection.
//
// The graph is written straight into CSR: a vertex couples with the other
// dofs of its point and every dof of its in-grid stencil neighbours, and
// visiting the offsets in (dz, dy, dx) order visits those points in
// ascending linear index, so each list comes out sorted and unique.
func Grid3D(nx, ny, nz, dof int, st Stencil, kind Kind) (*Pattern, *Graph) {
	if nx < 1 || ny < 1 || nz < 1 || dof < 1 {
		panic("sparse: invalid grid dimensions")
	}
	n := nx * ny * nz * dof
	// Stencil couplings summed over the points, each point's own included:
	// an axis of m points holds 3m-2 ordered pairs at distance at most one.
	pairs := (3*nx - 2) * (3*ny - 2) * (3*nz - 2)
	if st == Star {
		pairs = nx*ny*nz + 2*((nx-1)*ny*nz+nx*(ny-1)*nz+nx*ny*(nz-1))
	}
	if dof*dof*pairs > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: a %d×%d×%d grid overflows the int32 indices of a Pattern", nx, ny, nz))
	}
	// The stencil's offsets in (dz, dy, dx) order, the point itself included.
	offs := make([][3]int, 0, 27)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if st == Box || dx*dx+dy*dy+dz*dz <= 1 {
					offs = append(offs, [3]int{dx, dy, dz})
				}
			}
		}
	}
	ptr, adj, coords := make([]int32, n+1), make([]int32, 0, dof*dof*pairs-n), make([][3]float64, n)
	pts := make([]int, 0, 27) // first vertex of each in-grid stencil point
	v := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				pts = pts[:0]
				for _, o := range offs {
					x2, y2, z2 := x+o[0], y+o[1], z+o[2]
					if uint(x2) < uint(nx) && uint(y2) < uint(ny) && uint(z2) < uint(nz) {
						pts = append(pts, ((z2*ny+y2)*nx+x2)*dof)
					}
				}
				for d := 0; d < dof; d++ {
					for _, u := range pts {
						for w := u; w < u+dof; w++ {
							if w != v {
								adj = append(adj, int32(w))
							}
						}
					}
					ptr[v+1] = int32(len(adj))
					coords[v] = [3]float64{float64(x), float64(y), float64(z)}
					v++
				}
			}
		}
	}
	g := &Graph{N: n, Ptr: ptr, Adj: adj, Coords: coords}
	return patternOf(g, kind), g
}

// patternOf returns the pattern whose off-diagonal structure is g, with
// the full diagonal: column j holds j and every neighbour of j, or only
// the neighbours below the diagonal when kind is Sym.
func patternOf(g *Graph, kind Kind) *Pattern {
	size := g.N + len(g.Adj)
	if kind == Sym {
		size = g.N + len(g.Adj)/2
	}
	colPtr, rows := make([]int32, g.N+1), make([]int32, 0, size)
	for j := 0; j < g.N; j++ {
		adj := g.AdjOf(j)
		k, _ := slices.BinarySearch(adj, int32(j))
		if kind == Unsym {
			rows = append(rows, adj[:k]...)
		}
		rows = append(append(rows, int32(j)), adj[k:]...)
		colPtr[j+1] = int32(len(rows))
	}
	return &Pattern{N: g.N, Kind: kind, ColPtr: colPtr, RowIdx: rows}
}

// Grid2D generates a 2D grid operator (nz = 1 layer of Grid3D).
func Grid2D(nx, ny, dof int, st Stencil, kind Kind) (*Pattern, *Graph) {
	return Grid3D(nx, ny, 1, dof, st, kind)
}

// RandomSym generates a random symmetric pattern with n vertices and
// roughly avgDeg off-diagonal entries per row, using a short-range plus
// long-range mix: frac of the edges connect to nearby indices (banded
// structure, as in discretized problems after some ordering) and the rest
// are uniform (the irregular coupling of circuit or LP matrices).
func RandomSym(n, avgDeg int, frac float64, rng *sim.RNG, kind Kind) *Pattern {
	b := NewBuilder(n, kind)
	for i := 0; i < n; i++ {
		b.AddSym(i, i)
	}
	edges := n * avgDeg / 2
	width := n/50 + 2
	for e := 0; e < edges; e++ {
		i := rng.Intn(n)
		var j int
		if rng.Float64() < frac {
			off := rng.Intn(2*width+1) - width
			j = i + off
			if j < 0 || j >= n {
				j = rng.Intn(n)
			}
		} else {
			j = rng.Intn(n)
		}
		if i == j {
			continue
		}
		b.AddSym(i, j)
	}
	return b.Build()
}

// PowerLawSym generates a symmetric pattern with a few very dense rows on
// top of a sparse background, mimicking normal-equation matrices such as
// GUPTA3 (A·Aᵀ of a linear program): nDense rows are connected to a
// random denseDeg vertices each; the background has avgDeg entries/row.
func PowerLawSym(n, avgDeg, nDense, denseDeg int, rng *sim.RNG) *Pattern {
	if denseDeg >= n {
		denseDeg = n - 1
	}
	b := NewBuilder(n, Sym)
	for i := 0; i < n; i++ {
		b.AddSym(i, i)
	}
	for e := 0; e < n*avgDeg/2; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddSym(i, j)
		}
	}
	for d := 0; d < nDense; d++ {
		hub := rng.Intn(n)
		for k := 0; k < denseDeg; k++ {
			j := rng.Intn(n)
			if j != hub {
				b.AddSym(hub, j)
			}
		}
	}
	return b.Build()
}

// GridPerturbed generates a 2D grid operator with a sprinkling of random
// long-range edges (fracExtra per vertex). Circuit matrices (TWOTONE,
// PRE2) are dominated by a near-planar structure plus a few global
// couplings (supply rails, harmonics); this generator reproduces that
// class and keeps coordinates for geometric nested dissection.
func GridPerturbed(nx, ny int, fracExtra float64, rng *sim.RNG, kind Kind) (*Pattern, *Graph) {
	n := nx * ny
	b := NewBuilder(n, kind)
	b.reserve(5*n + 2*int(float64(n)*fracExtra))
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			b.AddSym(idx(x, y), idx(x, y))
			if x+1 < nx {
				b.AddSym(idx(x, y), idx(x+1, y))
			}
			if y+1 < ny {
				b.AddSym(idx(x, y), idx(x, y+1))
			}
		}
	}
	extra := int(float64(n) * fracExtra)
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddSym(i, j)
		}
	}
	p := b.Build()
	g := p.ToGraph()
	g.Coords = make([][3]float64, n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			g.Coords[idx(x, y)] = [3]float64{float64(x), float64(y), 0}
		}
	}
	return p, g
}

// CliqueOverlay generates the normal-equation structure of a linear
// program (GUPTA3 = A·Aᵀ): each of the k cliques couples a random subset
// of `cliqueSize` unknowns (rows sharing a column of A form a clique of
// A·Aᵀ), over a sparse banded background.
func CliqueOverlay(n, k, cliqueSize, bgDeg int, rng *sim.RNG) *Pattern {
	b := NewBuilder(n, Sym)
	b.reserve(n*(1+bgDeg/2) + k*cliqueSize*(cliqueSize-1)/2)
	for i := 0; i < n; i++ {
		b.AddSym(i, i)
		for d := 1; d <= bgDeg/2; d++ {
			if i+d < n {
				b.AddSym(i, i+d)
			}
		}
	}
	members := make([]int, cliqueSize)
	for c := 0; c < k; c++ {
		// A clique anchored around a random center with a mix of local
		// and global members, so cliques overlap.
		center := rng.Intn(n)
		for m := range members {
			if rng.Float64() < 0.7 {
				members[m] = (center + rng.Intn(cliqueSize*3)) % n
			} else {
				members[m] = rng.Intn(n)
			}
		}
		for a := 0; a < len(members); a++ {
			for bIdx := a + 1; bIdx < len(members); bIdx++ {
				if members[a] != members[bIdx] {
					b.AddSym(members[a], members[bIdx])
				}
			}
		}
	}
	return b.Build()
}

// String summarizes a pattern like the rows of Tables 1-2.
func (p *Pattern) String() string {
	return fmt.Sprintf("n=%d nnz=%d %s", p.N, p.NNZ(), p.Kind)
}
