package sparse

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Problem is one of the paper's test matrices (Tables 1 and 2) together
// with the synthetic generator that stands in for it.
//
// The real matrices come from the PARASOL and University-of-Florida
// collections, which are not redistributable inside this repository; each
// analogue reproduces the structural class that drives the experiments:
// dimensionality (3D solid / thin shell / irregular circuit / dense LP),
// unknowns per node and stencil density. Scale < 1 shrinks the problem
// while preserving that class.
type Problem struct {
	Name string
	// PaperOrder and PaperNNZ are the values reported in Tables 1-2.
	PaperOrder int
	PaperNNZ   int
	Kind       Kind
	Desc       string
	// Set is 1 for Table 1 problems, 2 for Table 2 (larger) problems.
	Set int
	gen func(scale float64, seed uint64) (*Pattern, *Graph)
}

// Generate materializes the synthetic analogue at the given scale.
// Scale 1 approximates the paper's order; the experiments default to a
// smaller scale so the whole suite runs on a laptop. Only the GUPTA3,
// PRE2 and TWOTONE analogues draw from seed; every other one is a
// deterministic grid or shell that ignores it.
func (pr *Problem) Generate(scale float64, seed uint64) (*Pattern, *Graph) {
	if scale <= 0 {
		scale = 1
	}
	p, g := pr.gen(scale, seed)
	if g == nil {
		g = p.ToGraph()
	}
	return p, g
}

// scaleDim shrinks a linear grid dimension by scale^(1/3) (volume scaling).
func scaleDim(d int, scale float64) int {
	s := int(math.Round(float64(d) * math.Cbrt(scale)))
	if s < 6 {
		s = 6
	}
	return s
}

// intSqrt returns ⌊√n⌋.
func intSqrt(n int) int {
	s := int(math.Sqrt(float64(n)))
	if s < 4 {
		s = 4
	}
	return s
}

// scaleN shrinks a vertex count linearly.
func scaleN(n int, scale float64) int {
	s := int(math.Round(float64(n) * scale))
	if s < 400 {
		s = 400
	}
	return s
}

func grid3(nx, ny, nz, dof int, st Stencil, kind Kind) func(float64, uint64) (*Pattern, *Graph) {
	return func(scale float64, _ uint64) (*Pattern, *Graph) {
		return Grid3D(scaleDim(nx, scale), scaleDim(ny, scale), scaleDim(nz, scale), dof, st, kind)
	}
}

// shell3 scales only the two in-plane dimensions (thin structures keep
// their thickness).
func shell3(nx, ny, nz, dof int, st Stencil, kind Kind) func(float64, uint64) (*Pattern, *Graph) {
	return func(scale float64, _ uint64) (*Pattern, *Graph) {
		f := math.Sqrt(scale)
		sx := int(math.Round(float64(nx) * f))
		sy := int(math.Round(float64(ny) * f))
		if sx < 8 {
			sx = 8
		}
		if sy < 8 {
			sy = 8
		}
		return Grid3D(sx, sy, nz, dof, st, kind)
	}
}

// Registry lists the paper's test problems in table order.
var Registry = []*Problem{
	{
		Name: "BMWCRA_1", PaperOrder: 148770, PaperNNZ: 5396386, Kind: Sym, Set: 1,
		Desc: "Automotive crankshaft model (PARASOL)",
		gen:  grid3(37, 37, 37, 3, Star, Sym),
	},
	{
		Name: "GUPTA3", PaperOrder: 16783, PaperNNZ: 4670105, Kind: Sym, Set: 1,
		Desc: "Linear programming matrix A*A' (Tim Davis)",
		gen: func(scale float64, seed uint64) (*Pattern, *Graph) {
			n := scaleN(16783, scale)
			rng := sim.NewRNG(seed ^ 0x67757074)
			return CliqueOverlay(n, n/45+8, 64, 4, rng), nil
		},
	},
	{
		Name: "MSDOOR", PaperOrder: 415863, PaperNNZ: 10328399, Kind: Sym, Set: 1,
		Desc: "Medium size door (PARASOL)",
		gen:  shell3(215, 215, 3, 3, Star, Sym),
	},
	{
		Name: "SHIP_003", PaperOrder: 121728, PaperNNZ: 4103881, Kind: Sym, Set: 1,
		Desc: "Ship structure (PARASOL)",
		gen:  shell3(101, 101, 4, 3, Star, Sym),
	},
	{
		Name: "PRE2", PaperOrder: 659033, PaperNNZ: 5959282, Kind: Unsym, Set: 1,
		Desc: "AT&T, harmonic balance method (Tim Davis)",
		gen: func(scale float64, seed uint64) (*Pattern, *Graph) {
			n := scaleN(659033, scale)
			w := intSqrt(n)
			rng := sim.NewRNG(seed ^ 0x70726532)
			return GridPerturbed(w, (n+w-1)/w, 0.04, rng, Unsym)
		},
	},
	{
		Name: "TWOTONE", PaperOrder: 120750, PaperNNZ: 1224224, Kind: Unsym, Set: 1,
		Desc: "AT&T, harmonic balance method (Tim Davis)",
		gen: func(scale float64, seed uint64) (*Pattern, *Graph) {
			n := scaleN(120750, scale)
			w := intSqrt(n)
			rng := sim.NewRNG(seed ^ 0x74776f74)
			return GridPerturbed(w, (n+w-1)/w, 0.06, rng, Unsym)
		},
	},
	{
		Name: "ULTRASOUND3", PaperOrder: 185193, PaperNNZ: 11390625, Kind: Unsym, Set: 1,
		Desc: "Propagation of 3D ultrasound waves (X. Cai, Simula)",
		gen:  grid3(57, 57, 57, 1, Box, Unsym),
	},
	{
		Name: "XENON2", PaperOrder: 157464, PaperNNZ: 3866688, Kind: Unsym, Set: 1,
		Desc: "Complex zeolite, sodalite crystals (Tim Davis)",
		gen:  grid3(54, 54, 54, 1, Box, Unsym),
	},
	{
		Name: "AUDIKW_1", PaperOrder: 943695, PaperNNZ: 39297771, Kind: Sym, Set: 2,
		Desc: "Automotive crankshaft model, large (PARASOL)",
		gen:  grid3(68, 68, 68, 3, Star, Sym),
	},
	{
		Name: "CONV3D64", PaperOrder: 836550, PaperNNZ: 12548250, Kind: Unsym, Set: 2,
		Desc: "CFD, provided by CEA-CESTA, generated with AQUILON",
		gen:  grid3(94, 94, 94, 1, Star, Unsym),
	},
	{
		Name: "ULTRASOUND80", PaperOrder: 531441, PaperNNZ: 330761161, Kind: Unsym, Set: 2,
		Desc: "Propagation of 3D ultrasound waves, large (M. Sosonkina)",
		gen:  grid3(81, 81, 81, 1, Box, Unsym),
	},
}

// ByName returns the registered problem with the given name.
func ByName(name string) (*Problem, error) {
	for _, pr := range Registry {
		if pr.Name == name {
			return pr, nil
		}
	}
	return nil, fmt.Errorf("sparse: unknown problem %q", name)
}

// Set1 returns the Table 1 problems; Set2 the Table 2 problems.
func Set1() []*Problem { return bySet(1) }

// Set2 returns the Table 2 (larger) problems.
func Set2() []*Problem { return bySet(2) }

func bySet(s int) []*Problem {
	var out []*Problem
	for _, pr := range Registry {
		if pr.Set == s {
			out = append(out, pr)
		}
	}
	slices.SortFunc(out, func(a, b *Problem) int { return strings.Compare(a.Name, b.Name) })
	return out
}
