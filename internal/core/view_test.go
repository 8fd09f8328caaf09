package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refLeastLoaded is the dense oracle of LeastLoaded: sort every
// non-excluded rank of a plain load slice by (load, rank) and keep k.
func refLeastLoaded(loads []Load, m Metric, exclude, k int) []int {
	all := make([]int, len(loads))
	for p := range all {
		all[p] = p
	}
	return refLeastLoadedAmong(loads, m, exclude, k, all)
}

// refLeastLoadedAmong is the dense oracle of LeastLoadedAmong: ties
// break toward the earlier candidate.
func refLeastLoadedAmong(loads []Load, m Metric, exclude, k int, candidates []int) []int {
	out := []int{}
	for _, p := range candidates {
		if p != exclude && p >= 0 && p < len(loads) {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return loads[out[i]][m] < loads[out[j]][m] })
	if k < 0 {
		k = 0
	}
	return out[:min(k, len(out))]
}

// viewOracle pairs a paged view with the dense slice it must read as.
type viewOracle struct {
	t     *testing.T
	rng   *rand.Rand
	exch  Exchanger
	v     *View
	rank  int
	ref   []Load
	bases [][2][]Load // every slice handed to the view, and a copy of it
}

// quantized loads force ties on both metrics.
func (o *viewOracle) load() Load {
	return Load{Workload: float64(o.rng.Intn(5)), Memory: float64(o.rng.Intn(3))}
}

func (o *viewOracle) loads(n int) []Load {
	out := make([]Load, n)
	for p := range out {
		out[p] = o.load()
	}
	return out
}

// seed hands initial to SeedView and applies the contract to the
// reference: every entry given but the owner's is overwritten.
func (o *viewOracle) seed(initial []Load) {
	o.bases = append(o.bases, [2][]Load{initial, slices.Clone(initial)})
	SeedView(o.exch, o.rank, initial)
	for p, l := range initial {
		if p != o.rank {
			o.ref[p] = l
		}
	}
}

func (o *viewOracle) same(what string, got, want []int) {
	o.t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		o.t.Fatalf("n=%d %s: got %v, want %v", len(o.ref), what, got, want)
	}
}

// check compares every read path of the view with the reference.
func (o *viewOracle) check() {
	o.t.Helper()
	n := len(o.ref)
	if o.v.N() != n {
		o.t.Fatalf("N() = %d, want %d", o.v.N(), n)
	}
	if snap := o.v.Snapshot(); !reflect.DeepEqual(snap, o.ref) {
		o.t.Fatalf("n=%d: Snapshot differs from the dense reference", n)
	}
	p := o.rng.Intn(n)
	if o.v.Load(p) != o.ref[p] || o.v.Metric(p, Memory) != o.ref[p][Memory] {
		o.t.Fatalf("n=%d: Load(%d) = %v, want %v", n, p, o.v.Load(p), o.ref[p])
	}
	m := Metric(o.rng.Intn(int(NumMetrics)))
	// k = 1 with nobody excluded warms the minimum cache; the next two
	// queries exclude the cached minimum itself and some other rank.
	best := LeastLoaded(o.v, m, -1, 1)
	o.same("min", best, refLeastLoaded(o.ref, m, -1, 1))
	for _, exclude := range []int{best[0], o.rng.Intn(n), n} {
		o.same(fmt.Sprintf("min excluding %d", exclude),
			LeastLoaded(o.v, m, exclude, 1), refLeastLoaded(o.ref, m, exclude, 1))
	}
	k, exclude := o.rng.Intn(n+2), o.rng.Intn(n+1)-1
	o.same(fmt.Sprintf("LeastLoaded(k=%d, exclude=%d)", k, exclude),
		LeastLoaded(o.v, m, exclude, k), refLeastLoaded(o.ref, m, exclude, k))
	cands := o.rng.Perm(n)[:o.rng.Intn(n+1)]
	sort.Ints(cands)
	o.same(fmt.Sprintf("LeastLoadedAmong(k=%d, exclude=%d, %v)", k, exclude, cands),
		LeastLoadedAmong(o.v, m, exclude, k, cands), refLeastLoadedAmong(o.ref, m, exclude, k, cands))
}

// checkPlan compares PlanDecisionOn, on the complete graph and on a
// ring, with the selection the reference yields.
func (o *viewOracle) checkPlan(topo *Topology) {
	o.t.Helper()
	n := len(o.ref)
	master, slaves := o.rng.Intn(n), 1+o.rng.Intn(3)
	want := refLeastLoaded(o.ref, Workload, master, slaves)
	if !topo.IsFull() {
		want = refLeastLoadedAmong(o.ref, Workload, master, slaves, topo.Neighbors(master))
	}
	d := PlanDecisionOn(topo, o.v, master, slaves, 90)
	if !reflect.DeepEqual(d.View, o.ref) {
		o.t.Fatalf("n=%d: the decision's recorded view differs from the reference", n)
	}
	got := []int{}
	for _, a := range d.Assignments {
		got = append(got, int(a.Proc))
		if a.Delta[Workload] != 90/float64(len(want)) {
			o.t.Fatalf("n=%d: share %v of 90 over %d slaves", n, a.Delta[Workload], len(want))
		}
	}
	o.same(fmt.Sprintf("PlanDecisionOn(%s, master=%d, slaves=%d)", topo.Name(), master, slaves), got, want)
}

// TestViewMatchesDenseReference drives the paged view and a dense
// []Load through the same random Set/AddTo/re-seed stream and compares
// every read path after every step — at sizes on both sides of a page
// boundary, with and without a base, under ties.
func TestViewMatchesDenseReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000} {
		for _, withBase := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			rank := rng.Intn(n)
			exch := NewNaive(n, rank, Config{})
			o := &viewOracle{t: t, rng: rng, exch: exch, v: exch.View(), rank: rank, ref: make([]Load, n)}
			own := o.load()
			exch.Init(nil, own)
			o.ref[rank] = own
			if withBase {
				o.seed(o.loads(n))
			}
			var ring *Topology
			if n >= 3 {
				ring = mustTopo(t, "ring", n)
			}
			steps := 400
			if n == 1000 {
				steps = 150
			}
			for step := 0; step < steps; step++ {
				p := rng.Intn(n)
				switch op := rng.Intn(20); {
				case op == 0:
					o.seed(o.loads(n)) // a full seed is adopted as the new base
				case op == 1:
					o.seed(o.loads(rng.Intn(n))) // a short one is set entry by entry
				case op < 8:
					l := o.load()
					o.v.Set(p, l)
					o.ref[p] = l
				case op < 10:
					o.v.Set(p, o.ref[p]) // restating an entry changes nothing
				default:
					d := Load{Workload: float64(rng.Intn(5) - 2), Memory: float64(rng.Intn(3) - 1)}
					o.v.AddTo(p, d)
					o.ref[p] = o.ref[p].Add(d)
				}
				o.check()
				if step%8 == 0 {
					o.checkPlan(nil)
					if ring != nil {
						o.checkPlan(ring)
					}
				}
			}
			for i, b := range o.bases {
				if !reflect.DeepEqual(b[0], b[1]) {
					t.Fatalf("n=%d: seed %d was written through", n, i)
				}
			}
		}
	}
}

// TestViewsShareBaseWithoutAliasing pins the copy-on-write contract: a
// write through one view changes neither the shared seed nor another
// view over it, and a ViewOf view never writes to its slice.
func TestViewsShareBaseWithoutAliasing(t *testing.T) {
	const n = 130
	initial := make([]Load, n)
	for p := range initial {
		initial[p] = Load{Workload: float64(p)}
	}
	pristine := slices.Clone(initial)
	a, b := NewIncrements(n, 0, Config{}), NewIncrements(n, 1, Config{})
	for r, x := range []Exchanger{a, b} {
		x.Init(nil, initial[r])
		SeedView(x, r, initial)
	}
	// Seeding copied nothing, and neither does restating the seed.
	b.View().Set(99, initial[99])
	b.View().AddTo(5, Load{})
	if got := written(a.View()) + written(b.View()); got != 0 {
		t.Fatalf("%d pages materialized before any entry changed", got)
	}
	a.View().Set(70, Load{Workload: -1})
	a.View().AddTo(129, Load{Memory: 5})
	a.View().Set(0, Load{Workload: 42}) // the owner's entry too
	if got := written(a.View()); got != 3 {
		t.Fatalf("three writes to three pages materialized %d", got)
	}
	if !reflect.DeepEqual(initial, pristine) {
		t.Fatal("a write through a seeded view reached the shared seed")
	}
	if !reflect.DeepEqual(b.View().Snapshot(), pristine) {
		t.Fatal("a write through one view shows in another view over the same seed")
	}
	if a.View().Metric(70, Workload) != -1 || a.View().Metric(129, Memory) != 5 || a.View().Metric(0, Workload) != 42 {
		t.Fatal("the writing view lost its own writes")
	}

	v := ViewOf(initial)
	v.Set(3, Load{Workload: 99})
	v.AddTo(64, Load{Workload: 1})
	if !reflect.DeepEqual(initial, pristine) {
		t.Fatal("a ViewOf view wrote to its slice")
	}
	if v.Metric(3, Workload) != 99 || v.Metric(64, Workload) != 65 || v.Metric(65, Workload) != 65 {
		t.Fatalf("ViewOf view reads %v %v %v after its writes", v.Load(3), v.Load(64), v.Load(65))
	}
}

// written counts the pages a view has materialized.
func written(v *View) int {
	n := 0
	for _, pg := range v.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestSeedViewPartialSeed pins what SeedView does with a seed that is
// not one load per process — the service's mesh passes none: the
// entries given are set, the owner's and every other entry are left
// alone, and the slice is not retained.
func TestSeedViewPartialSeed(t *testing.T) {
	const n, rank = 70, 2
	x := NewSnapshot(n, rank, Config{})
	x.Init(nil, Load{Workload: 7})
	x.View().Set(69, Load{Memory: 3})
	want := x.View().Snapshot()

	SeedView(x, rank, nil)
	if !reflect.DeepEqual(x.View().Snapshot(), want) {
		t.Fatal("a nil seed changed the view")
	}
	short := []Load{{Workload: 1}, {Workload: 2}, {Workload: 3}, {Workload: 4}}
	SeedView(x, rank, short)
	want[0], want[1], want[3] = short[0], short[1], short[3]
	if !reflect.DeepEqual(x.View().Snapshot(), want) {
		t.Fatalf("short seed: view = %v...", x.View().Snapshot()[:5])
	}
	short[0] = Load{Workload: -5}
	if x.View().Metric(0, Workload) != 1 {
		t.Fatal("a short seed was retained as the view's base")
	}
}

// BenchmarkViewSet times one Set at n = 1024: on an untouched view
// every write lands in a page nobody wrote yet and pays its
// copy-on-write (a fresh view every 16 writes, one per page); on a
// materialized view it is an in-place store plus the minimum cache.
func BenchmarkViewSet(b *testing.B) {
	const n = 1024
	base := benchLoads(n)
	b.Run("untouched", func(b *testing.B) {
		b.ReportAllocs()
		const pages = n / viewPageSize
		var v *View
		for i := 0; i < b.N; i++ {
			if i%pages == 0 {
				v = ViewOf(base)
			}
			v.Set(i%pages<<viewPageShift+i%viewPageSize, Load{Workload: -1})
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		v := materialized(base)
		for i := 0; i < b.N; i++ {
			v.Set(i*7%n, Load{Workload: float64(i % 64)})
		}
	})
}

// BenchmarkViewScan times the two full passes a decision makes over a
// 1024-rank view — the k = 3 selection and the recorded Snapshot — when
// they walk base segments (untouched) and pages (materialized).
func BenchmarkViewScan(b *testing.B) {
	const n = 1024
	base := benchLoads(n)
	for _, c := range []struct {
		name string
		v    *View
	}{{"untouched", ViewOf(base)}, {"materialized", materialized(base)}} {
		b.Run("k=3/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if sel := LeastLoaded(c.v, Workload, 0, 3); len(sel) != 3 {
					b.Fatalf("selected %d, want 3", len(sel))
				}
			}
		})
		b.Run("snapshot/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if snap := c.v.Snapshot(); len(snap) != n {
					b.Fatalf("snapshot of %d", len(snap))
				}
			}
		})
	}
}

// benchLoads returns n distinct pseudo-random workloads.
func benchLoads(n int) []Load {
	loads := make([]Load, n)
	rng := rand.New(rand.NewSource(1))
	for p := range loads {
		loads[p] = Load{Workload: rng.Float64() * 1000}
	}
	return loads
}

// materialized returns a view holding loads in pages of its own.
func materialized(loads []Load) *View {
	v := NewView(len(loads))
	for p, l := range loads {
		v.Set(p, l)
	}
	return v
}
