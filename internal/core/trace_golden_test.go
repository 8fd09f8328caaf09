package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// traceGolden pins, per mechanism × topology × No_more_master setting,
// the SHA-256 of everything traceScript observes: every delivered
// (from, to, kind, payload) in delivery order, then each rank's final
// view and Stats. The aggregate goldens (tables, per-kind counts) would
// miss a reordered send or a moved view write; this does not.
var traceGolden = map[string]string{
	"increments/full/nmm=true":  "2548e38b915527473a516a7f1241936d5a38ebba6ed00f1339c7143cb7ed5aaa",
	"increments/full/nmm=false": "8906990fbbb645b12676e85ec22d556591963c7a5b55601b8995c194557deef4",
	"increments/ring/nmm=true":  "3757591780665c978c6ea934aa25fa988762a7a702a2a29d1da0fb7fc9033422",
	"increments/ring/nmm=false": "007f31bb5549bbe2dbd7607341a9d24ea4b9bcf618cf4fdbf7edec52bd08aa8d",
	"snapshot/full/nmm=true":    "2f8a09f074397304f6c61703bbff903be27f2b4359e6481e4ac34bc96fdb113a",
	"snapshot/full/nmm=false":   "2f8a09f074397304f6c61703bbff903be27f2b4359e6481e4ac34bc96fdb113a",
	"snapshot/ring/nmm=true":    "fed9fd2dfe59412877d714b2865720e2fd7fc150b5b180f09c61d83e499a505a",
	"snapshot/ring/nmm=false":   "fed9fd2dfe59412877d714b2865720e2fd7fc150b5b180f09c61d83e499a505a",
	"naive/full/nmm=true":       "caad8873d63c84354baf24db11119980cd1ca0475d87be30146dbd3346422b7d",
	"naive/full/nmm=false":      "7d77f7f72915bd2209ee27f552f73d4b2caa74510e4f6b257b2534e2c8f5e189",
	"naive/ring/nmm=true":       "5a8893b2f3a1b392c50724eac22ab53ccba5930971aeb176a184fb1246a55e3b",
	"naive/ring/nmm=false":      "8e2bdb61f91442ac99843340c42fa4dce4ebc9c99331ae194bd090af73219ffd",
}

func TestMechanismTraceGolden(t *testing.T) {
	for _, mech := range Mechanisms() {
		for _, topoName := range []string{TopoFull, "ring"} {
			for _, nmm := range []bool{true, false} {
				key := fmt.Sprintf("%s/%s/nmm=%t", mech, topoName, nmm)
				got := traceScript(t, mech, mustTopo(t, topoName, 6), nmm)
				if want := traceGolden[key]; got != want {
					t.Errorf("%s: trace hash %s, want %s", key, got, want)
				}
			}
		}
	}
}

// traceScript drives one fixed script over the fake fabric and returns
// the hex digest of its trace.
func traceScript(t *testing.T, mech Mech, topo *Topology, nmm bool) string {
	t.Helper()
	const n = 6
	net := newFakeNet(n)
	cfg := Config{Threshold: Load{Workload: 3, Memory: 2}, NoMoreMasterOpt: nmm, Topo: topo}
	initial := make([]Load, n)
	for r := range initial {
		initial[r] = Load{Workload: float64(10 * r), Memory: float64(r)}
	}
	for r := 0; r < n; r++ {
		x, err := New(mech, n, r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.exs[r] = x
		x.Init(net.ctx(r), initial[r])
		SeedView(x, r, initial)
	}
	h := sha256.New()
	step := func() bool {
		if len(net.queue) == 0 {
			return false
		}
		m := net.queue[0]
		fmt.Fprintf(h, "%d>%d %s %T%+v\n", m.from, m.to, KindName(m.kind), m.payload, m.payload)
		return net.step()
	}
	drain := func() {
		for steps := 0; step(); steps++ {
			if steps > 100000 {
				t.Fatalf("%s: message storm", mech)
			}
		}
	}
	change := func(r int, d Load, asSlave bool) {
		net.exs[r].LocalChange(net.ctx(r), d, asSlave)
	}

	// Local changes as master, both signs, one under the threshold.
	for r := 0; r < n; r++ {
		change(r, Load{Workload: float64(5 * (r + 1)), Memory: 1}, false)
	}
	change(2, Load{Workload: -7}, false)
	change(4, Load{Workload: 1}, false)
	drain()
	// Local changes as slave: a positive one (reserved by increments
	// and snapshot, so skipped there) and a negative one.
	change(1, Load{Workload: 4}, true)
	change(3, Load{Workload: -6, Memory: -3}, true)
	drain()

	// Two masters decide at once; master 0 assigns to itself too.
	plans := map[int][]Assignment{
		0: {{Proc: 0, Delta: Load{Workload: 3}}, {Proc: 1, Delta: Load{Workload: 6, Memory: 2}}},
		3: {{Proc: 2, Delta: Load{Workload: 4}}, {Proc: 4, Delta: Load{Memory: 5}}},
	}
	ready := map[int]bool{}
	committed := map[int]bool{}
	net.exs[0].Acquire(net.ctx(0), func() { ready[0] = true })
	step()
	step()
	net.exs[3].Acquire(net.ctx(3), func() { ready[3] = true })
	for steps := 0; len(committed) < len(plans); steps++ {
		if steps > 100000 {
			t.Fatalf("%s: decisions never completed", mech)
		}
		for _, m := range []int{0, 3} {
			if ready[m] && !committed[m] {
				committed[m] = true
				net.exs[m].Commit(net.ctx(m), plans[m])
			}
		}
		if len(committed) < len(plans) && !step() {
			t.Fatalf("%s: fabric idle with a decision pending", mech)
		}
	}
	drain()
	// The slaves receive their work (positive, as slave) and run it
	// down (negative, as slave).
	for _, m := range []int{0, 3} {
		for _, a := range plans[m] {
			change(int(a.Proc), a.Delta, true)
		}
	}
	drain()
	for _, m := range []int{0, 3} {
		for _, a := range plans[m] {
			change(int(a.Proc), Load{}.Sub(a.Delta), true)
		}
	}
	drain()

	// Two ranks retire as masters; later changes may skip them.
	net.exs[5].NoMoreMaster(net.ctx(5))
	net.exs[2].NoMoreMaster(net.ctx(2))
	drain()
	change(0, Load{Workload: 20}, false)
	change(4, Load{Workload: -9, Memory: -4}, false)
	change(1, Load{Workload: 2}, false)
	drain()

	for r, x := range net.exs {
		fmt.Fprintf(h, "rank %d view %v stats %+v\n", r, x.View().Snapshot(), x.Stats())
	}
	return hex.EncodeToString(h.Sum(nil))
}
