package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func viewWith(loads ...float64) *core.View {
	v := core.NewView(len(loads))
	for p, l := range loads {
		v.Set(p, core.Load{core.Workload: l, core.Memory: l})
	}
	return v
}

func TestSelectCoversAllRows(t *testing.T) {
	s := Workload()
	v := viewWith(0, 10, 20, 30)
	shares := s.SelectSlaves(v, 0, 500, 100, false)
	if err := ValidateShares(shares, 500, 100, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSelectPrefersLeastLoaded(t *testing.T) {
	s := Workload()
	s.MinRows = 1
	v := viewWith(0, 1e12, 0, 1e12) // procs 1 and 3 are overloaded
	shares := s.SelectSlaves(v, 0, 200, 100, false)
	if err := ValidateShares(shares, 200, 100, 0); err != nil {
		t.Fatal(err)
	}
	got := map[int32]int32{}
	for _, sh := range shares {
		got[sh.Proc] = sh.Rows
	}
	if got[2] != 100 {
		t.Fatalf("rows to idle proc 2 = %d, want all 100 (others overloaded): %v", got[2], shares)
	}
}

func TestSelectBalancesUnequalLoads(t *testing.T) {
	// Proc 1 has a head start of load; water-filling must give it fewer
	// rows than idle proc 2.
	s := Workload()
	s.MinRows = 1
	rc := s.rowCost(400, 200, false)
	v := viewWith(0, rc*120, 0)
	shares := s.SelectSlaves(v, 0, 400, 200, false)
	if err := ValidateShares(shares, 400, 200, 0); err != nil {
		t.Fatal(err)
	}
	rows := map[int32]int32{}
	for _, sh := range shares {
		rows[sh.Proc] = sh.Rows
	}
	// Ideal: proc2 gets (200+120)/2 = 160, proc1 gets 40.
	if !(rows[2] > rows[1]) {
		t.Fatalf("balance wrong: %v", shares)
	}
	if rows[1] < 30 || rows[1] > 50 {
		t.Fatalf("proc1 rows = %d, want ≈40", rows[1])
	}
}

func TestSelectRespectsMaxRows(t *testing.T) {
	s := Workload()
	s.MaxRows = 50
	s.MinRows = 1
	v := viewWith(0, 0, 0, 0, 0)
	shares := s.SelectSlaves(v, 0, 300, 100, false)
	if err := ValidateShares(shares, 300, 100, 0); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shares {
		if sh.Rows > 50 {
			t.Fatalf("share %v exceeds MaxRows", sh)
		}
	}
	if len(shares) != 4 {
		t.Fatalf("want 4 slaves for 200 rows at 50 max, got %d", len(shares))
	}
}

func TestSelectRespectsMinRows(t *testing.T) {
	s := Workload()
	s.MinRows = 40
	v := viewWith(0, 0, 0, 0, 0, 0, 0, 0, 0)
	shares := s.SelectSlaves(v, 0, 180, 100, false) // 80 rows: at most 2 slaves
	if err := ValidateShares(shares, 180, 100, 0); err != nil {
		t.Fatal(err)
	}
	if len(shares) > 2 {
		t.Fatalf("granularity violated: %d slaves for 80 rows at MinRows 40", len(shares))
	}
	for _, sh := range shares {
		if sh.Rows < 40 {
			t.Fatalf("share %v below MinRows", sh)
		}
	}
}

func TestSelectMaxSlavesCap(t *testing.T) {
	s := Workload()
	s.MinRows = 1
	s.MaxSlaves = 3
	v := viewWith(0, 0, 0, 0, 0, 0, 0, 0)
	shares := s.SelectSlaves(v, 0, 1000, 200, false)
	if err := ValidateShares(shares, 1000, 200, 0); err != nil {
		t.Fatal(err)
	}
	if len(shares) > 3 {
		t.Fatalf("MaxSlaves violated: %d", len(shares))
	}
}

func TestSelectNeverPicksMaster(t *testing.T) {
	f := func(seed uint64, nRaw, nfRaw uint8) bool {
		n := int(nRaw)%10 + 2
		nf := int32(nfRaw)%400 + 60
		np := nf / 3
		loads := make([]float64, n)
		x := seed
		for i := range loads {
			x = x*6364136223846793005 + 1
			loads[i] = float64(x % 1000)
		}
		v := viewWith(loads...)
		master := int(seed % uint64(n))
		s := Workload()
		shares := s.SelectSlaves(v, master, nf, np, false)
		return ValidateShares(shares, nf, np, master) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectDeterministic(t *testing.T) {
	v := viewWith(5, 5, 5, 5) // all ties: must break by rank
	s := Workload()
	a := s.SelectSlaves(v, 0, 300, 100, false)
	b := s.SelectSlaves(v, 0, 300, 100, false)
	if len(a) != len(b) {
		t.Fatal("nondeterministic share count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic selection")
		}
	}
}

func TestMemoryStrategyUsesMemoryMetric(t *testing.T) {
	s := Memory()
	s.MinRows = 1
	v := core.NewView(3)
	// Proc 1: high memory, low workload. Proc 2: low memory, high work.
	v.Set(1, core.Load{core.Workload: 0, core.Memory: 1e12})
	v.Set(2, core.Load{core.Workload: 1e12, core.Memory: 0})
	shares := s.SelectSlaves(v, 0, 200, 100, true)
	if err := ValidateShares(shares, 200, 100, 0); err != nil {
		t.Fatal(err)
	}
	rows := map[int32]int32{}
	for _, sh := range shares {
		rows[sh.Proc] = sh.Rows
	}
	if rows[2] != 100 {
		t.Fatalf("memory strategy must pick the memory-idle proc 2: %v", shares)
	}
}

func TestCanActivateMemoryConstraint(t *testing.T) {
	s := Memory()
	v := core.NewView(4)
	for p := 0; p < 4; p++ {
		v.Set(p, core.Load{core.Memory: 1000})
	}
	// Small front: fine.
	if !s.CanActivate(v, 0, 100) {
		t.Fatal("small activation refused")
	}
	// Huge front on an already-average proc: postponed.
	if s.CanActivate(v, 0, 1e7) {
		t.Fatal("huge activation accepted despite memory balance")
	}
	// Workload strategy has no such constraint.
	if !Workload().CanActivate(v, 0, 1e12) {
		t.Fatal("workload strategy must not constrain activation")
	}
	// Empty system (mean 0) must not deadlock.
	if !s.CanActivate(core.NewView(4), 0, 1e7) {
		t.Fatal("activation refused on an idle system")
	}
}

func TestValidateSharesErrors(t *testing.T) {
	if ValidateShares([]Share{{Proc: 0, Rows: 10}}, 110, 100, 0) == nil {
		t.Fatal("master-as-slave accepted")
	}
	if ValidateShares([]Share{{Proc: 1, Rows: 5}, {Proc: 1, Rows: 5}}, 110, 100, 0) == nil {
		t.Fatal("duplicate slave accepted")
	}
	if ValidateShares([]Share{{Proc: 1, Rows: 3}}, 110, 100, 0) == nil {
		t.Fatal("row shortfall accepted")
	}
	if ValidateShares([]Share{{Proc: 1, Rows: 0}}, 100, 100, 0) == nil {
		t.Fatal("empty share accepted")
	}
}

// TestValidateSharesAllocatesNothing: checking a selection as wide as a
// 64-rank cell's allocates nothing.
func TestValidateSharesAllocatesNothing(t *testing.T) {
	shares := make([]Share, 63)
	for i := range shares {
		shares[i] = Share{Proc: int32(i + 1), Rows: 16}
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() { err = ValidateShares(shares, 100+63*16, 100, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("ValidateShares: %v allocs/op, want 0", allocs)
	}
}

func TestSelectZeroSchur(t *testing.T) {
	s := Workload()
	if shares := s.SelectSlaves(viewWith(0, 0), 0, 100, 100, false); shares != nil {
		t.Fatal("full-pivot front needs no slaves")
	}
}

func TestStrategyNames(t *testing.T) {
	if Workload().Name() != "workload" || Memory().Name() != "memory" {
		t.Fatal("strategy names wrong")
	}
}
