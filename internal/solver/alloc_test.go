package solver_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/solver"
)

// TestSecondRunReusesTheSimulator pins what a sim cell allocates once a
// previous cell has left its simulator for reuse: the event heap, the
// delivery batches, the message queues and the payload boxes are not
// regrown, and a panel's completion allocates no closure. What remains
// is the application's own state (node table, per-rank views, tree
// progress): 139 KB on this 32-rank cell, against 1.1 MB for every run
// when each regrew its simulator. The bound, 200 KB, leaves room for
// that state to grow without letting a regrown simulator back in. The
// collector is off, so the kept simulator cannot be reclaimed
// mid-measurement.
func TestSecondRunReusesTheSimulator(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := buildMapping(t, 12, 12, 12, 32)
	run := func() {
		if _, err := solver.Run(m, solver.DefaultParams(core.MechIncrements, sched.Workload()), onSim()); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	run()
	runtime.ReadMemStats(&m2)
	first, second := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	t.Logf("first run %d bytes, second %d", first, second)
	if bound := uint64(200 << 10); second > bound {
		t.Fatalf("second run allocated %d bytes, bound %d", second, bound)
	}
}
