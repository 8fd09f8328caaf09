package net

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	_ "repro/internal/solver" // registers the solver-wl scenario
	"repro/internal/workload"
)

// TestChaosDelayFIFORegression pins a real hang: an in-process host
// once delivered delayed messages through independent timers, which let
// jittered messages overtake each other on a link. The snapshot
// mechanism's rounds assume FIFO channels, so roughly one run in three
// wedged until the two-minute timeout. The TCP fault writer stalls each
// link's frames in send order; this test replays the failing
// configuration (solver-wl × snapshot × delay × 8 ranks) a few times
// with a short timeout — a reintroduced reorder shows up as a timeout
// error here, not as a flaky two-minute CI stall.
func TestChaosDelayFIFORegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run solver cell over TCP")
	}
	plan, err := chaos.Get("delay")
	if err != nil {
		t.Fatal(err)
	}
	as := solverScenario(t)
	for i := 0; i < 3; i++ {
		runner := &AppRunner{Opts: Options{Chaos: plan}, Timeout: 30 * time.Second}
		rep, err := workload.Run(runner, as, core.MechSnapshot, core.Config{}, workload.Params{Procs: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if rep.TotalExecuted() == 0 {
			t.Fatalf("run %d executed nothing", i)
		}
	}
}

// The cluster workflows again with every link stalled 0–2 ms per frame
// in send order: the same assertions under message interleavings that
// an unfaulted localhost mesh does not produce.

func delayOptions(t *testing.T) Options {
	t.Helper()
	plan, err := chaos.Get("delay")
	if err != nil {
		t.Fatal(err)
	}
	return Options{Chaos: plan}
}

func TestClusterBasicWorkflowUnderDelay(t *testing.T) {
	checkBasicWorkflow(t, delayOptions(t))
}

func TestClusterConcurrentDecisionsUnderDelay(t *testing.T) {
	checkConcurrentDecisions(t, delayOptions(t))
}

func TestClusterViewsConvergeUnderDelay(t *testing.T) {
	for _, mech := range []core.Mech{core.MechNaive, core.MechIncrements} {
		t.Run(string(mech), func(t *testing.T) { checkViewsConverge(t, mech, delayOptions(t)) })
	}
}
