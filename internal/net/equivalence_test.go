package net

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// The cross-runtime equivalence suite lives in internal/workload
// (TestScenarioMatrixEquivalence): every registered scenario runs under
// every mechanism on sim and this package's TCP runtime through
// the shared workload.Driver seam, asserting selection coherence,
// snapshot load conservation and count equivalence. This file keeps the
// net-specific heavier confidence pass.

// TestCrossRuntimeEquivalenceScale is a heavier selection-coherence
// pass over the in-process TCP runtime only; skipped in -short mode.
func TestCrossRuntimeEquivalenceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy TCP workload")
	}
	for _, mech := range core.Mechanisms() {
		cl, err := NewCluster(8, mech, core.Config{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 4)
		for master := 0; master < 4; master++ {
			go func(m int) {
				for i := 0; i < 5; i++ {
					dec, err := cl.DecideObserved(m, 120, 4, 100*time.Microsecond)
					if err == nil {
						sel := core.LeastLoaded(core.ViewOf(dec.View), core.Workload, m, 4)
						for j, a := range dec.Assignments {
							if int(a.Proc) != sel[j] {
								err = fmt.Errorf("mech %s master %d: selection %v diverges from view", mech, m, dec.Assignments)
								break
							}
						}
					}
					if err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}(master)
		}
		for i := 0; i < 4; i++ {
			if err := <-errCh; err != nil {
				t.Error(err)
			}
		}
		if err := cl.Drain(20 * time.Second); err != nil {
			t.Error(err)
		}
		cl.Stop()
	}
}
