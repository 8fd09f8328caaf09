package solver_test

// The chaos × validator suite: every mechanism/term-protocol cell of
// the real solver workload, recorded and replayed through the offline
// validator. Clean runs must validate clean; delivery faults that only
// stretch or reorder time (delay, reorder, slow) must preserve the
// cross-rank invariants; a crash fault must surface as a detected
// failure — either the run itself errors or the trace fails
// validation — never as a silently absorbed clean run.

import (
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

const chaosProcs = 6

// runTraced runs solver-wl once on the simulator under the given
// mechanism, termination protocol and chaos plan, recording the run
// into a fresh trace directory, and returns the offline validation
// report alongside the run error.
func runTraced(t *testing.T, mech core.Mech, term string, plan *chaos.Plan) (*chaos.Report, error) {
	t.Helper()
	dir := t.TempDir()
	rec, err := chaos.OpenRecorder(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatalf("OpenRecorder: %v", err)
	}
	planName := ""
	if plan != nil {
		planName = plan.Name
	}
	rec.Record(chaos.Event{Ev: chaos.EvMeta, N: chaosProcs, Scenario: "solver-wl",
		Mech: string(mech), Term: term, Plan: planName})
	w, err := workload.Get("solver-wl")
	if err != nil {
		t.Fatalf("Get(solver-wl): %v", err)
	}
	runner := &sim.AppRunner{Network: sim.NetworkConfig{Chaos: plan}}
	_, runErr := workload.Run(runner, w, mech, core.Config{}, workload.Params{
		Procs: chaosProcs, Term: term, Record: rec,
	})
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder Close: %v", err)
	}
	events, err := chaos.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	return chaos.Validate(events), runErr
}

func TestChaosCleanRunsValidate(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		for _, term := range []string{"ds", "safra"} {
			mech, term := mech, term
			t.Run(string(mech)+"/"+term, func(t *testing.T) {
				rep, err := runTraced(t, mech, term, nil)
				if err != nil {
					t.Fatalf("clean run failed: %v", err)
				}
				if !rep.OK() {
					t.Fatalf("clean run flagged: %v", rep.Violations)
				}
				if rep.Finals != chaosProcs {
					t.Fatalf("got %d finals, want %d", rep.Finals, chaosProcs)
				}
				if rep.Sends == 0 || rep.Starts == 0 {
					t.Fatalf("trace missing traffic: %d sends, %d starts", rep.Sends, rep.Starts)
				}
			})
		}
	}
}

// TestChaosTimingFaultsPreserveInvariants: faults that stretch, jitter
// or reorder delivery lose nothing, so the runs must still quiesce with
// fully conserved traces. FIFO-preserving plans (delay, slow) pair with
// the snapshot mechanism — the strictest consumer of channel order —
// while the reorder plan pairs with the order-tolerant mechanisms (the
// snapshot protocol's rounds assume FIFO channels, so reordering may
// legitimately wedge it; see TestChaosReorderBreaksSnapshotDetected).
func TestChaosTimingFaultsPreserveInvariants(t *testing.T) {
	cases := []struct {
		plan string
		mech core.Mech
	}{
		{"delay", core.MechSnapshot},
		{"slow", core.MechSnapshot},
		{"reorder", core.MechNaive},
		{"reorder", core.MechIncrements},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.plan+"/"+string(tc.mech), func(t *testing.T) {
			plan, err := chaos.Get(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			rep, runErr := runTraced(t, tc.mech, "ds", plan)
			if runErr != nil {
				t.Fatalf("run under %s plan failed: %v", tc.plan, runErr)
			}
			if !rep.OK() {
				t.Fatalf("%s plan violated invariants: %v", tc.plan, rep.Violations)
			}
		})
	}
}

// TestChaosReorderBreaksSnapshotDetected documents (and pins) the FIFO
// assumption: the snapshot mechanism's rounds rely on per-link order,
// so the reorder plan may wedge them — and when it does, the harness
// must report the deadlock, never a false termination. Either outcome
// (clean conserved run, or a detected deadlock) is correct; a clean
// termination with a violated trace is the one forbidden result.
func TestChaosReorderBreaksSnapshotDetected(t *testing.T) {
	plan, err := chaos.Get("reorder")
	if err != nil {
		t.Fatal(err)
	}
	rep, runErr := runTraced(t, core.MechSnapshot, "ds", plan)
	if runErr == nil && !rep.OK() {
		t.Fatalf("run terminated cleanly over a violated trace: %v", rep.Violations)
	}
}

// TestChaosCrashDetected: a crashed rank must never be absorbed into a
// clean result. On the simulator a mid-run crash starves the
// termination detector (messages to and from the dead rank vanish), so
// the run errors out — and the partial trace independently fails
// validation with missing finals.
func TestChaosCrashDetected(t *testing.T) {
	// Registry crash plans fire at wall-scale times; the solver's
	// virtual makespan is milliseconds, so the test pins a virtual-time
	// literal that lands mid-run.
	plan := &chaos.Plan{Name: "crash-early", Seed: 1, SlowRank: -1, CrashRank: 1, CrashAfter: 0.002}
	rep, runErr := runTraced(t, core.MechNaive, "ds", plan)
	if runErr == nil {
		t.Fatalf("crash plan ran to clean completion: fault silently absorbed")
	}
	if rep.OK() {
		t.Fatalf("crash run trace passed validation")
	}
	if !hasViolation(rep, "quiescence") {
		t.Fatalf("want a quiescence violation for the crashed rank, got %v", rep.Violations)
	}
}

// TestChaosLossNoFalseTermination: dropping mechanism state messages
// must never fool the termination detector into firing early. The
// naive mechanism tolerates loss outright (updates are absolute, the
// next one repairs the view) and must still validate clean; the
// snapshot mechanism deadlocks without its lost round messages, and
// the run must report that deadlock rather than a bogus termination.
func TestChaosLossNoFalseTermination(t *testing.T) {
	plan, err := chaos.Get("loss")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("naive-tolerates", func(t *testing.T) {
		rep, runErr := runTraced(t, core.MechNaive, "ds", plan)
		if runErr != nil {
			t.Fatalf("naive under loss failed: %v", runErr)
		}
		if !rep.OK() {
			t.Fatalf("naive under loss violated invariants: %v", rep.Violations)
		}
	})
	t.Run("snapshot-deadlock-detected", func(t *testing.T) {
		rep, runErr := runTraced(t, core.MechSnapshot, "ds", plan)
		if runErr == nil && rep.OK() {
			// Loss draws are probabilistic per site but the plan seed is
			// fixed, so with 5% of state messages dropped the snapshot
			// rounds reliably wedge; a clean pass would mean the faults
			// never actually applied.
			t.Fatalf("snapshot under loss completed cleanly: loss plan not applied")
		}
	})
}

// TestSimRecordsEveryStateMessage: the simulator records one EvState
// per state message a mechanism sends, before a chaos plan may drop
// it, as the TCP runtime does, so the validator's state tally is what
// the network carried plus what it lost.
func TestSimRecordsEveryStateMessage(t *testing.T) {
	const procs = 16
	plan, err := chaos.Get("loss")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec, err := chaos.OpenRecorder(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get("solver-wl")
	if err != nil {
		t.Fatal(err)
	}
	app, opts, err := w.NewApp(core.MechIncrements, core.Config{}, workload.Params{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	app, opts.Rec = workload.Recorded(app, rec), rec
	hr, runErr := (&sim.AppRunner{Network: sim.NetworkConfig{Chaos: plan}}).RunApp(procs, app, opts)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if hr == nil {
		t.Fatalf("run returned no report: %v", runErr)
	}
	events, err := chaos.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := chaos.Validate(events)
	if hr.StateDropped == 0 {
		t.Fatal("the loss plan dropped no state message")
	}
	if want := hr.Counters.StateMsgs + hr.StateDropped; int64(rep.States) != want {
		t.Fatalf("trace holds %d state records, want %d sent + %d dropped = %d",
			rep.States, hr.Counters.StateMsgs, hr.StateDropped, want)
	}
	t.Logf("%d state records: %d carried, %d dropped (run error: %v)", rep.States, hr.Counters.StateMsgs, hr.StateDropped, runErr)
}

func hasViolation(r *chaos.Report, check string) bool {
	for _, v := range r.Violations {
		if v.Check == check {
			return true
		}
	}
	return false
}
