package solver_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mapping"
	xnet "repro/internal/net"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/tree"
)

// buildMapping analyzes a small grid problem and maps it.
func buildMapping(t testing.TB, nx, ny, nz, nprocs int) *mapping.Mapping {
	t.Helper()
	p, _ := sparse.Grid3D(nx, ny, nz, 1, sparse.Star, sparse.Sym)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Build(a)
	m, err := mapping.Map(tr, mapping.DefaultConfig(nprocs))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// onSim returns a fresh default simulator host — the reference runtime
// for the paper's measurements.
func onSim() *sim.AppRunner { return &sim.AppRunner{} }

func runMech(t testing.TB, m *mapping.Mapping, mech core.Mech, strat *sched.Strategy) *solver.Result {
	t.Helper()
	res, err := solver.Run(m, solver.DefaultParams(mech, strat), onSim())
	if err != nil {
		t.Fatalf("%s: %v", mech, err)
	}
	return res
}

func TestRunCompletesAllMechanisms(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		m := buildMapping(t, 8, 8, 8, 8)
		res := runMech(t, m, mech, sched.Workload())
		if res.Time <= 0 {
			t.Fatalf("%s: no simulated time elapsed", mech)
		}
		if res.Decisions != m.NumType2 {
			t.Fatalf("%s: %d decisions, want %d (one per Type 2 node)", mech, res.Decisions, m.NumType2)
		}
		if res.MaxPeakMem <= 0 {
			t.Fatalf("%s: no memory tracked", mech)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		m1 := buildMapping(t, 7, 7, 7, 6)
		m2 := buildMapping(t, 7, 7, 7, 6)
		r1 := runMech(t, m1, mech, sched.Workload())
		r2 := runMech(t, m2, mech, sched.Workload())
		if r1.Time != r2.Time || r1.StateMsgs != r2.StateMsgs || r1.MaxPeakMem != r2.MaxPeakMem {
			t.Fatalf("%s: nondeterministic run: %+v vs %+v", mech, r1, r2)
		}
	}
}

func TestSnapshotUsesFewerMessages(t *testing.T) {
	// Table 6 shape: the snapshot algorithm exchanges far fewer state
	// messages than the increments mechanism.
	mi := buildMapping(t, 9, 9, 9, 12)
	ms := buildMapping(t, 9, 9, 9, 12)
	ri := runMech(t, mi, core.MechIncrements, sched.Workload())
	rs := runMech(t, ms, core.MechSnapshot, sched.Workload())
	if rs.StateMsgs >= ri.StateMsgs {
		t.Fatalf("snapshot msgs %d >= increments msgs %d", rs.StateMsgs, ri.StateMsgs)
	}
	if rs.SnapshotCount == 0 || rs.SnapshotTime <= 0 {
		t.Fatalf("snapshot stats empty: %+v", rs)
	}
}

func TestSnapshotSlowerThanIncrements(t *testing.T) {
	// Table 5 shape: snapshot synchronization costs time.
	mi := buildMapping(t, 9, 9, 9, 12)
	ms := buildMapping(t, 9, 9, 9, 12)
	ri := runMech(t, mi, core.MechIncrements, sched.Workload())
	rs := runMech(t, ms, core.MechSnapshot, sched.Workload())
	if rs.Time <= ri.Time {
		t.Fatalf("snapshot time %v <= increments time %v, expected slower", rs.Time, ri.Time)
	}
}

func TestThreadedReducesSnapshotCost(t *testing.T) {
	// Table 7 shape: the threaded model cuts the snapshot penalty.
	m1 := buildMapping(t, 9, 9, 9, 12)
	m2 := buildMapping(t, 9, 9, 9, 12)
	prm := solver.DefaultParams(core.MechSnapshot, sched.Workload())
	// The default PollPeriod is calibrated for experiment-scale runs;
	// this small test uses the paper's nominal 50 µs.
	prm.PollPeriod = 50e-6
	single, err := solver.Run(m1, prm, onSim())
	if err != nil {
		t.Fatal(err)
	}
	prm.Threaded = true
	threaded, err := solver.Run(m2, prm, onSim())
	if err != nil {
		t.Fatal(err)
	}
	if threaded.Time >= single.Time {
		t.Fatalf("threaded %v >= single %v, expected speedup", threaded.Time, single.Time)
	}
	if threaded.SnapshotTime >= single.SnapshotTime {
		t.Fatalf("threaded snapshot time %v >= single %v", threaded.SnapshotTime, single.SnapshotTime)
	}
	// The TCP runtime has no helper thread: it refuses the option rather
	// than run the single-threaded model under a threaded label.
	_, err = solver.Run(buildMapping(t, 9, 9, 9, 12), prm, &xnet.AppRunner{})
	if err == nil || !strings.Contains(err.Error(), "Threaded") {
		t.Fatalf("threaded run on net: error %v, want one naming Threaded", err)
	}
}

func TestMemoryStrategyRuns(t *testing.T) {
	for _, mech := range core.Mechanisms() {
		m := buildMapping(t, 8, 8, 8, 8)
		res := runMech(t, m, mech, sched.Memory())
		if res.MaxPeakMem <= 0 {
			t.Fatalf("%s/memory: no peak recorded", mech)
		}
	}
}

func TestWorkloadConservation(t *testing.T) {
	// After the run every process's own workload estimate returns to ~0:
	// all accounted work was executed. (Memory conservation is asserted
	// inside Run.)
	m := buildMapping(t, 7, 7, 7, 6)
	prm := solver.DefaultParams(core.MechIncrements, sched.Workload())
	res, err := solver.Run(m, prm, onSim())
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestSingleProcessRun(t *testing.T) {
	m := buildMapping(t, 6, 6, 6, 1)
	res := runMech(t, m, core.MechIncrements, sched.Workload())
	if res.Decisions != 0 {
		t.Fatal("single process cannot take dynamic decisions")
	}
	if res.DataMsgs != 0 {
		t.Fatalf("single process sent %d data messages", res.DataMsgs)
	}
}

func TestNoMoreMasterReducesMessages(t *testing.T) {
	// §2.3: pruning Update recipients should cut the increments message
	// count substantially (the paper observed ≈2x on MUMPS).
	mOn := buildMapping(t, 9, 9, 9, 16)
	mOff := buildMapping(t, 9, 9, 9, 16)
	prmOn := solver.DefaultParams(core.MechIncrements, sched.Workload())
	prmOff := solver.DefaultParams(core.MechIncrements, sched.Workload())
	prmOff.MechConfig.NoMoreMasterOpt = false
	on, err := solver.Run(mOn, prmOn, onSim())
	if err != nil {
		t.Fatal(err)
	}
	off, err := solver.Run(mOff, prmOff, onSim())
	if err != nil {
		t.Fatal(err)
	}
	if on.StateMsgs >= off.StateMsgs {
		t.Fatalf("No_more_master did not reduce messages: %d vs %d", on.StateMsgs, off.StateMsgs)
	}
}

func TestNaiveMemoryWorseOrEqual(t *testing.T) {
	// Table 4 tendency: with the memory-based strategy the naive
	// mechanism's stale views give a (usually strictly) worse peak than
	// increments/snapshot. Tested as >= to tolerate benign cases on a
	// small problem, with the aggregate strict check in the experiments.
	mn := buildMapping(t, 10, 10, 10, 16)
	mi := buildMapping(t, 10, 10, 10, 16)
	rn := runMech(t, mn, core.MechNaive, sched.Memory())
	ri := runMech(t, mi, core.MechIncrements, sched.Memory())
	if rn.MaxPeakMem < ri.MaxPeakMem*0.95 {
		t.Fatalf("naive peak %v clearly better than increments %v — reservation mechanism broken?",
			rn.MaxPeakMem, ri.MaxPeakMem)
	}
}

func TestResultMessageBreakdown(t *testing.T) {
	m := buildMapping(t, 8, 8, 8, 8)
	res := runMech(t, m, core.MechSnapshot, sched.Workload())
	if res.PerKind[core.KindStartSnp].Msgs == 0 || res.PerKind[core.KindSnp].Msgs == 0 || res.PerKind[core.KindEndSnp].Msgs == 0 {
		t.Fatalf("snapshot kinds missing: %v", res.PerKind)
	}
	if res.PerKind[core.KindUpdate].Msgs != 0 {
		t.Fatalf("snapshot run should send no updates: %v", res.PerKind)
	}
	m2 := buildMapping(t, 8, 8, 8, 8)
	res2 := runMech(t, m2, core.MechIncrements, sched.Workload())
	if res2.PerKind[core.KindUpdate].Msgs == 0 || res2.PerKind[core.KindMasterToAll].Msgs == 0 {
		t.Fatalf("increments kinds missing: %v", res2.PerKind)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	m := buildMapping(t, 5, 5, 5, 4)
	if _, err := solver.Run(m, solver.Params{}, onSim()); err == nil {
		t.Fatal("nil strategy accepted")
	}
}

func TestPeakMemoryScalesDown(t *testing.T) {
	// More processes → per-process peak never grows (a single Type 1
	// front can dominate the peak at any count; it must not get worse).
	m4 := buildMapping(t, 10, 10, 10, 4)
	m32 := buildMapping(t, 10, 10, 10, 32)
	r4 := runMech(t, m4, core.MechIncrements, sched.Memory())
	r32 := runMech(t, m32, core.MechIncrements, sched.Memory())
	if r32.MaxPeakMem > r4.MaxPeakMem {
		t.Fatalf("peak at 32p (%v) > peak at 4p (%v)", r32.MaxPeakMem, r4.MaxPeakMem)
	}
}

func TestTimeScalesWithProblemSize(t *testing.T) {
	small := buildMapping(t, 6, 6, 6, 8)
	big := buildMapping(t, 10, 10, 10, 8)
	rs := runMech(t, small, core.MechIncrements, sched.Workload())
	rb := runMech(t, big, core.MechIncrements, sched.Workload())
	if rb.Time <= rs.Time {
		t.Fatalf("bigger problem not slower: %v vs %v", rb.Time, rs.Time)
	}
	if math.IsNaN(rb.Time) || math.IsInf(rb.Time, 0) {
		t.Fatal("non-finite time")
	}
}

func TestPartialSnapshotsReduceMessages(t *testing.T) {
	// §5 extension: scoping snapshots to the candidate slaves must cut
	// the snapshot message volume while the run still completes.
	mFull := buildMapping(t, 10, 10, 10, 24)
	mPart := buildMapping(t, 10, 10, 10, 24)
	full, err := solver.Run(mFull, solver.DefaultParams(core.MechSnapshot, sched.Workload()), onSim())
	if err != nil {
		t.Fatal(err)
	}
	prm := solver.DefaultParams(core.MechSnapshot, sched.Workload())
	prm.PartialSnapshots = true
	part, err := solver.Run(mPart, prm, onSim())
	if err != nil {
		t.Fatal(err)
	}
	if part.StateMsgs >= full.StateMsgs {
		t.Fatalf("partial snapshots did not reduce messages: %d vs %d", part.StateMsgs, full.StateMsgs)
	}
	if part.Decisions != full.Decisions {
		t.Fatalf("decision counts differ: %d vs %d", part.Decisions, full.Decisions)
	}
}

func TestPartialSnapshotsSelectWithinCandidates(t *testing.T) {
	m := buildMapping(t, 9, 9, 9, 16)
	prm := solver.DefaultParams(core.MechSnapshot, sched.Memory())
	prm.PartialSnapshots = true
	if _, err := solver.Run(m, prm, onSim()); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedComputeMatchesUnchunkedWork(t *testing.T) {
	// Panel chunking changes interleaving but not completion: all nodes
	// finish and total simulated time stays in the same ballpark.
	m1 := buildMapping(t, 8, 8, 8, 8)
	m2 := buildMapping(t, 8, 8, 8, 8)
	prmBig := solver.DefaultParams(core.MechIncrements, sched.Workload())
	prmBig.MaxChunkSeconds = 1e12 // effectively unchunked
	big, err := solver.Run(m1, prmBig, onSim())
	if err != nil {
		t.Fatal(err)
	}
	prmSmall := solver.DefaultParams(core.MechIncrements, sched.Workload())
	prmSmall.MaxChunkSeconds = 0.05
	small, err := solver.Run(m2, prmSmall, onSim())
	if err != nil {
		t.Fatal(err)
	}
	if small.Time > big.Time*1.5 || big.Time > small.Time*1.5 {
		t.Fatalf("chunking distorted the makespan: %v vs %v", small.Time, big.Time)
	}
}

func TestHighLatencyNetworkRuns(t *testing.T) {
	for _, mech := range []core.Mech{core.MechIncrements, core.MechSnapshot} {
		m := buildMapping(t, 7, 7, 7, 8)
		prm := solver.DefaultParams(mech, sched.Workload())
		res, err := solver.Run(m, prm, &sim.AppRunner{Network: sim.HighLatencyNetwork()})
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if res.Time <= 0 {
			t.Fatalf("%s: empty run", mech)
		}
	}
}

func TestThresholdScaleChangesTraffic(t *testing.T) {
	m1 := buildMapping(t, 8, 8, 8, 8)
	m2 := buildMapping(t, 8, 8, 8, 8)
	lo := solver.DefaultParams(core.MechIncrements, sched.Workload())
	lo.ThresholdScale = 0.1
	hi := solver.DefaultParams(core.MechIncrements, sched.Workload())
	hi.ThresholdScale = 10
	rl, err := solver.Run(m1, lo, onSim())
	if err != nil {
		t.Fatal(err)
	}
	rh, err := solver.Run(m2, hi, onSim())
	if err != nil {
		t.Fatal(err)
	}
	if rl.StateMsgs <= rh.StateMsgs {
		t.Fatalf("threshold scaling had no effect: %d vs %d", rl.StateMsgs, rh.StateMsgs)
	}
}

func TestMemoryAwareTaskSelectionEffect(t *testing.T) {
	// Disabling the §4.2.1 task-selection constraint must not break the
	// run; with it enabled the peak should not be (much) worse.
	mOn := buildMapping(t, 10, 10, 10, 8)
	mOff := buildMapping(t, 10, 10, 10, 8)
	stratOn := sched.Memory()
	stratOff := sched.Memory()
	stratOff.TaskGamma = 0 // constraint disabled
	on, err := solver.Run(mOn, solver.DefaultParams(core.MechIncrements, stratOn), onSim())
	if err != nil {
		t.Fatal(err)
	}
	off, err := solver.Run(mOff, solver.DefaultParams(core.MechIncrements, stratOff), onSim())
	if err != nil {
		t.Fatal(err)
	}
	if on.MaxPeakMem > off.MaxPeakMem*1.3 {
		t.Fatalf("task selection made the peak much worse: %v vs %v", on.MaxPeakMem, off.MaxPeakMem)
	}
}

// TestType3RootOnSim runs the solver on the simulator with its root
// forced to Type 3 (Type3MinFront 32, as mapping's
// TestType3RootOnLargeProblem forces it): the 2D static root, whose
// shares every rank computes, must conserve the factor flops, and every
// rank's time must split as TestPerRankTimeIdentity requires — compute
// plus blocked plus idle is the makespan, compute is the executed flops
// at the solver's rate, and executed flops are static plus slave work.
func TestType3RootOnSim(t *testing.T) {
	const procs = 8
	p, _ := sparse.Grid3D(12, 12, 12, 1, sparse.Star, sparse.Sym)
	a, err := symbolic.Analyze(p, symbolic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Build(a)
	cfg := mapping.DefaultConfig(procs)
	cfg.Type3MinFront = 32
	m, err := mapping.Map(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type3 := 0
	var factor float64
	for i := range tr.Nodes {
		factor += tr.Nodes[i].Cost
		if tr.Nodes[i].Type == tree.Type3 {
			type3++
		}
	}
	if type3 != 1 {
		t.Fatalf("%d Type 3 nodes, want the root alone", type3)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for _, mech := range core.Mechanisms() {
		prm := solver.DefaultParams(mech, sched.Workload())
		res, err := solver.Run(m, prm, onSim())
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if got := res.TotalExecutedFlops(); !near(got, factor) {
			t.Errorf("%s: executed %g flops, the factorization costs %g", mech, got, factor)
		}
		for r := range procs {
			cell := fmt.Sprintf("%s rank %d", mech, r)
			if sum := res.Compute[r] + res.Blocked[r] + res.Idle[r]; !near(sum, res.Time) {
				t.Errorf("%s: compute %g + blocked %g + idle %g = %g s, makespan %g s", cell, res.Compute[r], res.Blocked[r], res.Idle[r], sum, res.Time)
			}
			if want := res.ExecutedFlops[r] / prm.FlopsPerSecond; !near(res.Compute[r], want) {
				t.Errorf("%s: compute %g s, executed flops at the solver's rate %g s", cell, res.Compute[r], want)
			}
			if sum := res.StaticFlops[r] + res.SlaveFlops[r]; !near(sum, res.ExecutedFlops[r]) {
				t.Errorf("%s: static %g + dynamic %g = %g flops, executed %g", cell, res.StaticFlops[r], res.SlaveFlops[r], sum, res.ExecutedFlops[r])
			}
		}
	}
}
