// Package solver executes a MUMPS-like asynchronous multifrontal
// factorization: the distributed application of the paper's Algorithm 1,
// §4. Each process runs the main loop (state messages first, then data
// messages, then local ready tasks); Type 2 masters take dynamic
// scheduling decisions through a pluggable load-exchange mechanism
// (internal/core) and a slave-selection strategy (internal/sched).
//
// The application is transport-neutral: it implements workload.App and
// targets only the workload.AppHost port, so any runtime's AppRunner
// can host it — the deterministic simulator (sim.AppRunner, the
// reference for the paper's tables) or localhost TCP sockets
// (net.AppRunner). The solver is also
// registered as the `solver-wl` / `solver-mem` workload scenarios (see
// scenario.go), so `loadex run` sweeps it across the scenario ×
// mechanism × runtime matrix like any synthetic program.
//
// The solver performs no numerical work: tasks are compute intervals whose
// durations come from the cost model, and memory is tracked in matrix
// entries — exactly the quantities the paper's tables report.
package solver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/sched"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Data-channel message kinds (disjoint from core's state kinds only by
// channel, but kept numerically distinct for readable traces). Payloads
// travel as workload.DataMsg; the comment on each kind documents its
// field mapping.
const (
	// KindSubtask carries a Type 2 slave's share of a front
	// (Node = tree node, Count = rows).
	KindSubtask = 101 + iota
	// KindCB carries a contribution-block piece to a Type 1 parent's
	// owner (full data), or announces one to a parallel parent's master
	// (notification only: the data stays stacked on the producer until
	// the parent's slaves are chosen). Node = completed child, Count =
	// total pieces the child produces, Size = entries, Peer = producer.
	KindCB
	// KindType3Start starts a process's share of the 2D root
	// (Node = root, Work = flops, Size = entries).
	KindType3Start
	// KindShipReq asks a producer to ship a stacked contribution piece
	// to the consumer chosen by the parent's selection
	// (Size = entries, Peer = consumer).
	KindShipReq
	// KindCBData is the shipped piece; the consumer's storage was
	// already counted with its block, so reception is bandwidth only.
	KindCBData
	// KindSlaveDone notifies a Type 2 node's master that one slave
	// share completed (Node = tree node). With this, slave-done
	// tracking is message-driven instead of shared bookkeeping, so the
	// application runs forked/multi-host.
	KindSlaveDone
	// KindType3Done notifies the 2D root's master that one process's
	// share completed (Node = root).
	KindType3Done
)

// NotifyBytes is the modeled on-wire size of a completion notification
// (KindSlaveDone, KindType3Done): a header plus a node id.
const NotifyBytes = 16

// Params configures one factorization run. Runtime-specific knobs (the
// simulated interconnect model, in particular) live on the AppRunner,
// not here: the same Params run unchanged on every runtime.
type Params struct {
	// Mech selects the load-exchange mechanism.
	Mech core.Mech
	// MechConfig tunes it; a zero Threshold is replaced by a default
	// derived from the tree's task granularity (§2.3's recommendation).
	MechConfig core.Config
	// Exchanger, when set, builds each rank's mechanism in place of
	// core.New(Mech, n, rank, MechConfig): the seam for a baseline that
	// is not one of the paper's mechanisms, such as an exact-view oracle.
	Exchanger func(n, rank int) core.Exchanger
	// Strategy is the dynamic scheduling strategy (workload or memory).
	Strategy *sched.Strategy
	// Threaded enables the §4.5 model, which only the simulator hosts
	// (the wall-clock runtimes refuse it): a helper thread treats state
	// messages every PollPeriod even while a task computes.
	Threaded bool
	// PollPeriod is the helper thread's *effective* responsiveness in
	// seconds of application time. The paper's thread sleeps 50 µs
	// between checks, but its own measurements show each snapshot still
	// costs ~50 ms even threaded (14 s of snapshot operations for 274
	// decisions on CONV3D64/128p): lock contention around MPI calls and
	// OS scheduling dominate the nominal sleep. The default (0.8 s,
	// ≈ an eighth of a compute panel) is calibrated to that observed
	// per-decision cost and to the paper's 7× threaded/single-threaded
	// snapshot-time ratio.
	PollPeriod float64
	// FlopsPerSecond is the per-process effective speed (default 1e9).
	FlopsPerSecond float64
	// ThresholdScale multiplies the broadcast threshold (derived or
	// explicit); used by the §2.3 threshold-sensitivity ablation.
	ThresholdScale float64
	// MaxChunkSeconds bounds one uninterrupted compute interval: dense
	// kernels proceed panel by panel and the process polls its message
	// queues between panels, so a long front never makes a process deaf
	// for its whole duration (default 6 s of application time,
	// calibrated so the snapshot synchronization overhead matches the
	// paper's Table 5 ratios).
	MaxChunkSeconds float64
	// PartialSnapshots enables the §5 extension: a master's demand-driven
	// snapshot consults only its candidate slaves (from the static
	// mapping) instead of every process, and the selection is restricted
	// to those candidates. Only meaningful with MechSnapshot.
	PartialSnapshots bool
	// MaxSteps guards against protocol livelock on hosts that count
	// scheduling steps (default 200M events on the simulator).
	MaxSteps uint64
}

// DefaultParams returns the configuration used by the experiments.
//
// FlopsPerSecond is deliberately below hardware rates: the experiments run
// scaled-down matrices (sparse.Problem.Generate), and slowing the virtual
// processors keeps task durations — and therefore the ratio between
// compute, network latency and the 50 µs poll period — in the same regime
// as the paper's full-size runs.
func DefaultParams(mech core.Mech, strat *sched.Strategy) Params {
	return Params{
		Mech:            mech,
		MechConfig:      core.Config{NoMoreMasterOpt: true},
		Strategy:        strat,
		FlopsPerSecond:  5e7,
		PollPeriod:      0.8,
		MaxChunkSeconds: 6,
	}
}

// runOptions maps the runtime-relevant params onto the port's options.
func (p Params) runOptions() workload.AppRunOptions {
	return workload.AppRunOptions{
		Threaded:   p.Threaded,
		PollPeriod: p.PollPeriod,
		MaxSteps:   p.MaxSteps,
	}
}

// Result aggregates everything the paper's tables report.
type Result struct {
	// Time is the factorization makespan in application seconds
	// (virtual on the simulator, wall clock elsewhere; Table 5/7).
	Time float64
	// PeakMem[p] is the peak active memory of process p in entries;
	// MaxPeakMem is the maximum over processes (Table 4, in entries —
	// divide by 1e6 for the paper's "millions of real entries").
	PeakMem    []float64
	MaxPeakMem float64
	// ExecutedFlops[p] is the floating-point work process p executed.
	// The total is structure-determined (slave flops are linear in the
	// rows split), so it is conserved across runtimes — the
	// cross-runtime equivalence tests pin it.
	ExecutedFlops []float64
	// StaticFlops[p] is the work the static mapping fixed on p; SlaveFlops[p]
	// the slave shares decisions taken here assigned to p. In-process,
	// they sum to ExecutedFlops[p].
	StaticFlops, SlaveFlops []float64
	// Compute, Blocked and Idle split Time per rank (simulator only).
	Compute, Blocked, Idle []float64
	// StateMsgs counts messages of the load-exchange mechanism (Table 6);
	// StateBytes is their volume.
	StateMsgs  int64
	StateBytes float64
	// DataMsgs counts application messages (subtasks, contribution
	// blocks, completion notifications).
	DataMsgs int64
	// CtrlMsgs / CtrlBytes count the termination-detection control
	// frames (internal/termdet) — the quiescence subsystem's overhead,
	// reported per mechanism × protocol by `loadex run -term all`.
	CtrlMsgs  int64
	CtrlBytes float64
	// Decisions is the number of dynamic slave selections (Table 3):
	// structure-determined (one per Type 2 node), so identical across
	// runtimes. Assignments is the total number of slave shares those
	// selections committed; the count per decision is bounded by the
	// front's rows and the granularity limits but can shift by a share
	// or two with view timing on the concurrent runtimes.
	Decisions   int
	Assignments int
	// SnapshotTime is the total time spent performing snapshots, summed
	// over initiators (the §4.5 "100 seconds" quantity).
	SnapshotTime float64
	// SnapshotCount / SnapshotRestarts / MaxConcurrentSnapshots describe
	// snapshot activity.
	SnapshotCount          int64
	SnapshotRestarts       int64
	MaxConcurrentSnapshots int
	// PausedTime is the total compute-pause time (threaded model).
	PausedTime float64
	// Steps is the number of simulation events processed (simulator
	// hosts only).
	Steps uint64
	// PerKind breaks the state traffic down by protocol kind, indexed by
	// the core.Kind* constants.
	PerKind [core.KindMax + 1]core.KindTally
}

// TotalExecutedFlops sums the per-process executed work.
func (r *Result) TotalExecutedFlops() float64 {
	var total float64
	for _, f := range r.ExecutedFlops {
		total += f
	}
	return total
}

// Run executes the factorization described by the mapping under the
// given parameters on the given runtime, and returns the measured
// metrics. The runner decides where the application actually executes:
// sim.AppRunner reproduces the paper's deterministic measurements,
// net.AppRunner runs the same application over real concurrency and
// real sockets.
func Run(m *mapping.Mapping, prm Params, rt workload.AppRunner) (*Result, error) {
	a, err := prepare(m, prm)
	if err != nil {
		return nil, err
	}
	hr, err := rt.RunApp(m.Config.NProcs, a, a.prm.runOptions())
	if err != nil {
		return nil, fmt.Errorf("solver: %w (done %d/%d nodes)", err, a.doneCount, a.expectedDone)
	}
	out := a.Outcome(hr)
	if out.Err != nil {
		return nil, out.Err
	}
	return out.Result.(*Result), nil
}

// NewApp builds the solver as a hostable application: the
// workload.App any runtime's AppRunner accepts, plus the run options
// derived from the parameters. Run wraps it; use NewApp directly when
// driving the host yourself (e.g. to inspect the AppOutcome).
func NewApp(m *mapping.Mapping, prm Params) (workload.App, workload.AppRunOptions, error) {
	a, err := prepare(m, prm)
	if err != nil {
		return nil, workload.AppRunOptions{}, err
	}
	return a, a.prm.runOptions(), nil
}

// prepare validates and normalizes the parameters and builds the
// application. The workload scenarios (scenario.go) use prepare
// directly; everyone else calls Run.
func prepare(m *mapping.Mapping, prm Params) (*app, error) {
	if prm.Strategy == nil {
		return nil, fmt.Errorf("solver: nil strategy")
	}
	if prm.FlopsPerSecond <= 0 {
		prm.FlopsPerSecond = 1e9
	}
	if prm.MaxSteps == 0 {
		prm.MaxSteps = 200_000_000
	}
	if prm.MechConfig.Threshold == (core.Load{}) {
		prm.MechConfig.Threshold = defaultThreshold(m)
	}
	if prm.ThresholdScale > 0 {
		for i := range prm.MechConfig.Threshold {
			prm.MechConfig.Threshold[i] *= prm.ThresholdScale
		}
	}
	return newApp(m, prm), nil
}

// defaultThreshold derives the broadcast threshold from the granularity
// of the tasks appearing in slave selections (§2.3): the mean Type 2
// slave share.
func defaultThreshold(m *mapping.Mapping) core.Load {
	t := m.Tree
	var flops, entries float64
	var cnt int
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Type != tree.Type2 {
			continue
		}
		rows := n.SchurSize()
		flops += tree.SlaveFlops(n.Nfront, n.Npiv, rows, t.Sym)
		entries += tree.SlaveBlockEntries(n.Nfront, n.Npiv, rows, t.Sym)
		cnt++
	}
	if cnt == 0 {
		return core.Load{core.Workload: 1e7, core.Memory: 1e4}
	}
	// Per-decision totals divided by a typical slave count, scaled down
	// so several updates flow per slave task (the paper's guidance is a
	// threshold "of the same order as the granularity of the tasks";
	// the /8 keeps the view fresh within a task, calibrated against the
	// paper's Table 6 increments volumes).
	k := float64(cnt) * 8
	return core.Load{
		core.Workload: flops / k / 8,
		core.Memory:   entries / k / 8,
	}
}
