package workload

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
)

// Driver runs any workload on one runtime with one mechanism. Each
// runtime package (internal/sim, internal/live, internal/net)
// implements it once; `loadex run` and the scenario-matrix equivalence
// suite then cover every scenario × mechanism × runtime cell through
// this single seam.
type Driver interface {
	// Runtime names the runtime ("sim", "live", "net").
	Runtime() string
	// Run executes w under mech and returns the observed report.
	Run(w Workload, mech core.Mech, cfg core.Config, p Params) (*Report, error)
}

// DecisionRecord is one observed dynamic decision plus the conservation
// window samples: cluster-wide work-item counts at acquire time and at
// view-ready time. Assigned leads the master's Commit, credited trails
// the slave's handling of its master_to_slave, and executed trails the
// slave's load decrement, so for a constant per-item share the load
// total a snapshot cut reports is bounded by
//
//	TotalInitial + (CreditedAtAcquire-ExecutedAtReady)·share
//	  ≤ Σ view ≤
//	TotalInitial + (AssignedAtReady-ExecutedAtAcquire)·share
//
// The lower bound counts credits, not assignments: a master_to_slave
// and another master's start_snp reach the slave over different links,
// which order nothing between them, so a snapshot opened after a
// decision was counted as assigned may still be answered before that
// decision's credit lands — and rightly reports the load without it.
// Only a credit the slave already applied is certain to be in every
// reply it sends afterwards.
type DecisionRecord struct {
	core.Decision
	CreditedAtAcquire, ExecutedAtAcquire int64
	AssignedAtReady, ExecutedAtReady     int64
}

// Report is everything one runtime observed while executing a workload.
type Report struct {
	Scenario string
	Runtime  string
	Mech     core.Mech
	Procs    int
	// DecisionsTaken counts committed decisions. It equals len(Records)
	// except for multi-process deployments, which count without
	// recording views.
	DecisionsTaken int
	// Records holds one entry per decision, in completion order.
	Records []DecisionRecord
	// Executed is the per-rank count of completed work items.
	Executed []int64
	// Stats is the per-rank mechanism counters, sampled after drain and
	// before the final view acquisitions.
	Stats []core.Stats
	// Counters is the cluster-wide measurement accumulator (messages,
	// bytes per kind, decision latency, busy time, snapshot rounds),
	// sampled at the same point as Stats so the final view acquisitions
	// do not pollute the workload's numbers. The sim and live runtimes
	// charge the core.Bytes* constants; the net runtime counts real
	// encoded frame sizes.
	Counters core.Counters
	// FinalViews is one coherent post-quiescence view per rank: the
	// rank's own finished view where the run still holds it, a ViewOf
	// wrapper where the driver acquired a copy. Snapshot() densifies one.
	FinalViews []*core.View
	// AppResult is the application-specific result of an application
	// scenario (e.g. *solver.Result); nil for program scenarios.
	AppResult any `json:"-"`
	// WireMsgs/WireBytes are inbound transport totals (net runtime only).
	WireMsgs, WireBytes int64
	// SimEvents is the engine's fired-event count (sim runtime only):
	// with Elapsed it yields the simulator's events/second throughput.
	SimEvents uint64
	// DetectLatency is the gap between the last work completion and the
	// termination detector's broadcast, in application seconds (virtual
	// on sim, wall clock on live/net); zero when unobserved.
	DetectLatency float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// TotalExecuted sums the per-rank executed counts.
func (r *Report) TotalExecuted() int64 {
	var total int64
	for _, v := range r.Executed {
		total += v
	}
	return total
}

// TotalStats sums the per-rank mechanism counters.
func (r *Report) TotalStats() core.Stats {
	var total core.Stats
	for _, st := range r.Stats {
		total.UpdatesSent += st.UpdatesSent
		total.ReservationsSent += st.ReservationsSent
		total.SnapshotsInitiated += st.SnapshotsInitiated
		total.SnapshotRestarts += st.SnapshotRestarts
		total.SnapshotTime += st.SnapshotTime
		if st.MaxConcurrentSnapshots > total.MaxConcurrentSnapshots {
			total.MaxConcurrentSnapshots = st.MaxConcurrentSnapshots
		}
	}
	return total
}

// Cluster is the runtime surface DriveCluster needs. live.Cluster and
// net.Cluster both satisfy it; per-rank operations run on the rank's
// own goroutine and return once applied.
type Cluster interface {
	DecideObserved(master int, totalWork float64, slaves int, spin time.Duration) (core.Decision, error)
	LocalChange(r int, delta core.Load)
	NoMoreMaster(r int)
	AssignedItems() int64
	CreditedItems() int64
	ExecutedItems() int64
	Executed(r int) int64
	View(r int) []core.Load
	AcquireView(r int) ([]core.Load, error)
	Stats(r int) core.Stats
	Counters(r int) core.Counters
	Drain(timeout time.Duration) error
}

// DriveOptions tunes DriveCluster.
type DriveOptions struct {
	// Spin is the nominal per-item execution time (the cluster scales it
	// by the executing rank's speed factor).
	Spin time.Duration
	// DrainTimeout bounds the post-program quiescence wait (default 60s).
	DrainTimeout time.Duration
	// Settle bounds how long the maintained mechanisms may take to
	// converge their views onto the expected finals before the report is
	// read; the poll exits early on convergence. Zero means the 2s
	// default; negative skips the wait entirely.
	Settle time.Duration
}

// DriveCluster executes a compiled program set on a concurrent cluster
// runtime: one walker goroutine per non-empty rank program, decisions
// recorded with their conservation window samples, then drain, stats
// collection and one final coherent view per rank (an acquired snapshot
// for the snapshot mechanism; the settled maintained view otherwise).
func DriveCluster(cl Cluster, mech core.Mech, progs []Program, opts DriveOptions) (*Report, error) {
	n := len(progs)
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 60 * time.Second
	}
	if opts.Settle == 0 {
		opts.Settle = 2 * time.Second
	}
	rep := &Report{Mech: mech, Procs: n}
	start := time.Now()

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	errs := make([]error, n)
	for r := range progs {
		if len(progs[r].Steps) == 0 {
			continue
		}
		wg.Add(1)
		go func(r int, steps []Step) {
			defer wg.Done()
			for _, st := range steps {
				switch st.Op {
				case OpDecide:
					rec := DecisionRecord{
						CreditedAtAcquire: cl.CreditedItems(),
						ExecutedAtAcquire: cl.ExecutedItems(),
					}
					dec, err := cl.DecideObserved(r, st.Work, st.Slaves, opts.Spin)
					if err != nil {
						errs[r] = err
						return
					}
					rec.Decision = dec
					rec.AssignedAtReady = cl.AssignedItems()
					rec.ExecutedAtReady = cl.ExecutedItems()
					mu.Lock()
					rep.Records = append(rep.Records, rec)
					mu.Unlock()
				case OpLocalChange:
					cl.LocalChange(r, st.Delta)
				case OpNoMoreMaster:
					cl.NoMoreMaster(r)
				}
			}
		}(r, progs[r].Steps)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := cl.Drain(opts.DrainTimeout); err != nil {
		return nil, err
	}
	rep.DecisionsTaken = len(rep.Records)
	for r := 0; r < n; r++ {
		rep.Executed = append(rep.Executed, cl.Executed(r))
		rep.Stats = append(rep.Stats, cl.Stats(r))
		rep.Counters.Merge(cl.Counters(r))
	}
	if mech == core.MechSnapshot {
		// Snapshot views are only refreshed inside a snapshot: acquire
		// one per rank.
		for r := 0; r < n; r++ {
			view, err := cl.AcquireView(r)
			if err != nil {
				return nil, err
			}
			rep.FinalViews = append(rep.FinalViews, core.ViewOf(view))
		}
	} else {
		// Maintained views converge once the trailing updates land; poll
		// toward the expected finals, then read whatever settled.
		want := ExpectedFinals(progs)
		deadline := time.Now().Add(opts.Settle)
		for !viewsSettled(cl, want) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for r := 0; r < n; r++ {
			rep.FinalViews = append(rep.FinalViews, core.ViewOf(cl.View(r)))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// viewsSettled reports whether every rank's view matches the expected
// final loads.
func viewsSettled(cl Cluster, want []core.Load) bool {
	const eps = 1e-9
	for r := range want {
		view := cl.View(r)
		for p, l := range view {
			for m := range l {
				if math.Abs(l[m]-want[p][m]) > eps {
					return false
				}
			}
		}
	}
	return true
}

// NodeRunner is one rank of a multi-process deployment: the subset of a
// node's operations a rank program needs. net.Node implements it.
type NodeRunner interface {
	Decide(totalWork float64, slaves int, spin time.Duration) (core.Decision, error)
	LocalChange(delta core.Load)
	NoMoreMaster()
}

// RunRank walks one rank's program on a multi-process node and returns
// the number of decisions taken. Quiescence (drain, Done announcements)
// stays with the caller — it is a deployment concern, not a workload
// one.
func RunRank(nr NodeRunner, prog Program, spin time.Duration) (int, error) {
	decisions := 0
	for _, st := range prog.Steps {
		switch st.Op {
		case OpDecide:
			if _, err := nr.Decide(st.Work, st.Slaves, spin); err != nil {
				return decisions, err
			}
			decisions++
		case OpLocalChange:
			nr.LocalChange(st.Delta)
		case OpNoMoreMaster:
			nr.NoMoreMaster()
		}
	}
	return decisions, nil
}
