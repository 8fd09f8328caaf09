package workload

import (
	"time"

	"repro/internal/core"
)

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
	// for program scenarios hosted in one process; multi-process
	// deployments and the solver count without recording.
	DecisionsTaken int
	// Records holds one entry per decision, in completion order.
	Records []DecisionRecord
	// Executed is the per-rank count of completed work items.
	Executed []int64
	// Stats is the per-rank mechanism counters at quiescence.
	Stats []core.Stats
	// Counters is the cluster-wide measurement accumulator (messages,
	// bytes per kind, decision latency, busy time, snapshot rounds,
	// detector control frames). The sim runtime charges the core.Bytes*
	// constants; the net runtime counts real encoded frame sizes.
	Counters core.Counters
	// FinalViews is each rank's finished view at quiescence: the rank's
	// own entry is exact, remote entries are as stale as the mechanism
	// leaves them. Snapshot() densifies one.
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
	// on sim, wall clock on net); zero when unobserved.
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
