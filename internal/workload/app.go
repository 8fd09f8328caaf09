package workload

// The application port: the seam between a real distributed application
// (the paper's multifrontal solver, internal/solver) and the runtime
// that hosts it. A workload.App is the application side — the Algorithm
// 1 behaviours of every process, expressed against the small AppHost
// surface — and each runtime package (internal/sim, internal/net)
// provides one AppRunner that hosts any App by driving the one rank
// loop (loop.go): the deterministic simulator steps it from its event
// callbacks, the TCP runtime runs it on one goroutine per rank over
// sockets. Every scenario is an App —
// the paper's solver and the synthetic load programs alike (program.go)
// — so the scenario × mechanism × runtime matrix has one entry point,
// Run.
//
// Execution model. An App is one logical application covering every
// rank of the cluster, but a host may run all of its ranks or just one:
// AppHost.Local tells the application which ranks this host instance
// executes. In-process hosts (the simulator and the net runtime's
// one-mesh-per-run mode) run every rank and SERIALIZE all App
// callbacks (the simulator is single-threaded by construction; the
// TCP runtime holds one application lock around every callback),
// so implementations need no internal synchronization. Forked
// deployments (`loadex run -runtime net`) build one App instance per OS
// process, each hosting a single local rank; every cross-rank effect
// must then travel as an explicit DataMsg — the application may keep NO
// cross-rank shared bookkeeping, which internal/solver satisfies by
// distributing its assembly-tree progress and slave-done tracking
// behind completion-notification messages.
//
// Quiescence is detector-driven: every host runs one
// internal/termdet.Protocol per rank (selected by AppRunOptions.Term)
// over a dedicated control channel, and the run ends when the detector
// announces global termination — there is no host-side outstanding-work
// counting, so the same quiescence decision is taken whether the ranks
// share memory or only sockets.
//
// Callback discipline: a callback for rank r runs on rank r's hosting
// context and may only Send/SendData with from == r, call Compute for
// rank r, and touch rank r's mechanism through Context(r). Wake is the
// one cross-rank call in in-process hosting (it only nudges another
// rank's main loop); in forked hosting Wake may only target local
// ranks.

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// DataMsg is one application data-channel message in flattened,
// transport-encodable form: a kind tag plus a handful of generic fields
// the application maps its payloads onto (the TCP codec carries them
// verbatim, so an App crosses the wire without the transport knowing
// its payload types). Unused fields stay zero.
type DataMsg struct {
	// Kind is the application-defined message kind (disjoint from the
	// core state kinds only by channel).
	Kind int32
	// Node identifies an application object (e.g. an assembly-tree
	// node).
	Node int32
	// Peer is a rank the message refers to (producer, consumer, …).
	Peer int32
	// Count is a small cardinality (rows, pieces, …).
	Count int32
	// Work is a floating-point work amount (flops).
	Work float64
	// Size is a floating-point storage amount (matrix entries).
	Size float64
	// Bytes is the modeled on-wire size of the message the application
	// simulates (e.g. a contribution block's entries × 8), used for
	// bandwidth accounting on hosts without a real wire and charged by
	// the simulated network. The real TCP frame is the flattened struct
	// above — the data travels as metadata, not as payload bytes.
	Bytes float64
}

// AppHost is the runtime surface an App targets: state-channel contexts
// for the mechanisms, a data channel for application messages, deferred
// compute, and main-loop wakeups. Implementations exist in
// internal/sim and internal/net.
type AppHost interface {
	// N returns the number of processes.
	N() int
	// Local reports whether this host instance executes rank's
	// callbacks. In-process hosts run every rank; a forked `loadex
	// node` hosts exactly one. The application must initialize and
	// touch per-rank state only for local ranks.
	Local(rank int) bool
	// Now returns seconds since the start of the run (virtual on the
	// simulator, wall clock elsewhere).
	Now() float64
	// Context returns rank's core.Context: mechanism sends issued
	// through it travel the host's prioritized state channel.
	Context(rank int) core.Context
	// SendData ships one application message on the data channel. It is
	// asynchronous; the message is delivered to HandleData on `to`.
	SendData(from, to int, m DataMsg)
	// Compute defers done by `seconds` of application time on rank: the
	// rank is busy (treating no message) until the host calls done. The
	// host scales the duration by the rank's speed factor; on the
	// wall-clock runtimes one application second is one wall second. At
	// most one compute may be outstanding per rank.
	Compute(rank int, seconds float64, done func())
	// Wake requests a main-loop iteration for rank: the application
	// calls it when an internal state change (not tied to a message)
	// may have made work available there.
	Wake(rank int)
}

// App is a transport-neutral distributed application: the Algorithm 1
// behaviours of every process. Hosts serialize all callbacks (see the
// package comment) and drive each rank's Loop — state messages first,
// then data messages, then TryStart, with data handling and task
// starts gated on Blocked (snapshot participation, §3).
type App interface {
	// Attach hands the application its host. It runs before any rank
	// loop starts; the application initializes its mechanisms here and
	// may already send state messages and request wakeups.
	Attach(host AppHost) error
	// HandleState treats one state-information message for rank
	// (Algorithm 1, line 3), typically by forwarding it to the rank's
	// mechanism.
	HandleState(rank, from, kind int, payload any)
	// HandleData treats one application message for rank (Algorithm 1,
	// line 5).
	HandleData(rank, from int, m DataMsg)
	// TryStart attempts to start one local ready task on rank
	// (Algorithm 1, line 7), typically by calling AppHost.Compute. It
	// returns false if no task can start.
	TryStart(rank int) bool
	// Blocked reports whether rank must not treat data messages or
	// start tasks (it is participating in a snapshot). State messages
	// are still delivered while blocked.
	Blocked(rank int) bool
	// Done reports whether all completions this host instance tracks
	// have been observed (every completion for in-process hosting, the
	// local ranks' share under forked hosting). Hosts no longer poll it
	// for quiescence — the termination detector owns that — but may
	// assert it once the detector fires, and the application verifies
	// it in Outcome.
	Done() bool
	// Outcome returns the application-level results after the run. hr
	// is the host's report, so the application can fold transport
	// metrics into its own result; the application also verifies its
	// post-run invariants here (completion, conservation) and reports
	// violations through AppOutcome.Err.
	Outcome(hr *AppReport) AppOutcome
}

// AppOutcome is what an App itself measured: the application-level
// counterpart of the host's AppReport.
type AppOutcome struct {
	// Executed is the per-rank count of completed work units (tasks).
	Executed []int64
	// Stats is the per-rank mechanism counters.
	Stats []core.Stats
	// FinalViews is each rank's finished view itself, not a copy (no
	// fresh acquisition: the rank's own entry is exact, remote entries
	// are as stale as the mechanism leaves them); nil for ranks another
	// process ran.
	FinalViews []*core.View
	// Decisions counts committed dynamic decisions.
	Decisions int
	// Records holds one entry per decision, in completion order, where
	// the application records them (program scenarios; nil otherwise).
	Records []DecisionRecord
	// Counters carries the application-side measurement share —
	// decision counts and acquire-to-ready latencies; the host merges
	// it with its transport-side tallies.
	Counters core.Counters
	// Result is the application-specific result value (e.g.
	// *solver.Result).
	Result any
	// Err reports a post-run invariant violation (incomplete work,
	// broken conservation): the run must be treated as failed even
	// though the host quiesced.
	Err error
}

// AppRunOptions tunes one hosted run. Hosts ignore the knobs they do
// not support, except Threaded.
type AppRunOptions struct {
	// Threaded enables the §4.5 helper-thread state-message model. Only
	// the simulator has one; the wall-clock hosts refuse the option.
	Threaded bool
	// PollPeriod is the helper thread's period in application seconds
	// (0 = host default).
	PollPeriod float64
	// MaxSteps bounds host scheduling steps as a livelock guard where
	// the host counts steps (the simulator).
	MaxSteps uint64
	// Speed is the per-rank execution-speed factor applied to Compute
	// durations (nil or 0 entries = nominal; 2 = twice as slow).
	Speed []float64
	// Term names the termination-detection protocol every host runs
	// per rank (internal/termdet; empty = termdet.Default).
	Term string
	// Rec, when non-nil, receives host-level span events (termdet.idle,
	// snapshot.round) in the same trace the Recorded wrapper writes
	// application events to. Hosts that do not trace ignore it.
	Rec *chaos.Recorder
}

// SpeedOf returns the rank's speed factor, defaulting to 1.
func (o AppRunOptions) SpeedOf(rank int) float64 {
	if rank < len(o.Speed) && o.Speed[rank] > 0 {
		return o.Speed[rank]
	}
	return 1
}

// AppReport is what a host measured while running an App.
type AppReport struct {
	// Time is the run's end time in application seconds (virtual on the
	// simulator, wall clock elsewhere).
	Time float64
	// Steps counts host scheduling steps (simulator only).
	Steps uint64
	// PausedTime is the total compute-pause time of the threaded model
	// (simulator only).
	PausedTime float64
	// Compute, Blocked and Idle split Time on every rank (simulator
	// only): running a task; Blocked, a paused task included; neither.
	Compute, Blocked, Idle []float64
	// Counters is the transport-side measurement accumulator: state and
	// data messages/bytes (per kind) and snapshot-blocked busy time.
	// The simulator charges the modeled byte sizes;
	// the net runtime counts real encoded frame sizes.
	Counters core.Counters
	// WireMsgs / WireBytes are inbound transport totals (net hosts
	// only).
	WireMsgs, WireBytes int64
	// StateDropped counts the state messages a chaos plan discarded
	// (simulator only); Counters tallies only what was sent on.
	StateDropped int64
	// DetectLatency is the gap between the last compute completion and
	// the detector's termination broadcast, in application seconds
	// (virtual on the simulator, wall clock elsewhere): how long the
	// finished cluster waited for the detector to say so. Zero when the
	// host could not observe both endpoints.
	DetectLatency float64
}

// AppRunner hosts an App to completion on one runtime.
type AppRunner interface {
	// Runtime names the runtime ("sim", "net").
	Runtime() string
	// RunApp executes app on n processes and returns the host-side
	// report. It returns once the application is Done and the transport
	// has quiesced (all data messages delivered).
	RunApp(n int, app App, opts AppRunOptions) (*AppReport, error)
}

// CountersFromApp folds one host report's transport tallies with the
// application-side measurement share (decision counts, acquire
// latencies) plus the snapshot rounds derivable from the mechanism
// stats. ReportFromApp and the forked `loadex node` STATS path share
// it, so in-process and forked runs compose counters identically —
// under fork, out.Stats is zero for ranks other processes ran, so the
// sum is the local share.
func CountersFromApp(hr *AppReport, out AppOutcome) core.Counters {
	c := hr.Counters
	c.Merge(out.Counters)
	for _, st := range out.Stats {
		c.SnapshotRounds += core.SnapshotRoundsOf(st)
	}
	return c
}

// ReportFromApp composes the matrix report of one hosted application
// run from the host's report and the application's outcome, so every
// runtime fills core.Counters identically: transport
// tallies (messages, bytes, busy time) from the host, decisions and
// acquire latencies from the application, snapshot rounds from the
// mechanism stats.
func ReportFromApp(scenario, runtime string, mech core.Mech, n int, hr *AppReport, out AppOutcome) *Report {
	rep := &Report{
		Scenario:       scenario,
		Runtime:        runtime,
		Mech:           mech,
		Procs:          n,
		DecisionsTaken: out.Decisions,
		Records:        out.Records,
		Executed:       out.Executed,
		Stats:          out.Stats,
		FinalViews:     out.FinalViews,
		Counters:       CountersFromApp(hr, out),
		AppResult:      out.Result,
	}
	rep.WireMsgs, rep.WireBytes = hr.WireMsgs, hr.WireBytes
	rep.SimEvents = hr.Steps
	rep.DetectLatency = hr.DetectLatency
	return rep
}

// Run hosts one scenario × mechanism cell on the given runner: build
// the application for the cell's mechanism, run it until the
// termination detector announces quiescence, verify the application's
// own invariants and compose the matrix report. Every runtime goes
// through this one path, so core.Counters is filled identically.
func Run(runner AppRunner, w Workload, mech core.Mech, cfg core.Config, p Params) (*Report, error) {
	app, opts, err := w.NewApp(mech, cfg, p)
	if err != nil {
		return nil, err
	}
	if p.Record != nil {
		app = Recorded(app, p.Record)
		opts.Rec = p.Record
	}
	if p.Term != "" {
		opts.Term = p.Term
	}
	p.Normalize()
	start := time.Now()
	hr, err := runner.RunApp(p.Procs, app, opts)
	if err != nil {
		return nil, err
	}
	out := app.Outcome(hr)
	if out.Err != nil {
		return nil, out.Err
	}
	rep := ReportFromApp(w.Name(), runner.Runtime(), mech, p.Procs, hr, out)
	rep.Elapsed = time.Since(start)
	return rep, nil
}
