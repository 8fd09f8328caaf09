package sim

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// WorkloadDriver implements workload.Driver on the deterministic
// discrete-event simulator: rank programs advance from TryStart, work
// items travel the data channel and execute as simulated compute tasks
// whose duration is the nominal spin scaled by the executing rank's
// speed factor. Runs are fully deterministic for fixed inputs.
type WorkloadDriver struct {
	// Network configures the simulated interconnect.
	Network NetworkConfig
}

// NewWorkloadDriver returns a driver over the default interconnect.
func NewWorkloadDriver() *WorkloadDriver {
	return &WorkloadDriver{Network: DefaultNetwork()}
}

// Runtime implements workload.Driver.
func (d *WorkloadDriver) Runtime() string { return "sim" }

// Run implements workload.Driver.
func (d *WorkloadDriver) Run(w workload.Workload, mech core.Mech, cfg core.Config, p workload.Params) (*workload.Report, error) {
	if as, ok := w.(workload.AppScenario); ok {
		// Application scenarios (the solver) are hosted through the
		// application port instead of compiled to rank programs.
		return workload.RunAppScenario(&AppRunner{Network: d.Network}, as, mech, cfg, p)
	}
	progs, err := w.Programs(p)
	if err != nil {
		return nil, err
	}
	n := len(progs)
	rep := &workload.Report{Scenario: w.Name(), Runtime: d.Runtime(), Mech: mech, Procs: n}
	start := time.Now()

	eng := NewEngine()
	app := &wlApp{
		progs:     progs,
		pc:        make([]int, n),
		inflight:  make([]bool, n),
		executed:  make([]int64, n),
		busySince: make([]float64, n),
		spin:      Duration(p.Spin.Seconds()),
		topo:      cfg.Topo,
		rep:       rep,
		measuring: true,
	}
	for r := range app.busySince {
		app.busySince[r] = -1
	}
	// The network enforces the seam: a state message between
	// non-neighbors panics the simulation instead of silently passing.
	netCfg := d.Network
	netCfg.Topo = cfg.Topo
	app.rt = NewRuntime(eng, n, netCfg, app)
	// One initial slice for the run: every rank's view shares it as its
	// seed, and nothing writes it afterwards.
	initial, _ := workload.Setup(progs)
	for r := 0; r < n; r++ {
		exch, err := core.New(mech, n, r, cfg)
		if err != nil {
			return nil, err
		}
		app.exs = append(app.exs, exch)
		exch.Init(wlCtx{app, r}, initial[r])
		core.SeedView(exch, r, initial)
	}
	app.rt.Start()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	for r := range app.pc {
		if app.pc[r] != len(progs[r].Steps) || app.inflight[r] {
			return nil, fmt.Errorf("sim: rank %d stalled at step %d/%d (engine drained)",
				r, app.pc[r], len(progs[r].Steps))
		}
	}
	rep.DecisionsTaken = len(rep.Records)
	rep.Executed = app.executed
	for r := 0; r < n; r++ {
		rep.Stats = append(rep.Stats, app.exs[r].Stats())
		rep.Counters.SnapshotRounds += core.SnapshotRoundsOf(rep.Stats[r])
	}
	// Freeze the counters before the final view acquisitions: the extra
	// snapshots are harness bookkeeping, not workload traffic.
	app.sampleCounters()
	app.measuring = false
	// Final coherent views: the engine drained, so all work executed and
	// all messages were delivered; a fresh acquisition per rank is exact.
	// The report carries the acquired view itself: an empty commit leaves
	// it as acquired, and another rank's acquisition only ever asks this
	// one for its own load.
	for r := 0; r < n; r++ {
		ctx := wlCtx{app, r}
		got := false
		app.exs[r].Acquire(ctx, func() {
			app.exs[r].Commit(ctx, nil)
			got = true
		})
		if err := eng.Run(); err != nil {
			return nil, err
		}
		if !got {
			return nil, fmt.Errorf("sim: final acquire on rank %d never completed", r)
		}
		rep.FinalViews = append(rep.FinalViews, app.exs[r].View())
	}
	rep.Elapsed = time.Since(start)
	rep.SimEvents = eng.Steps()
	return rep, nil
}

// wlKindWork is the data-channel message kind carrying a work item.
const wlKindWork = 1000

// wlWorkPayload is one work item on the simulated data channel.
type wlWorkPayload struct {
	Load core.Load
	Dur  Duration
}

// wlApp drives rank programs through the Algorithm 1 loop.
type wlApp struct {
	rt       *Runtime
	exs      []core.Exchanger
	progs    []workload.Program
	pc       []int  // per-rank program counter
	inflight []bool // rank awaits a decision's view
	executed []int64
	assigned int64 // work items committed (leads Commit)
	credited int64 // master_to_slave credits applied (trails the handler)
	done     int64 // work items completed (trails the load decrement)
	spin     Duration
	topo     *core.Topology // nil means the complete graph
	rep      *workload.Report

	// busySince[r] is the virtual time rank r became Busy, -1 when it is
	// not; measuring gates all counter accumulation so the final view
	// acquisitions stay out of the workload's numbers.
	busySince []float64
	measuring bool
}

// sampleCounters copies the network's per-kind tallies into the report.
// The simulated network already accounts every message for bandwidth
// modelling, so the sim counters are exact by construction.
func (a *wlApp) sampleCounters() {
	c := &a.rep.Counters
	state := a.rt.Net.Count(StateChannel)
	data := a.rt.Net.Count(DataChannel)
	c.StateMsgs, c.StateBytes = state.Messages, state.Bytes
	c.DataMsgs, c.DataBytes = data.Messages, data.Bytes
	for _, kind := range a.rt.Net.Kinds(StateChannel) {
		t := a.rt.Net.KindTally(StateChannel, kind)
		if c.PerKind == nil {
			c.PerKind = make(map[string]core.KindTally)
		}
		c.PerKind[core.KindName(kind)] = core.KindTally{Msgs: t.Messages, Bytes: t.Bytes}
	}
}

// busyCheck accumulates Busy (snapshot-blocked) time for rank r across
// state transitions, in virtual seconds.
func (a *wlApp) busyCheck(r int) {
	if !a.measuring {
		return
	}
	busy := a.exs[r].Busy()
	if busy && a.busySince[r] < 0 {
		a.busySince[r] = float64(a.rt.Now())
	} else if !busy && a.busySince[r] >= 0 {
		a.rep.Counters.BusyTime += float64(a.rt.Now()) - a.busySince[r]
		a.busySince[r] = -1
	}
}

// wlCtx adapts the runtime to core.Context for one rank.
type wlCtx struct {
	app  *wlApp
	rank int
}

func (c wlCtx) Rank() int    { return c.rank }
func (c wlCtx) N() int       { return len(c.app.exs) }
func (c wlCtx) Now() float64 { return float64(c.app.rt.Now()) }

func (c wlCtx) Send(to int, kind int, payload any, bytes float64) {
	c.app.rt.Send(&Message{
		From: c.rank, To: to, Channel: StateChannel,
		Kind: kind, Payload: payload, Bytes: bytes,
	})
}

func (c wlCtx) Broadcast(kind int, payload any, bytes float64) {
	c.app.rt.Broadcast(c.rank, Message{
		Channel: StateChannel, Kind: kind, Payload: payload, Bytes: bytes,
	})
}

func (a *wlApp) HandleState(p *Proc, m *Message) {
	a.exs[p.ID].HandleMessage(wlCtx{a, p.ID}, m.From, m.Kind, m.Payload)
	if m.Kind == core.KindMasterToSlave {
		a.credited++
	}
	a.busyCheck(p.ID)
}

func (a *wlApp) HandleData(p *Proc, m *Message) {
	w := m.Payload.(wlWorkPayload)
	ctx := wlCtx{a, p.ID}
	a.exs[p.ID].LocalChange(ctx, w.Load, true)
	a.rt.Compute(p, w.Dur, func() {
		neg := w.Load
		for i := range neg {
			neg[i] = -neg[i]
		}
		a.exs[p.ID].LocalChange(ctx, neg, true)
		a.executed[p.ID]++
		a.done++
	})
}

func (a *wlApp) Blocked(p *Proc) bool { return a.exs[p.ID].Busy() }

// TryStart advances rank p's program by one step.
func (a *wlApp) TryStart(p *Proc) bool {
	r := p.ID
	if a.inflight[r] || a.pc[r] >= len(a.progs[r].Steps) {
		return false
	}
	st := a.progs[r].Steps[a.pc[r]]
	ctx := wlCtx{a, r}
	switch st.Op {
	case workload.OpLocalChange:
		a.pc[r]++
		a.exs[r].LocalChange(ctx, st.Delta, false)
		return true
	case workload.OpNoMoreMaster:
		a.pc[r]++
		a.exs[r].NoMoreMaster(ctx)
		return true
	case workload.OpDecide:
		a.inflight[r] = true
		rec := workload.DecisionRecord{CreditedAtAcquire: a.credited, ExecutedAtAcquire: a.done}
		acquireAt := float64(a.rt.Now())
		a.exs[r].Acquire(ctx, func() {
			if a.measuring {
				a.rep.Counters.AddDecision(float64(a.rt.Now()) - acquireAt)
			}
			rec.AssignedAtReady, rec.ExecutedAtReady = a.assigned, a.done
			rec.Decision = core.PlanDecisionOn(a.topo, a.exs[r].View(), r, st.Slaves, st.Work)
			// The cumulative counter leads Commit so any snapshot cut
			// that observed this decision's credits is covered by a
			// later read (the conservation window relies on it).
			a.assigned += int64(len(rec.Assignments))
			a.exs[r].Commit(ctx, rec.Assignments)
			for _, asg := range rec.Assignments {
				dur := a.spin * Duration(a.progs[asg.Proc].SpeedFactor())
				a.rt.Send(&Message{
					From: r, To: int(asg.Proc), Channel: DataChannel,
					Kind: wlKindWork, Payload: wlWorkPayload{Load: asg.Delta, Dur: dur},
					Bytes: core.BytesWorkItem,
				})
			}
			a.pc[r]++
			a.inflight[r] = false
			a.rep.Records = append(a.rep.Records, rec)
			// A committed decision may enable the next step; the engine
			// has no pending event for an idle rank, so request a wakeup.
			a.rt.Wake(r)
		})
		a.busyCheck(r)
		return true
	}
	return false
}
