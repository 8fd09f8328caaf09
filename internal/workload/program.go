package workload

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
)

// NewApp implements Workload: the compiled programs walked by one
// programApp, with the programs' speed factors as the host options.
func (s scenario) NewApp(mech core.Mech, cfg core.Config, p Params) (App, AppRunOptions, error) {
	progs, err := s.Programs(p)
	if err != nil {
		return nil, AppRunOptions{}, err
	}
	n := len(progs)
	_, speed := Setup(progs)
	app := &programApp{
		mech: mech, cfg: cfg, progs: progs,
		spin: p.Spin.Seconds(), rec: p.Record,
		exs: make([]core.Exchanger, n), ctxs: make([]core.Context, n),
		pc: make([]int, n), inflight: make([]bool, n), executed: make([]int64, n),
	}
	return app, AppRunOptions{Speed: speed}, nil
}

// programApp runs a program scenario as an App. TryStart walks the
// rank's program one step at a time; a decision acquires a view, plans
// on it, commits and ships one work item per selected slave as a data
// message, which the slave executes as one Compute of the nominal spin
// with its load raised meanwhile. The run ends when the termination
// detector sees every rank passive with nothing in flight.
type programApp struct {
	mech  core.Mech
	cfg   core.Config
	progs []Program
	spin  float64 // nominal seconds per work item
	rec   *chaos.Recorder

	host AppHost
	exs  []core.Exchanger // nil for ranks this host does not run
	ctxs []core.Context

	pc       []int  // per-rank program counter
	inflight []bool // rank awaits a decision's view
	executed []int64

	// Cluster-wide work-item counts sampled into each DecisionRecord
	// (meaningful when one host runs every rank): assigned leads Commit,
	// credited trails the slave's master_to_slave, done trails the load
	// decrement.
	assigned, credited, done int64

	decisions int
	records   []DecisionRecord
	counters  core.Counters // decision counts + acquire-to-ready latency
}

// Attach implements App: one mechanism per local rank, every view
// seeded with every rank's initial load.
func (a *programApp) Attach(host AppHost) error {
	a.host = host
	initial, _ := Setup(a.progs)
	for r := range a.progs {
		if !host.Local(r) {
			continue
		}
		exch, err := core.New(a.mech, len(a.progs), r, a.cfg)
		if err != nil {
			return err
		}
		a.exs[r], a.ctxs[r] = exch, host.Context(r)
		exch.Init(a.ctxs[r], initial[r])
		core.SeedView(exch, r, initial)
	}
	return nil
}

// HandleState implements App.
func (a *programApp) HandleState(rank, from, kind int, payload any) {
	a.exs[rank].HandleMessage(a.ctxs[rank], from, kind, payload)
	if kind == core.KindMasterToSlave {
		a.credited++
	}
}

// HandleData implements App: execute one work item.
func (a *programApp) HandleData(rank, from int, m DataMsg) {
	load := core.Load{core.Workload: m.Work, core.Memory: m.Size}
	a.exs[rank].LocalChange(a.ctxs[rank], load, true)
	a.host.Compute(rank, a.spin, func() {
		a.exs[rank].LocalChange(a.ctxs[rank], core.Load{}.Sub(load), true)
		a.executed[rank]++
		a.done++
	})
}

// Blocked implements App: a rank in a snapshot treats no data.
func (a *programApp) Blocked(rank int) bool { return a.exs[rank].Busy() }

// TryStart implements App: advance the rank's program by one step.
func (a *programApp) TryStart(r int) bool {
	steps := a.progs[r].Steps
	if a.inflight[r] || a.pc[r] >= len(steps) {
		return false
	}
	st := steps[a.pc[r]]
	switch st.Op {
	case OpLocalChange:
		a.pc[r]++
		a.exs[r].LocalChange(a.ctxs[r], st.Delta, false)
	case OpNoMoreMaster:
		a.pc[r]++
		a.exs[r].NoMoreMaster(a.ctxs[r])
	case OpDecide:
		a.decide(r, st)
	}
	return true
}

// decide runs one OpDecide step: Acquire → plan → Commit → ship, traced
// as the decision span with its acquire, plan and transfer phases. The
// acquire span ends at exactly begin + latency, the latency the
// counters add, so summed spans reconcile with DecisionLatency.
func (a *programApp) decide(r int, st Step) {
	a.inflight[r] = true
	exch, ctx := a.exs[r], a.ctxs[r]
	rec := DecisionRecord{CreditedAtAcquire: a.credited, ExecutedAtAcquire: a.done}
	begin := a.host.Now()
	sidDec := a.rec.SpanBegin(r, "decision", begin)
	sidAcq := a.rec.SpanBegin(r, "decision.acquire", begin)
	exch.Acquire(ctx, func() {
		lat := a.host.Now() - begin
		a.counters.AddDecision(lat)
		acqEnd := begin + lat
		a.rec.SpanEnd(r, "decision.acquire", sidAcq, acqEnd)
		sidPlan := a.rec.SpanBegin(r, "decision.plan", acqEnd)
		rec.AssignedAtReady, rec.ExecutedAtReady = a.assigned, a.done
		rec.Decision = core.PlanDecision(exch.View(), r, st.Slaves, st.Work)
		RecordDecision(a.rec, r, st.Work, st.Slaves, rec.Decision)
		a.assigned += int64(len(rec.Assignments))
		exch.Commit(ctx, rec.Assignments)
		planEnd := max(a.host.Now(), acqEnd)
		a.rec.SpanEnd(r, "decision.plan", sidPlan, planEnd)
		sidXfer := a.rec.SpanBegin(r, "decision.transfer", planEnd)
		for _, asg := range rec.Assignments {
			a.host.SendData(r, int(asg.Proc), DataMsg{
				Work: asg.Delta[core.Workload], Size: asg.Delta[core.Memory], Bytes: core.BytesWorkItem,
			})
		}
		end := max(a.host.Now(), planEnd)
		a.rec.SpanEnd(r, "decision.transfer", sidXfer, end)
		a.rec.SpanEnd(r, "decision", sidDec, end)
		a.pc[r]++
		a.inflight[r] = false
		a.decisions++
		a.records = append(a.records, rec)
		// A committed decision may enable the next step; an idle rank's
		// loop has nothing pending to wake it.
		a.host.Wake(r)
	})
}

// Done implements App: every local rank walked its whole program.
func (a *programApp) Done() bool { return a.stalled() < 0 }

// stalled returns the first local rank whose program is unfinished, -1
// if none.
func (a *programApp) stalled() int {
	for r, exch := range a.exs {
		if exch != nil && (a.inflight[r] || a.pc[r] < len(a.progs[r].Steps)) {
			return r
		}
	}
	return -1
}

// Outcome implements App. Under forked hosting the per-rank slices hold
// zero values for the ranks other processes ran.
func (a *programApp) Outcome(*AppReport) AppOutcome {
	out := AppOutcome{
		Executed:  a.executed,
		Decisions: a.decisions,
		Records:   a.records,
		Counters:  a.counters,
	}
	local := 0
	for _, exch := range a.exs {
		var st core.Stats
		var view *core.View
		if exch != nil {
			local++
			st, view = exch.Stats(), exch.View()
		}
		out.Stats = append(out.Stats, st)
		out.FinalViews = append(out.FinalViews, view)
	}
	if r := a.stalled(); r >= 0 {
		out.Err = fmt.Errorf("workload: rank %d stalled at step %d/%d", r, a.pc[r], len(a.progs[r].Steps))
	} else if local == len(a.exs) && a.done != a.assigned {
		out.Err = fmt.Errorf("workload: %d work items assigned, %d executed", a.assigned, a.done)
	}
	return out
}
