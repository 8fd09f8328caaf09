package net

// The resident rank: the load-exchange mechanism that a Cluster's
// callers — and the service's synthetic jobs — share, hosted on each
// node's job-0 port as one App by the same workload.Driver and Loop
// that run every other TCP rank, under one callback lock per node.
// Callers on other goroutines post closures to its state queue
// (decisions, local changes), which the rank treats between two
// messages in Algorithm 1's order: one hop to the rank and back. A
// decision ships its work items as TypeWork frames, each acknowledged by
// a TypeWorkDone frame that the socket readers count, so no
// acknowledgment wakes a rank.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// kindCall is the state kind of a closure posted to a resident rank:
// its payload is the func() to run.
const kindCall = -1

// resident is one node's resident rank: a workload.App of one rank.
type resident struct {
	nd   *Node
	jp   *JobPort
	exch core.Exchanger
	drv  *workload.Driver
	// mu is the rank's callback lock: the driver holds it for each step
	// and each compute completion, and Cluster's reads take it.
	mu       sync.Mutex
	decideMu sync.Mutex   // acquisitions take turns (acquire)
	assigned atomic.Int64 // work items this rank ever assigned

	quit, stopped chan struct{}
	stopOnce      sync.Once
}

// newResident hosts a resident rank running mech on nd's job-0 port,
// its view seeded from nd's Options.Initial. Call it before nd.Start,
// and start the rank once the mesh is up.
func newResident(nd *Node, mech core.Mech, cfg core.Config) (*resident, error) {
	if init := nd.opts.Initial; init != nil && len(init) != nd.n {
		return nil, fmt.Errorf("net: %d initial loads for %d ranks", len(init), nd.n)
	}
	if speed := nd.opts.Speed; speed != nil && len(speed) != nd.n {
		return nil, fmt.Errorf("net: %d speed factors for %d ranks", len(speed), nd.n)
	}
	exch, err := core.New(mech, nd.n, nd.rank, cfg)
	if err != nil {
		return nil, err
	}
	r := &resident{nd: nd, jp: nd.hostRank(), exch: exch, quit: make(chan struct{}), stopped: make(chan struct{})}
	r.jp.busy.Now = nd.now
	var initial core.Load
	if nd.opts.Initial != nil {
		initial = nd.opts.Initial[nd.rank]
	}
	exch.Init(r.jp, initial)
	core.SeedView(exch, nd.rank, nd.opts.Initial)
	r.drv, err = workload.NewDriver(workload.Loop{
		Rank: nd.rank, App: r, Det: silentDetector{}, Ctx: r.jp, Now: nd.now, Busy: &r.jp.busy,
	}, r.jp, &r.mu, workload.AppRunOptions{Speed: nd.opts.Speed})
	return r, err
}

// start launches the rank's driver.
func (r *resident) start() {
	go func() {
		defer close(r.stopped)
		r.drv.Run(r.quit)
	}()
}

// stop stops the driver and waits for it to exit.
func (r *resident) stop() {
	r.stopOnce.Do(func() { close(r.quit) })
	<-r.stopped
}

// invoke runs fn on the rank, between two of its messages, and returns
// once it ran — or at once, without running it, when the rank has
// stopped.
func (r *resident) invoke(fn func()) {
	ran := make(chan struct{})
	r.jp.in.putState(inMsg{from: r.nd.rank, kind: kindCall, payload: func() {
		fn()
		close(ran)
	}})
	select {
	case <-ran:
	case <-r.stopped:
	}
}

// acquire runs begin on the rank, then one view acquisition — a
// snapshot, for the snapshot mechanism — and ready once the view is
// coherent, and returns when ready ran. Acquisitions on one rank take
// turns (a mechanism serves one Acquire per process at once, §3's
// snapshot); a caller waits for the one in progress.
func (r *resident) acquire(begin, ready func()) error {
	r.decideMu.Lock()
	defer r.decideMu.Unlock()
	done := make(chan struct{})
	r.invoke(func() {
		begin()
		r.exch.Acquire(r.jp, func() {
			ready()
			close(done)
		})
	})
	select {
	case <-done:
		return nil
	case <-r.stopped:
		return fmt.Errorf("net: rank %d stopped during acquire", r.nd.rank)
	}
}

// decide performs one dynamic decision: acquire a coherent view, select
// the `slaves` least-loaded peers per that view, commit the reservation
// and, when ship is non-nil, hand it each assignment on the rank. It
// blocks until the decision completed (for the snapshot mechanism,
// until the snapshot finished) and returns the record the equivalence
// tests check with its acquire latency in seconds, which leaves out the
// wait for the rank's previous acquisition.
func (r *resident) decide(totalWork float64, slaves int, ship func(to int, delta core.Load)) (core.Decision, float64, error) {
	nd, rec := r.nd, r.nd.opts.Rec
	dec := core.Decision{Master: nd.rank}
	var beginT, lat float64
	var sidDec, sidAcq int64
	err := r.acquire(func() {
		beginT = nd.now()
		sidDec = rec.SpanBegin(nd.rank, "decision", beginT)
		sidAcq = rec.SpanBegin(nd.rank, "decision.acquire", beginT)
	}, func() {
		// The acquire span closes at exactly beginT+lat: its traced
		// duration IS the latency added to the counter, so summed
		// decision.acquire spans reconcile with decision_latency to float
		// rounding (the `loadex report` acceptance check).
		acqEnd := nd.now()
		lat = acqEnd - beginT
		nd.decisions.Add(1)
		nd.decLatencyBits.Store(floatBits(floatFromBits(nd.decLatencyBits.Load()) + lat))
		rec.SpanEnd(nd.rank, "decision.acquire", sidAcq, acqEnd)
		sidPlan := rec.SpanBegin(nd.rank, "decision.plan", acqEnd)
		dec = core.PlanDecision(r.exch.View(), nd.rank, slaves, totalWork)
		workload.RecordDecision(rec, nd.rank, totalWork, slaves, dec)
		// The cumulative counter leads Commit: any snapshot cut that
		// observed this decision's credits is covered by a later read of
		// assigned (the conservation tests rely on it).
		r.assigned.Add(int64(len(dec.Assignments)))
		r.exch.Commit(r.jp, dec.Assignments)
		planEnd := max(nd.now(), acqEnd)
		rec.SpanEnd(nd.rank, "decision.plan", sidPlan, planEnd)
		sidXfer := rec.SpanBegin(nd.rank, "decision.transfer", planEnd)
		if ship != nil {
			for _, a := range dec.Assignments {
				ship(int(a.Proc), a.Delta)
			}
		}
		endT := max(nd.now(), planEnd)
		rec.SpanEnd(nd.rank, "decision.transfer", sidXfer, endT)
		rec.SpanEnd(nd.rank, "decision", sidDec, endT)
	})
	return dec, lat, err
}

// acquireView runs one view acquisition, committing no assignment, and
// returns the coherent view.
func (r *resident) acquireView() ([]core.Load, error) {
	var view []core.Load
	err := r.acquire(func() {}, func() {
		view = r.exch.View().Snapshot()
		r.exch.Commit(r.jp, nil)
	})
	return view, err
}

// assignWork ships one work item to rank `to` and counts it outstanding
// until its acknowledgment is read. It runs on the rank (a decide ship
// callback).
func (r *resident) assignWork(to int, load core.Load, spin time.Duration) {
	nd := r.nd
	nd.outstanding.Add(1)
	r.jp.mu.Lock()
	r.jp.cnt.AddData(core.BytesWorkItem)
	r.jp.mu.Unlock()
	if rec := nd.opts.Rec; rec != nil {
		rec.Record(chaos.Event{Ev: chaos.EvSend, Rank: nd.rank, Peer: to,
			Kind: int32(TypeWork), Work: load[core.Workload], Spin: spin.Seconds(), T: nd.now()})
	}
	nd.post(to, Message{Type: TypeWork, From: int32(nd.rank), Load: load, Spin: int64(spin)})
}

// workData is a TypeWork frame as a resident rank's data message: Work
// and Size carry its load and, since the rank charges no modeled size,
// Bytes its spin in seconds.
func workData(m *Message) workload.DataMsg {
	return workload.DataMsg{Work: m.Load[core.Workload], Size: m.Load[core.Memory], Bytes: time.Duration(m.Spin).Seconds()}
}

// HandleState implements workload.App: run a posted closure, or treat
// one state message.
func (r *resident) HandleState(_, from, kind int, payload any) {
	if kind == kindCall {
		payload.(func())()
		return
	}
	r.exch.HandleMessage(r.jp, from, kind, payload)
}

// HandleData implements workload.App: execute one work item — its load
// raised for its spin, scaled by the rank's speed factor — and
// acknowledge it to the assigner.
func (r *resident) HandleData(_, from int, m workload.DataMsg) {
	if rec := r.nd.opts.Rec; rec != nil {
		now := r.nd.now()
		rec.Record(chaos.Event{Ev: chaos.EvRecv, Rank: r.nd.rank, Peer: from,
			Kind: int32(TypeWork), Work: m.Work, Spin: m.Bytes, T: now})
		rec.Record(chaos.Event{Ev: chaos.EvStart, Rank: r.nd.rank, T: now})
	}
	load := core.Load{core.Workload: m.Work, core.Memory: m.Size}
	r.exch.LocalChange(r.jp, load, true)
	if m.Bytes > 0 {
		r.drv.Compute(m.Bytes, func() { r.finishItem(from, load) })
		return
	}
	// An instant item completes within this step: no compute holds the
	// rank between the two changes.
	r.finishItem(from, load)
}

// finishItem completes a work item HandleData started.
func (r *resident) finishItem(from int, load core.Load) {
	nd := r.nd
	r.exch.LocalChange(r.jp, core.Load{}.Sub(load), true)
	nd.executed.Add(1)
	if rec := nd.opts.Rec; rec != nil {
		rec.Record(chaos.Event{Ev: chaos.EvDone, Rank: nd.rank, T: nd.now()})
	}
	nd.post(from, Message{Type: TypeWorkDone, From: int32(nd.rank)})
}

// TryStart implements workload.App: a resident rank starts no task of
// its own; its callers' decisions arrive as posted closures.
func (r *resident) TryStart(int) bool { return false }

// Blocked implements workload.App: a rank in a snapshot treats no data.
func (r *resident) Blocked(int) bool { return r.exch.Busy() }

// Attach, Done and Outcome implement workload.App; a driver never calls
// them.
func (r *resident) Attach(workload.AppHost) error                   { return nil }
func (r *resident) Done() bool                                      { return true }
func (r *resident) Outcome(*workload.AppReport) workload.AppOutcome { return workload.AppOutcome{} }

// silentDetector is a resident rank's termination detector: the rank
// runs until its Cluster stops it, so it never announces termination
// and sends nothing.
type silentDetector struct{}

func (silentDetector) Name() string                              { return "none" }
func (silentDetector) OnSend(termdet.Context, int)               {}
func (silentDetector) OnReceive(termdet.Context, int)            {}
func (silentDetector) OnCtrl(termdet.Context, int, termdet.Ctrl) {}
func (silentDetector) Passive(termdet.Context)                   {}
func (silentDetector) Terminated() bool                          { return false }
