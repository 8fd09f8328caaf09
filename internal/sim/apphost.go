package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// AppRunner implements workload.AppRunner on the deterministic
// discrete-event simulator: the sim side of the application port. It
// reproduces exactly the runtime surface the solver used before the
// port existed — state sends become StateChannel messages, SendData
// becomes DataChannel messages carrying the flattened workload.DataMsg,
// Compute schedules a simulated task — plus the quiescence subsystem:
// one termination detector (internal/termdet) per rank whose control
// frames travel the simulated CtrlChannel with real modeled sizes, so
// the event queue drains exactly when the detector announces global
// termination.
type AppRunner struct {
	// Network configures the simulated interconnect. The zero value
	// means DefaultNetwork().
	Network NetworkConfig
}

// Runtime implements workload.AppRunner.
func (*AppRunner) Runtime() string { return "sim" }

// RunApp implements workload.AppRunner: it drives the application's
// Algorithm 1 loops through the engine until the event queue drains,
// and verifies the drain coincides with detector-announced termination.
func (r *AppRunner) RunApp(n int, app workload.App, opts workload.AppRunOptions) (*workload.AppReport, error) {
	net := r.Network.Normalized()
	if opts.Topo != nil {
		// A state message between non-neighbors panics the simulation
		// instead of silently passing.
		net.Topo = opts.Topo
	}
	eng := NewEngine()
	eng.MaxSteps = opts.MaxSteps
	h := &appHost{
		app: app, opts: opts, busySince: make([]float64, n), termAt: -1,
		busySid: make([]int64, n), idleSid: make([]int64, n),
	}
	for i := range h.busySince {
		h.busySince[i] = -1
	}
	h.dets = make([]termdet.Protocol, n)
	h.detCtxs = make([]termdet.Context, n)
	for rank := 0; rank < n; rank++ {
		det, err := termdet.New(opts.Term, n, rank, opts.Topo)
		if err != nil {
			return nil, err
		}
		h.dets[rank] = det
		h.detCtxs[rank] = detCtx{h, rank}
	}
	h.rt = NewRuntime(eng, n, net, h)
	h.rt.Threaded = opts.Threaded
	if opts.PollPeriod > 0 {
		h.rt.PollPeriod = Duration(opts.PollPeriod)
	}
	if err := app.Attach(h); err != nil {
		return nil, err
	}
	h.rt.Start()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	// The event queue drained: the detector must have concluded — a
	// drain without detection means the computation deadlocked with the
	// detector still waiting (the application's Outcome diagnoses the
	// specifics).
	if !h.dets[0].Terminated() {
		return h.report(), fmt.Errorf("sim: event queue drained without termination detection (%s): application deadlock", h.dets[0].Name())
	}
	if !h.app.Done() {
		return h.report(), fmt.Errorf("sim: detector (%s) announced termination before the application was done", h.dets[0].Name())
	}
	return h.report(), nil
}

// appHost adapts the simulator to workload.AppHost and the hosted
// application to sim.App (+ sim.CtrlApp for the detector frames).
type appHost struct {
	rt   *Runtime
	app  workload.App
	opts workload.AppRunOptions
	dets []termdet.Protocol
	// detCtxs[r] is rank r's detector context, boxed once: the detector
	// is called for every delivered message.
	detCtxs []termdet.Context

	// busySince[r] is the virtual time rank r became Blocked, -1 when
	// it is not; busyTime accumulates the closed intervals.
	busySince []float64
	busyTime  float64

	// lastDone is the virtual time of the latest Compute completion;
	// termAt is the virtual time the detector first broadcast CtrlTerm
	// (-1 until it does). Their difference is the run's detection
	// latency: how long the cluster sat finished before the detector
	// noticed and said so.
	lastDone float64
	termAt   float64

	// busySid/idleSid are each rank's open snapshot.round and
	// termdet.idle trace spans (0 = none); the simulator is
	// single-threaded, so plain slices suffice.
	busySid []int64
	idleSid []int64
}

// ---- workload.AppHost ---------------------------------------------------

func (h *appHost) N() int                        { return len(h.rt.Procs) }
func (h *appHost) Local(rank int) bool           { return true }
func (h *appHost) Now() float64                  { return float64(h.rt.Now()) }
func (h *appHost) Context(rank int) core.Context { return appCtx{h, rank} }
func (h *appHost) Wake(rank int)                 { h.rt.Wake(rank) }

func (h *appHost) SendData(from, to int, m workload.DataMsg) {
	h.dets[from].OnSend(h.detCtxs[from], to)
	h.rt.Send(&Message{
		From: from, To: to, Channel: DataChannel,
		Kind: int(m.Kind), Payload: m, Bytes: m.Bytes,
	})
}

func (h *appHost) Compute(rank int, seconds float64, done func()) {
	h.rt.Compute(h.rt.Procs[rank], Duration(seconds*h.opts.SpeedOf(rank)), func() {
		h.lastDone = float64(h.rt.Now())
		done()
	})
}

// appCtx is one rank's core.Context: mechanism sends on the prioritized
// state channel, exactly as the pre-port solver wired them.
type appCtx struct {
	h    *appHost
	rank int
}

func (c appCtx) Rank() int    { return c.rank }
func (c appCtx) N() int       { return c.h.N() }
func (c appCtx) Now() float64 { return c.h.Now() }

func (c appCtx) Send(to int, kind int, payload any, bytes float64) {
	c.h.rt.Send(&Message{
		From: c.rank, To: to, Channel: StateChannel,
		Kind: kind, Payload: payload, Bytes: bytes,
	})
}

func (c appCtx) Broadcast(kind int, payload any, bytes float64) {
	c.h.rt.Broadcast(c.rank, Message{
		Channel: StateChannel, Kind: kind, Payload: payload, Bytes: bytes,
	})
}

// detCtx is one rank's termdet.Context: control frames travel the
// simulated CtrlChannel at their real modeled size.
type detCtx struct {
	h    *appHost
	rank int
}

func (c detCtx) Rank() int { return c.rank }
func (c detCtx) N() int    { return c.h.N() }

func (c detCtx) SendCtrl(to int, ct termdet.Ctrl) {
	if ct.Kind == termdet.CtrlTerm && c.h.termAt < 0 {
		c.h.termAt = float64(c.h.rt.Now())
	}
	c.h.rt.Send(&Message{
		From: c.rank, To: to, Channel: CtrlChannel,
		Kind: int(ct.Kind), Payload: ct, Bytes: core.BytesCtrl,
	})
}

// ---- sim.App ------------------------------------------------------------

func (h *appHost) HandleState(p *Proc, m *Message) {
	h.app.HandleState(p.ID, m.From, m.Kind, m.Payload)
	h.busyCheck(p.ID)
}

func (h *appHost) HandleData(p *Proc, m *Message) {
	h.endIdle(p.ID)
	h.dets[p.ID].OnReceive(h.detCtxs[p.ID], m.From)
	h.app.HandleData(p.ID, m.From, m.Payload.(workload.DataMsg))
}

// HandleCtrl implements sim.CtrlApp: detector control frames bypass the
// application entirely.
func (h *appHost) HandleCtrl(p *Proc, m *Message) {
	h.dets[p.ID].OnCtrl(h.detCtxs[p.ID], m.From, m.Payload.(termdet.Ctrl))
}

func (h *appHost) TryStart(p *Proc) bool {
	started := h.app.TryStart(p.ID)
	h.busyCheck(p.ID)
	if started {
		h.endIdle(p.ID)
	} else if !h.app.Blocked(p.ID) {
		// The loop is about to park with empty queues, no running task
		// and no startable work: this rank is passive (the detector
		// reactivates it on the next data-message receipt).
		if rec := h.opts.Rec; rec != nil && h.idleSid[p.ID] == 0 {
			h.idleSid[p.ID] = rec.SpanBegin(p.ID, "termdet.idle", h.Now())
		}
		h.dets[p.ID].Passive(h.detCtxs[p.ID])
	}
	return started
}

// endIdle closes the rank's open termdet.idle span: the rank is active
// again (a data message arrived or a task started).
func (h *appHost) endIdle(r int) {
	if h.idleSid[r] != 0 {
		h.opts.Rec.SpanEnd(r, "termdet.idle", h.idleSid[r], h.Now())
		h.idleSid[r] = 0
	}
}

func (h *appHost) Blocked(p *Proc) bool { return h.app.Blocked(p.ID) }

// busyCheck accumulates Blocked (snapshot-participation) time across
// state transitions, in virtual seconds. It schedules no event, so it
// never perturbs the simulation.
func (h *appHost) busyCheck(r int) {
	blocked := h.app.Blocked(r)
	if blocked && h.busySince[r] < 0 {
		h.busySince[r] = float64(h.rt.Now())
		if rec := h.opts.Rec; rec != nil {
			h.busySid[r] = rec.SpanBegin(r, "snapshot.round", h.busySince[r])
		}
	} else if !blocked && h.busySince[r] >= 0 {
		h.busyTime += float64(h.rt.Now()) - h.busySince[r]
		h.busySince[r] = -1
		if rec := h.opts.Rec; rec != nil && h.busySid[r] != 0 {
			rec.SpanEnd(r, "snapshot.round", h.busySid[r], float64(h.rt.Now()))
			h.busySid[r] = 0
		}
	}
}

// report samples the network's exact per-kind tallies into the uniform
// counters, plus the engine and threading metrics only the simulator
// has.
func (h *appHost) report() *workload.AppReport {
	if rec := h.opts.Rec; rec != nil {
		// Balance any spans still open at quiescence.
		now := h.Now()
		for r := range h.idleSid {
			if h.idleSid[r] != 0 {
				rec.SpanEnd(r, "termdet.idle", h.idleSid[r], now)
				h.idleSid[r] = 0
			}
			if h.busySid[r] != 0 {
				rec.SpanEnd(r, "snapshot.round", h.busySid[r], now)
				h.busySid[r] = 0
			}
		}
	}
	rep := &workload.AppReport{
		Time:  float64(h.rt.Now()),
		Steps: h.rt.Eng.Steps(),
	}
	if h.termAt >= h.lastDone && h.termAt >= 0 {
		rep.DetectLatency = h.termAt - h.lastDone
	}
	for _, p := range h.rt.Procs {
		rep.PausedTime += float64(p.PausedTime())
	}
	c := &rep.Counters
	state := h.rt.Net.Count(StateChannel)
	data := h.rt.Net.Count(DataChannel)
	ctrl := h.rt.Net.Count(CtrlChannel)
	c.StateMsgs, c.StateBytes = state.Messages, state.Bytes
	c.DataMsgs, c.DataBytes = data.Messages, data.Bytes
	c.CtrlMsgs, c.CtrlBytes = ctrl.Messages, ctrl.Bytes
	c.BusyTime = h.busyTime
	for _, kind := range h.rt.Net.Kinds(StateChannel) {
		t := h.rt.Net.KindTally(StateChannel, kind)
		if c.PerKind == nil {
			c.PerKind = make(map[string]core.KindTally)
		}
		c.PerKind[core.KindName(kind)] = core.KindTally{Msgs: t.Messages, Bytes: t.Bytes}
	}
	return rep
}
