package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/reuse"
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
	rt := runtimes.Get()
	if rt.Eng == nil {
		rt.Eng, rt.Net = NewEngine(), new(Network)
	}
	eng := rt.Eng
	eng.reset()
	eng.MaxSteps = opts.MaxSteps
	h := &appHost{app: app, opts: opts, termAt: -1}
	h.rt = rt.init(eng, n, net, h)
	h.rt.Net.rec = opts.Rec
	h.rt.Threaded = opts.Threaded
	if opts.PollPeriod > 0 {
		h.rt.PollPeriod = Duration(opts.PollPeriod)
	}
	h.loops = make([]workload.Loop, n)
	now := h.Now
	for rank := range h.loops {
		det, err := termdet.New(opts.Term, n, rank)
		if err != nil {
			return nil, err
		}
		h.loops[rank] = workload.Loop{
			Rank: rank, App: app, Det: det, Ctx: rankCtx{h, rank}, Now: now, Rec: opts.Rec,
			Busy: &workload.BusyMeter{Now: now, Rec: opts.Rec, Rank: rank},
		}
	}
	if err := app.Attach(h); err != nil {
		return nil, err
	}
	h.rt.Start()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	// Drained, the runtime is storage: the next run may have it once the report is taken.
	defer func() { runtimes.Put(h.rt); h.rt = nil }()
	// The event queue drained: the detector must have concluded — a
	// drain without detection means the computation deadlocked with the
	// detector still waiting (the application's Outcome diagnoses the
	// specifics).
	if det := h.loops[0].Det; !det.Terminated() {
		return h.report(), fmt.Errorf("sim: event queue drained without termination detection (%s): application deadlock", det.Name())
	}
	if !h.app.Done() {
		return h.report(), fmt.Errorf("sim: detector (%s) announced termination before the application was done", h.loops[0].Det.Name())
	}
	return h.report(), nil
}

// runtimes keeps simulators between RunApp calls, so a table's cells do
// not each regrow the event heap, delivery batches and message queues.
var runtimes = make(reuse.Free[Runtime], 16) // one per cell worker on up to 16 cores

// appHost adapts the simulator to workload.AppHost and steps each
// rank's workload.Loop as the Runtime's App.
type appHost struct {
	rt    *Runtime
	app   workload.App
	opts  workload.AppRunOptions
	loops []workload.Loop

	// termAt is the virtual time the detector first broadcast CtrlTerm
	// (-1 until it does). Its distance from the latest Compute
	// completion is the run's detection latency: how long the cluster
	// sat finished before the detector noticed and said so.
	termAt float64
}

// ---- workload.AppHost ---------------------------------------------------

func (h *appHost) N() int                        { return len(h.loops) }
func (h *appHost) Local(rank int) bool           { return true }
func (h *appHost) Now() float64                  { return float64(h.rt.Now()) }
func (h *appHost) Context(rank int) core.Context { return rankCtx{h, rank} }
func (h *appHost) Wake(rank int)                 { h.rt.Wake(rank) }

func (h *appHost) SendData(from, to int, m workload.DataMsg) {
	l := &h.loops[from]
	l.Det.OnSend(l.Ctx, to)
	h.rt.Net.Send(&Message{
		From: from, To: to, Channel: DataChannel,
		Kind: int(m.Kind), Payload: h.rt.data.box(m), Bytes: m.Bytes,
	})
}

func (h *appHost) Compute(rank int, seconds float64, done func()) {
	h.rt.Compute(h.rt.Procs[rank], Duration(seconds*h.opts.SpeedOf(rank)), done)
}

// rankCtx is one rank's core.Context for the application's mechanisms
// and its detector's termdet.Context: mechanism messages travel the
// prioritized state channel, control frames the CtrlChannel at their
// real modeled size.
type rankCtx struct {
	h    *appHost
	rank int
}

func (c rankCtx) Rank() int    { return c.rank }
func (c rankCtx) N() int       { return c.h.N() }
func (c rankCtx) Now() float64 { return c.h.Now() }

func (c rankCtx) Send(to int, kind int, payload any, bytes float64) {
	c.h.rt.Net.Send(&Message{
		From: c.rank, To: to, Channel: StateChannel,
		Kind: kind, Payload: payload, Bytes: bytes,
	})
}

// Multicast is the one-pass fan-out core's mechanisms look for.
func (c rankCtx) Multicast(kind int, payload any, bytes float64, skip []uint64) int {
	return c.h.rt.Net.Multicast(c.rank, Message{
		Channel: StateChannel, Kind: kind, Payload: payload, Bytes: bytes,
	}, skip)
}

func (c rankCtx) SendCtrl(to int, ct termdet.Ctrl) {
	if ct.Kind == termdet.CtrlTerm && c.h.termAt < 0 {
		c.h.termAt = float64(c.h.rt.Now())
	}
	c.h.rt.Net.Send(&Message{
		From: c.rank, To: to, Channel: CtrlChannel,
		Kind: int(ct.Kind), Payload: c.h.rt.ctrl.box(ct), Bytes: core.BytesCtrl,
	})
}

// Step and Poll implement App: the simulator's event callbacks step the
// rank's loop over the process; Step notes whether the App is Blocked
// after it, as the runtime's poll tick does after Poll.
func (h *appHost) Step(p *Proc) { p.blocked = h.loops[p.ID].Step(p) }

func (h *appHost) Poll(p *Proc) bool { return h.loops[p.ID].Poll(p) }

// report samples the network's exact per-kind tallies into the uniform
// counters, plus the engine and threading metrics only the simulator
// has.
func (h *appHost) report() *workload.AppReport {
	n := len(h.loops)
	rep := &workload.AppReport{
		Time:    float64(h.rt.Now()),
		Steps:   h.rt.Eng.Steps(),
		Drained: true,
		Compute: make([]float64, n), Blocked: make([]float64, n), Idle: make([]float64, n),
	}
	busy, lastDone := 0.0, 0.0
	for r, p := range h.rt.Procs {
		h.loops[r].EndSpans() // balance spans still open at quiescence
		rep.Compute[r], rep.Blocked[r], rep.Idle[r] = float64(p.computeTime), h.loops[r].Busy.Seconds(), float64(p.idleTotal)
		if !p.active {
			rep.Idle[r] += float64(h.rt.Now() - p.idleFrom)
		}
		busy += rep.Blocked[r]
		rep.PausedTime += float64(p.PausedTime())
		lastDone = max(lastDone, float64(p.doneAt))
	}
	if h.termAt >= lastDone && h.termAt >= 0 {
		rep.DetectLatency = h.termAt - lastDone
	}
	rep.Counters = h.rt.Net.Counters()
	rep.StateDropped = h.rt.Net.Dropped(StateChannel)
	rep.Counters.BusyTime = busy
	return rep
}
