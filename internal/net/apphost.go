package net

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// This file is the net side of the application port (workload.App /
// workload.AppHost): hosting a real distributed application — the
// multifrontal solver, or a program scenario — over the same TCP mesh,
// codec and peer loops the built-in loop uses. Each rank is one Node
// whose main loop runs the application's Algorithm 1 instead of the
// built-in loop; state messages, application data messages (TypeData
// frames carrying workload.DataMsg) and termination-detection control
// frames (TypeCtrl carrying termdet.Ctrl) genuinely travel the sockets.
//
// Two deployments share this code:
//
//   - AppRunner hosts all n ranks in one process (one mesh of localhost
//     nodes, application callbacks serialized by the binding's lock);
//   - AppNode hosts a single rank in a forked `loadex node` process;
//     the application instance in each process then executes exactly
//     one local rank, and every cross-rank effect travels as a message.
//
// Quiescence is detector-driven in both: each rank runs one
// termdet.Protocol, control frames bypass the application's Blocked
// gating, and the run ends when the detector announces global
// termination — there is no host-side outstanding-work counting.

// appCompute is one deferred compute interval.
type appCompute struct {
	seconds float64
	done    func()
}

// appBinding is the hosting state shared by every local node of one
// application cluster (all n in-process, exactly one under fork).
type appBinding struct {
	app   workload.App
	opts  workload.AppRunOptions
	scale float64

	// mu serializes every application callback across local ranks.
	mu sync.Mutex
	// ready is closed once Attach ran; node loops park on it so the
	// application never sees a callback before its host is wired.
	ready chan struct{}

	// doneCh closes when a local rank's detector learns about global
	// termination (detected on rank 0, announced by CtrlTerm
	// elsewhere).
	doneCh   chan struct{}
	doneOnce sync.Once

	// lastDoneNS / termNS are wall-clock UnixNano stamps of the latest
	// local compute completion and the detector's first CtrlTerm
	// broadcast. Under fork only the process hosting rank 0 observes
	// the broadcast, so other processes report zero (unobserved).
	lastDoneNS atomic.Int64
	termNS     atomic.Int64
	// detectLatNS is the detection latency, latched at the moment the
	// CtrlTerm CAS succeeds — the same gate that orders the term
	// broadcast. Deriving it later from the two stamps was racy: a
	// late compute completion during drain could overwrite lastDoneNS
	// past termNS and silently zero the metric.
	detectLatNS atomic.Int64

	// startNS is the host clock epoch (UnixNano, set before the app
	// attaches); span timestamps in app mode use it so they share the
	// compute events' time base.
	startNS atomic.Int64
}

// detectLatency returns the latency latched at term broadcast; zero
// when this process never observed both endpoints.
func (b *appBinding) detectLatency() float64 {
	return float64(b.detectLatNS.Load()) / float64(time.Second)
}

// markTerm latches the term-broadcast stamp and, on the winning CAS,
// the detection latency — sampled under the same gate, so later
// compute completions cannot perturb it.
func (b *appBinding) markTerm() {
	now := time.Now().UnixNano()
	if b.termNS.CompareAndSwap(0, now) {
		if done := b.lastDoneNS.Load(); done > 0 && now >= done {
			b.detectLatNS.Store(now - done)
		}
	}
}

// now is the host-clock timestamp for trace events (0 before attach).
func (b *appBinding) now() float64 {
	s := b.startNS.Load()
	if s == 0 {
		return 0
	}
	return float64(time.Now().UnixNano()-s) / float64(time.Second)
}

// signalDone latches termination observed by a local detector.
func (b *appBinding) signalDone() {
	b.doneOnce.Do(func() { close(b.doneCh) })
}

// nodeDetCtx is one node's termdet.Context: control frames travel as
// TypeCtrl codec frames with real encoded sizes tallied at the writer
// (the estimate tallies charge core.BytesCtrl).
type nodeDetCtx struct{ nd *Node }

func (c nodeDetCtx) Rank() int { return c.nd.rank }
func (c nodeDetCtx) N() int    { return c.nd.n }

func (c nodeDetCtx) SendCtrl(to int, ct termdet.Ctrl) {
	if ct.Kind == termdet.CtrlTerm {
		c.nd.appB.markTerm()
	}
	c.nd.est.AddCtrl(core.BytesCtrl)
	c.nd.post(to, CtrlMessage(c.nd.rank, ct))
}

// runApp is the node main loop in app mode: the hosted application's
// Algorithm 1 — pending compute first (a task the application just
// started runs immediately), then the next mailbox message in class
// order (detector control frames, exempt from Blocked gating; state
// messages; application data only while the rank is not Blocked), then
// TryStart, and a passivity declaration to the detector before parking
// when idle.
func (nd *Node) runApp() {
	b := nd.appB
	rec := nd.opts.Rec
	defer nd.exit()
	select {
	case <-b.ready:
	case <-nd.quit:
		return
	}
	r := nd.rank
	for {
		select {
		case <-nd.quit:
			return
		default:
		}
		if p := nd.appPend; p != nil {
			nd.appPend = nil
			nd.appSleep(p.seconds)
			b.mu.Lock()
			p.done()
			b.mu.Unlock()
			b.lastDoneNS.Store(time.Now().UnixNano())
			continue
		}
		b.mu.Lock()
		blocked := b.app.Blocked(r)
		b.mu.Unlock()
		cl, c, m, d := nd.in.take(!blocked)
		if cl != ClassNone {
			nd.endIdleSpan()
			switch cl {
			case ClassCtrl:
				nd.appHandleCtrl(c)
			case ClassState:
				nd.appHandleState(m)
			case ClassData:
				nd.appHandleData(d)
			}
			continue
		}
		if !blocked {
			// Nothing to treat: local ready tasks. TryStart can open a
			// snapshot (Acquire broadcast → Blocked), so the busy meter
			// observes here too — otherwise the request-to-first-reply
			// interval would be dropped from BusyTime (the simulator
			// host meters this transition as well).
			b.mu.Lock()
			started := b.app.TryStart(r)
			blocked = b.app.Blocked(r)
			b.mu.Unlock()
			nd.observeBusy(blocked)
			if started {
				nd.endIdleSpan()
				continue
			}
		}
		if !blocked {
			// Nothing pending, nothing startable, not snapshot-blocked:
			// declare the rank passive. The detector reactivates it on
			// the next data-message receipt; detection closes the run.
			// The park below is a termdet.idle trace span — the per-rank
			// idle time the paper's blocked-time argument is about.
			if rec != nil && nd.idleSid == 0 {
				nd.idleSid = rec.SpanBegin(nd.rank, "termdet.idle", b.now())
			}
			nd.appDet.Passive(nodeDetCtx{nd})
			if nd.appDet.Terminated() {
				b.signalDone()
			}
		}
		// The take above armed the wake-up, so anything put since —
		// including what TryStart or Passive caused — ends this park.
		select {
		case <-nd.in.wake:
		case <-nd.quit:
			return
		}
	}
}

// endIdleSpan closes the open termdet.idle span, if any — the rank
// just woke up. Node goroutine only.
func (nd *Node) endIdleSpan() {
	if nd.idleSid != 0 {
		nd.opts.Rec.SpanEnd(nd.rank, "termdet.idle", nd.idleSid, nd.appB.now())
		nd.idleSid = 0
	}
}

// appHandleState treats one state-channel item in app mode. Control
// closures (Invoke: counter sampling) bypass the application.
func (nd *Node) appHandleState(m inMsg) {
	if m.ctl != nil {
		m.ctl()
		return
	}
	b := nd.appB
	b.mu.Lock()
	b.app.HandleState(nd.rank, m.from, m.kind, m.payload)
	blocked := b.app.Blocked(nd.rank)
	b.mu.Unlock()
	nd.observeBusy(blocked)
}

// appHandleData treats one application data message.
func (nd *Node) appHandleData(m dataMsg) {
	b := nd.appB
	nd.appDet.OnReceive(nodeDetCtx{nd}, m.from)
	b.mu.Lock()
	b.app.HandleData(nd.rank, m.from, m.app)
	b.mu.Unlock()
}

// appHandleCtrl treats one detector control frame. It never touches the
// application, so it runs outside the callback mutex.
func (nd *Node) appHandleCtrl(m ctrlMsg) {
	nd.appDet.OnCtrl(nodeDetCtx{nd}, m.from, m.c)
	if nd.appDet.Terminated() {
		nd.appB.signalDone()
	}
}

// appSleep spends one compute interval of wall clock, bounded by quit
// so shutdown is prompt. The node's timer is reused across intervals
// (appSleep only ever runs on the node goroutine): time.After would
// leave one uncollected runtime timer per compute interval, which adds
// up under short intervals on long scenario runs.
func (nd *Node) appSleep(seconds float64) {
	d := time.Duration(seconds * nd.appB.scale * float64(time.Second))
	if d <= 0 {
		return
	}
	if nd.sleepTimer == nil {
		nd.sleepTimer = time.NewTimer(d)
	} else {
		nd.sleepTimer.Reset(d)
	}
	select {
	case <-nd.sleepTimer.C:
	case <-nd.quit:
		if !nd.sleepTimer.Stop() {
			<-nd.sleepTimer.C // drain so a later Reset starts clean
		}
	}
}

// netAppHost implements workload.AppHost over local nodes: all n of
// them in-process, or a single one under fork (remote entries nil).
type netAppHost struct {
	b     *appBinding
	nodes []*Node
	start time.Time
}

func (h *netAppHost) N() int              { return len(h.nodes) }
func (h *netAppHost) Local(rank int) bool { return h.nodes[rank] != nil }
func (h *netAppHost) Now() float64        { return time.Since(h.start).Seconds() }

func (h *netAppHost) Context(rank int) core.Context {
	nd := h.nodes[rank]
	if nd == nil {
		panic(fmt.Sprintf("net: Context(%d) for a rank this host does not run", rank))
	}
	return nodeCtx{nd}
}

func (h *netAppHost) SendData(from, to int, m workload.DataMsg) {
	nd := h.nodes[from]
	// The estimate tallies charge the application's modeled byte size;
	// the writer goroutine tallies the real encoded frame.
	nd.est.AddData(m.Bytes)
	nd.appDet.OnSend(nodeDetCtx{nd}, to)
	if to == from {
		// Applications do not normally self-send; deliver locally.
		nd.in.putData(dataMsg{from: from, app: m})
		return
	}
	nd.post(to, DataMessage(from, m))
}

func (h *netAppHost) Compute(rank int, seconds float64, done func()) {
	nd := h.nodes[rank]
	if nd.appPend != nil {
		panic(fmt.Sprintf("net: rank %d started a task while busy", rank))
	}
	nd.appPend = &appCompute{seconds: seconds * h.b.opts.SpeedOf(rank), done: done}
}

func (h *netAppHost) Wake(rank int) {
	nd := h.nodes[rank]
	if nd == nil {
		panic(fmt.Sprintf("net: Wake(%d) for a rank this host does not run", rank))
	}
	nd.in.nudge()
}

// bindAppNode prepares one local node to host rank nd.rank of the
// bound application: binding, detector, nothing else. Must run before
// Start launches the node loop.
func bindAppNode(nd *Node, b *appBinding) error {
	det, err := termdet.New(b.opts.Term, nd.n, nd.rank, b.opts.Topo)
	if err != nil {
		return err
	}
	nd.appB = b
	nd.appDet = det
	return nil
}

// appReportOf samples one quiesced node's transport tallies into a
// host report (real encoded frame-body sizes from the writers).
func appReportOf(nodes []*Node, elapsed float64) *workload.AppReport {
	rep := &workload.AppReport{Time: elapsed}
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		rep.Counters.Merge(nd.sampleCounters())
		tr := nd.Transport()
		rep.WireMsgs += tr.MsgsIn
		rep.WireBytes += tr.BytesIn
	}
	return rep
}

// AppRunner implements workload.AppRunner over localhost TCP: the same
// mesh, codec and graceful-shutdown machinery as Cluster, with the node
// main loops running a hosted application. State, data and control
// tallies in the report are real encoded frame-body sizes counted at
// the writers.
type AppRunner struct {
	// Opts is the node option template (codec, timeouts, logging);
	// Initial and Speed are ignored — application state comes from the
	// App itself.
	Opts Options
	// TimeScale is the wall-clock duration of one application second of
	// compute (default 1).
	TimeScale float64
	// Timeout bounds the whole run (default 120s).
	Timeout time.Duration
}

// Runtime implements workload.AppRunner.
func (*AppRunner) Runtime() string { return "net" }

// RunApp implements workload.AppRunner.
func (r *AppRunner) RunApp(n int, app workload.App, opts workload.AppRunOptions) (*workload.AppReport, error) {
	scale := r.TimeScale
	if scale <= 0 {
		scale = 1
	}
	timeout := r.Timeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	b := &appBinding{
		app:    app,
		opts:   opts,
		scale:  scale,
		ready:  make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	nodeOpts := r.Opts
	nodeOpts.Initial, nodeOpts.Speed = nil, nil
	if nodeOpts.Rec == nil {
		// App cells record through the workload layer; the nodes share
		// the same recorder so host-level spans (termdet.idle) land in
		// the same trace.
		nodeOpts.Rec = opts.Rec
	}

	nodes := make([]*Node, 0, n)
	stop := func() {
		var wg sync.WaitGroup
		for _, nd := range nodes {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				nd.Close()
			}(nd)
		}
		wg.Wait()
	}
	addrs := make([]string, n)
	for rank := 0; rank < n; rank++ {
		// The node's own exchanger is unused in app mode (the
		// application owns its mechanisms); any registered mechanism
		// satisfies the constructor. The topology decides which links
		// the mesh dials.
		nd, err := NewNode(rank, n, core.MechNaive, core.Config{Topo: opts.Topo}, nodeOpts)
		if err != nil {
			stop()
			return nil, err
		}
		if err := bindAppNode(nd, b); err != nil {
			stop()
			return nil, err
		}
		nodes = append(nodes, nd)
		if addrs[rank], err = nd.Listen("127.0.0.1:0"); err != nil {
			stop()
			return nil, err
		}
	}
	// Start the whole mesh concurrently: rank r's Start blocks until
	// every higher rank has dialed it.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = nodes[rank].Start(addrs)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			stop()
			return nil, err
		}
	}

	host := &netAppHost{b: b, nodes: nodes, start: time.Now()}
	b.startNS.Store(host.start.UnixNano())
	b.mu.Lock()
	err := app.Attach(host)
	b.mu.Unlock()
	if err != nil {
		stop()
		return nil, err
	}
	close(b.ready)

	var runErr error
	select {
	case <-b.doneCh:
	case <-time.After(timeout):
		// Diagnose without the callback mutex: a wedged callback may
		// hold b.mu forever, and the timeout guard must still report.
		runErr = fmt.Errorf("net: no termination detected after %s (protocol %s)",
			timeout, nodes[0].appDet.Name())
	}
	// Sample the makespan at quiescence, before the mesh teardown
	// (graceful Close — writer flushes, FIN exchanges — can take as
	// long as a small run itself).
	elapsed := time.Since(host.start).Seconds()
	stop()
	rep := appReportOf(nodes, elapsed)
	rep.DetectLatency = b.detectLatency()
	return rep, runErr
}

// AppNode hosts a single rank of an application on one Node — the
// forked deployment behind `loadex cluster` / `loadex node -rank r`.
// Each OS process builds the application instance deterministically
// from the shared flags, binds it to its node before Start, and runs
// its one local rank; the detector's CtrlTerm announcement (started by
// whichever process hosts rank 0) releases every process.
type AppNode struct {
	nd   *Node
	b    *appBinding
	host *netAppHost
}

// NewAppNode binds app's rank nd.Rank() to nd. Call it after NewNode
// and before Start (the app-mode main loop parks until Run attaches
// the application).
func NewAppNode(nd *Node, app workload.App, opts workload.AppRunOptions, timeScale float64) (*AppNode, error) {
	if timeScale <= 0 {
		timeScale = 1
	}
	b := &appBinding{
		app:    app,
		opts:   opts,
		scale:  timeScale,
		ready:  make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if err := bindAppNode(nd, b); err != nil {
		return nil, err
	}
	nodes := make([]*Node, nd.n)
	nodes[nd.rank] = nd
	return &AppNode{nd: nd, b: b, host: &netAppHost{b: b, nodes: nodes}}, nil
}

// Run attaches the application (call after the node's Start succeeded)
// and blocks until the detector announces global termination, then
// returns the node's transport report. The caller still owns the node
// and must Close it.
func (an *AppNode) Run(timeout time.Duration) (*workload.AppReport, error) {
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	an.host.start = time.Now()
	an.b.startNS.Store(an.host.start.UnixNano())
	an.b.mu.Lock()
	err := an.b.app.Attach(an.host)
	an.b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	close(an.b.ready)
	select {
	case <-an.b.doneCh:
	case <-time.After(timeout):
		return nil, fmt.Errorf("net: rank %d: no termination detected after %s (protocol %s)",
			an.nd.rank, timeout, an.nd.appDet.Name())
	}
	elapsed := time.Since(an.host.start).Seconds()
	// The rank loop is still running (it stops at Close); the sample
	// must go through the node goroutine.
	var rep *workload.AppReport
	an.nd.Invoke(func(core.Context, core.Exchanger) {
		rep = appReportOf(an.host.nodes, elapsed)
	})
	if rep == nil {
		rep = appReportOf(an.host.nodes, elapsed)
	}
	rep.DetectLatency = an.b.detectLatency()
	return rep, nil
}
