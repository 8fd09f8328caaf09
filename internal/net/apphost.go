package net

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// This file is the net side of the application port (workload.App /
// workload.AppHost): hosting a real distributed application — the
// multifrontal solver, a program scenario, a service job — over the
// TCP mesh. One host, netAppHost, runs every local rank as the shared
// rank loop (workload.Driver) over that rank's JobPort, so state
// messages, application data messages (workload.DataMsg) and
// termination-detection control frames (termdet.Ctrl) genuinely travel
// the sockets.
//
// Three deployments share it; a Cluster's resident rank (resident.go)
// runs the same driver without a host:
//
//   - AppRunner hosts all n ranks in one process, on one mesh of
//     localhost nodes, each rank on its node's job-0 port;
//   - AppNode hosts a single rank on its node's job-0 port in a forked
//     `loadex node` process; the application instance in each process
//     then executes exactly one local rank, and every cross-rank effect
//     travels as a message;
//   - HostApp hosts the ranks of one service job on the job's tagged
//     ports of a resident mesh (internal/service).
//
// Quiescence is detector-driven in all three: each rank runs one
// termdet.Protocol, control frames bypass the application's Blocked
// gating, and the run ends when a local rank's detector learns of
// global termination — there is no host-side outstanding-work counting.

// netAppHost implements workload.AppHost over the local ranks' ports.
type netAppHost struct {
	app   workload.App
	ports []*JobPort         // nil for ranks other processes run
	drvs  []*workload.Driver // nil where ports is
	proto string             // the detector's name, for diagnostics
	start time.Time

	// mu serializes every application callback across local ranks.
	mu sync.Mutex

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
}

// newHost prepares app's local ranks — the non-nil ports — with one
// detector and one driver each, on the host's clock.
func newHost(app workload.App, opts workload.AppRunOptions, ports []*JobPort) (*netAppHost, error) {
	h := &netAppHost{
		app:    app,
		ports:  ports,
		drvs:   make([]*workload.Driver, len(ports)),
		doneCh: make(chan struct{}),
	}
	for r, jp := range ports {
		if jp == nil {
			continue
		}
		det, err := termdet.New(opts.Term, len(ports), r)
		if err != nil {
			return nil, err
		}
		h.proto = det.Name()
		jp.busy.Now = h.Now
		h.drvs[r], err = workload.NewDriver(workload.Loop{
			Rank: r, App: app, Det: det, Ctx: rankCtx{jp, h},
			Done: h.signalDone, Now: h.Now, Rec: jp.nd.opts.Rec, Busy: &jp.busy,
		}, jp, &h.mu, opts)
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// run attaches the application and drives the local ranks until one of
// them learns about global termination, quit or cancel closes or
// timeout (default 120s) passes. It returns the makespan, sampled at
// quiescence, once every rank loop has stopped.
func (h *netAppHost) run(timeout time.Duration, quit, cancel <-chan struct{}) (float64, error) {
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	h.start = time.Now()
	h.mu.Lock()
	err := h.app.Attach(h)
	h.mu.Unlock()
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range h.drvs {
		if d != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.Run(stop)
			}()
		}
	}
	bound := time.NewTimer(timeout)
	select {
	case <-h.doneCh:
	case <-quit:
		err = errors.New("mesh closed")
	case <-cancel:
		err = errors.New("canceled")
	case <-bound.C:
		err = fmt.Errorf("no termination detected after %s (protocol %s)", timeout, h.proto)
	}
	bound.Stop()
	elapsed := h.Now()
	close(stop)
	wg.Wait()
	return elapsed, err
}

// report samples the local ranks' tallies into a host report. A job-0
// rank owns its node, so the node's real wire tallies — encoded
// frame-body sizes from the writers — are the rank's; a tagged job
// shares its nodes, so only its ports' own tallies are its.
func (h *netAppHost) report(elapsed float64) *workload.AppReport {
	rep := &workload.AppReport{Time: elapsed, DetectLatency: h.detectLatency()}
	for _, jp := range h.ports {
		switch {
		case jp == nil:
		case jp.id == 0:
			rep.Counters.Merge(jp.nd.Counters())
			tr := jp.nd.Transport()
			rep.WireMsgs += tr.MsgsIn
			rep.WireBytes += tr.BytesIn
		default:
			rep.Counters.Merge(jp.Counters())
			rep.Counters.BusyTime += jp.busy.Seconds()
		}
	}
	return rep
}

// detectLatency returns the latency latched at term broadcast; zero
// when this process never observed both endpoints.
func (h *netAppHost) detectLatency() float64 {
	return float64(h.detectLatNS.Load()) / float64(time.Second)
}

// markTerm latches the term-broadcast stamp and, on the winning CAS,
// the detection latency — sampled under the same gate, so later
// compute completions cannot perturb it.
func (h *netAppHost) markTerm() {
	now := time.Now().UnixNano()
	if h.termNS.CompareAndSwap(0, now) {
		if done := h.lastDoneNS.Load(); done > 0 && now >= done {
			h.detectLatNS.Store(now - done)
		}
	}
}

// signalDone latches termination observed by a local detector.
func (h *netAppHost) signalDone() {
	h.doneOnce.Do(func() { close(h.doneCh) })
}

func (h *netAppHost) N() int              { return len(h.ports) }
func (h *netAppHost) Local(rank int) bool { return h.ports[rank] != nil }
func (h *netAppHost) Now() float64        { return time.Since(h.start).Seconds() }

func (h *netAppHost) Context(rank int) core.Context {
	jp := h.ports[rank]
	if jp == nil {
		panic(fmt.Sprintf("net: Context(%d) for a rank this host does not run", rank))
	}
	return rankCtx{jp, h}
}

func (h *netAppHost) SendData(from, to int, m workload.DataMsg) {
	// OnSend precedes the send, so no ack can outrun its engagement.
	d := h.drvs[from]
	d.Det.OnSend(d.Ctx, to)
	h.ports[from].SendData(to, m)
}

func (h *netAppHost) Compute(rank int, seconds float64, done func()) {
	h.drvs[rank].Compute(seconds, func() {
		done()
		h.ports[rank].nd.executed.Add(1)
		h.lastDoneNS.Store(time.Now().UnixNano())
	})
}

func (h *netAppHost) Wake(rank int) {
	jp := h.ports[rank]
	if jp == nil {
		panic(fmt.Sprintf("net: Wake(%d) for a rank this host does not run", rank))
	}
	jp.Wake()
}

// rankCtx is one hosted rank's core.Context for the application's own
// mechanisms and its detector's termdet.Context: the rank's port on the
// host's clock.
type rankCtx struct {
	*JobPort
	h *netAppHost
}

func (c rankCtx) Now() float64 { return c.h.Now() }

func (c rankCtx) SendCtrl(to int, ct termdet.Ctrl) {
	if ct.Kind == termdet.CtrlTerm {
		c.h.markTerm()
	}
	c.JobPort.SendCtrl(to, ct)
}

// HostApp hosts app's ranks on ports — the ranks' ports of one job,
// nil for ranks this process does not run — until a local rank learns
// about global termination, quit (the mesh's end) or cancel (the job's)
// closes or timeout passes, and returns the ranks' report.
func HostApp(app workload.App, opts workload.AppRunOptions, ports []*JobPort, timeout time.Duration, quit, cancel <-chan struct{}) (*workload.AppReport, error) {
	h, err := newHost(app, opts, ports)
	if err != nil {
		return nil, err
	}
	elapsed, err := h.run(timeout, quit, cancel)
	if err != nil {
		return nil, err
	}
	return h.report(elapsed), nil
}

// AppRunner implements workload.AppRunner over localhost TCP: the same
// mesh, codec and graceful-shutdown machinery as Cluster, with every
// node hosting one rank of the application. State, data and control
// tallies in the report are real encoded frame-body sizes counted at
// the writers.
type AppRunner struct {
	// Opts is the node option template (timeouts, logging, chaos);
	// Initial and Speed are ignored — application state comes from the
	// App itself.
	Opts Options
	// Timeout bounds the whole run (default 120s).
	Timeout time.Duration
}

// Runtime implements workload.AppRunner.
func (*AppRunner) Runtime() string { return "net" }

// RunApp implements workload.AppRunner.
func (r *AppRunner) RunApp(n int, app workload.App, opts workload.AppRunOptions) (*workload.AppReport, error) {
	nodeOpts := r.Opts
	if nodeOpts.Rec == nil {
		// App cells record through the workload layer; the nodes share
		// the same recorder so host-level spans (termdet.idle) land in
		// the same trace.
		nodeOpts.Rec = opts.Rec
	}
	ports := make([]*JobPort, n)
	nodes, err := StartMesh(n, func(rank int) (*Node, error) {
		nd, err := NewNode(rank, n, nodeOpts)
		if err == nil {
			ports[rank] = nd.hostRank()
		}
		return nd, err
	})
	if err != nil {
		return nil, err
	}
	h, err := newHost(app, opts, ports)
	if err != nil {
		CloseNodes(nodes)
		return nil, err
	}
	elapsed, err := h.run(r.Timeout, nil, nil)
	// The report samples the wire tallies after the mesh teardown, once
	// every writer has flushed and every reader has drained.
	CloseNodes(nodes)
	if err != nil {
		return nil, fmt.Errorf("net: %w", err)
	}
	return h.report(elapsed), nil
}

// AppNode hosts a single rank of an application on one Node — the
// forked deployment behind `loadex run -runtime net` / `loadex node -rank r`.
// Each OS process builds the application instance deterministically
// from the shared flags, binds it to its node before Start, and runs
// its one local rank; the detector's CtrlTerm announcement (started by
// whichever process hosts rank 0) releases every process.
type AppNode struct {
	nd *Node
	h  *netAppHost
}

// NewAppNode binds app's rank nd.Rank() to nd. Call it after NewNode
// and before Start, so frames from faster peers queue for the rank.
func NewAppNode(nd *Node, app workload.App, opts workload.AppRunOptions) (*AppNode, error) {
	ports := make([]*JobPort, nd.n)
	ports[nd.rank] = nd.hostRank()
	h, err := newHost(app, opts, ports)
	if err != nil {
		return nil, err
	}
	return &AppNode{nd: nd, h: h}, nil
}

// Run attaches the application (call after the node's Start succeeded)
// and blocks until the detector announces global termination, then
// returns the node's transport report. The caller still owns the node
// and must Close it.
func (an *AppNode) Run(timeout time.Duration) (*workload.AppReport, error) {
	elapsed, err := an.h.run(timeout, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("net: rank %d: %w", an.nd.rank, err)
	}
	return an.h.report(elapsed), nil
}

// Health is the node's /healthz document plus the hosted rank's
// termination-detector phase, sampled under the callback lock that
// guards the detector.
func (an *AppNode) Health() obs.Health {
	h := an.nd.Health()
	det := an.h.drvs[an.nd.rank].Det
	an.h.mu.Lock()
	h.Detector, h.Terminated = det.Name(), det.Terminated()
	an.h.mu.Unlock()
	return h
}
