package service

// Hosted-application jobs: a registered workload.AppScenario (the
// multifrontal solver) runs unchanged on the resident mesh. The app's
// own per-rank mechanisms, data messages and detector control frames
// all travel as job-tagged frames through the job's ports, so several
// solver instances (and synthetic jobs) coexist on the same sockets
// without seeing each other's traffic. The per-rank driver loop is the
// same Algorithm 1 ordering as net.Node.runApp, re-expressed over a
// JobPort instead of the node's own channels.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// appJob is the hosting state of one application job: the binding
// (callback mutex, app, options), per-rank ports, detectors and pending
// computes.
type appJob struct {
	s    *Server
	id   int32
	app  workload.App
	opts workload.AppRunOptions

	// mu serializes every application callback across ranks (the
	// in-process hosting contract).
	mu    sync.Mutex
	ready chan struct{}

	ports []*xnet.JobPort
	dets  []termdet.Protocol
	// pend is each rank's deferred compute, owned by that rank's driver
	// goroutine (set under mu by Compute, consumed by the driver).
	pend []*appPend
	// wake buffers cross-rank wakeups per rank.
	start time.Time

	doneCh   chan struct{}
	doneOnce sync.Once
}

type appPend struct {
	seconds float64
	done    func()
}

func (a *appJob) signalDone() {
	a.doneOnce.Do(func() { close(a.doneCh) })
}

// appJobDetCtx routes a rank's detector frames through its job port.
type appJobDetCtx struct {
	a    *appJob
	rank int
}

func (c appJobDetCtx) Rank() int { return c.rank }
func (c appJobDetCtx) N() int    { return len(c.a.ports) }
func (c appJobDetCtx) SendCtrl(to int, ct termdet.Ctrl) {
	c.a.ports[c.rank].SendCtrl(to, ct)
}

// appJobCtx is one rank's core.Context for the application's OWN
// mechanisms: state messages travel as job-tagged state frames, so a
// hosted app's load-information traffic is isolated from the mesh's
// shared channel (the mesh mechanism keeps running beneath it).
type appJobCtx struct {
	a    *appJob
	rank int
}

func (c appJobCtx) Rank() int    { return c.rank }
func (c appJobCtx) N() int       { return len(c.a.ports) }
func (c appJobCtx) Now() float64 { return time.Since(c.a.start).Seconds() }

func (c appJobCtx) Send(to int, kind int, payload any, bytes float64) {
	if err := c.a.ports[c.rank].SendState(to, kind, payload, bytes); err != nil {
		panic(err) // a core payload the codec cannot carry is a programming error
	}
}

func (c appJobCtx) Broadcast(kind int, payload any, bytes float64) {
	for to := 0; to < len(c.a.ports); to++ {
		if to != c.rank {
			c.Send(to, kind, payload, bytes)
		}
	}
}

// appJobHost implements workload.AppHost over the job's ports.
type appJobHost struct{ a *appJob }

func (h appJobHost) N() int         { return len(h.a.ports) }
func (h appJobHost) Local(int) bool { return true }
func (h appJobHost) Now() float64   { return time.Since(h.a.start).Seconds() }
func (h appJobHost) Context(rank int) core.Context {
	return appJobCtx{h.a, rank}
}

func (h appJobHost) SendData(from, to int, m workload.DataMsg) {
	h.a.dets[from].OnSend(appJobDetCtx{h.a, from}, to)
	h.a.ports[from].SendData(to, m)
}

func (h appJobHost) Compute(rank int, seconds float64, done func()) {
	if h.a.pend[rank] != nil {
		panic(fmt.Sprintf("service: job %d rank %d started a task while busy", h.a.id, rank))
	}
	h.a.pend[rank] = &appPend{seconds: seconds * h.a.opts.SpeedOf(rank), done: done}
}

func (h appJobHost) Wake(rank int) { h.a.ports[rank].Wake() }

// runApp hosts one application job to detector-announced quiescence.
func (s *Server) runApp(j *job) error {
	w, err := workload.Get(j.spec.Scenario)
	if err != nil {
		return err
	}
	as, ok := w.(workload.AppScenario)
	if !ok {
		return fmt.Errorf("service: %q is not an application scenario", j.spec.Scenario)
	}
	p := workload.DefaultParams()
	p.Procs = s.cfg.Procs
	p.Normalize()
	app, opts, err := as.NewApp(s.cfg.Mech, s.cfg.Cfg, p)
	if err != nil {
		return err
	}
	if s.cfg.Term != "" {
		opts.Term = s.cfg.Term
	}

	n := s.cfg.Procs
	ports, err := s.registerPorts(j.id)
	if err != nil {
		return err
	}
	defer s.unregisterPorts(j.id)

	a := &appJob{
		s: s, id: j.id, app: app, opts: opts,
		ready:  make(chan struct{}),
		ports:  ports,
		dets:   make([]termdet.Protocol, n),
		pend:   make([]*appPend, n),
		start:  time.Now(),
		doneCh: make(chan struct{}),
	}
	for r := 0; r < n; r++ {
		if a.dets[r], err = termdet.New(opts.Term, n, r); err != nil {
			return err
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a.rankLoop(r, j)
		}(r)
	}

	a.mu.Lock()
	err = app.Attach(appJobHost{a})
	a.mu.Unlock()
	if err != nil {
		a.signalDone() // release the rank loops
		wg.Wait()
		return err
	}
	close(a.ready)

	timeout := 2 * time.Minute
	var runErr error
	select {
	case <-a.doneCh:
	case <-s.quit:
		runErr = fmt.Errorf("service: mesh closed during job %d", j.id)
	case <-time.After(timeout):
		runErr = fmt.Errorf("service: job %d: no termination detected after %s (%s)", j.id, timeout, a.dets[0].Name())
	}
	elapsed := time.Since(a.start).Seconds()
	a.signalDone()
	wg.Wait()
	if runErr != nil {
		return runErr
	}

	hr := &workload.AppReport{Time: elapsed}
	for _, jp := range ports {
		hr.Counters.Merge(jp.Counters())
	}
	out := app.Outcome(hr)
	if out.Err != nil {
		return out.Err
	}
	j.counters = workload.CountersFromApp(hr, out)
	for _, e := range out.Executed {
		j.executed += e
	}
	return nil
}

// rankLoop is one rank's Algorithm 1 driver over the job's port,
// mirroring net.Node.runApp: pending compute, the port's next message
// in class order (data only while not Blocked), TryStart, passivity.
func (a *appJob) rankLoop(rank int, j *job) {
	jp := a.ports[rank]
	det := a.dets[rank]
	ctx := appJobDetCtx{a, rank}
	select {
	case <-a.ready:
	case <-a.doneCh:
		return
	case <-jp.Quit():
		return
	}
	handleCtrl := func(c xnet.JobCtrl) {
		det.OnCtrl(ctx, c.From, c.Ctrl)
		if det.Terminated() {
			a.signalDone()
		}
	}
	handleState := func(m xnet.JobState) {
		a.mu.Lock()
		a.app.HandleState(rank, m.From, m.Kind, m.Payload)
		a.mu.Unlock()
	}
	handleData := func(d xnet.JobData) {
		det.OnReceive(ctx, d.From)
		a.mu.Lock()
		a.app.HandleData(rank, d.From, d.Msg)
		a.mu.Unlock()
	}
	for {
		select {
		case <-a.doneCh:
			// Some rank observed global termination; trailing control
			// frames for this job are dropped by the mux after
			// unregistration, which is fine — the computation is over.
			return
		case <-jp.Quit():
			return
		default:
		}
		if det.Terminated() {
			a.signalDone()
			return
		}
		if p := a.pend[rank]; p != nil {
			a.pend[rank] = nil
			a.sleep(p.seconds, jp)
			a.mu.Lock()
			p.done()
			a.mu.Unlock()
			continue
		}
		a.mu.Lock()
		blocked := a.app.Blocked(rank)
		a.mu.Unlock()
		switch cl, c, m, d := jp.Take(!blocked); cl {
		case xnet.ClassCtrl:
			handleCtrl(c)
			continue
		case xnet.ClassState:
			handleState(m)
			continue
		case xnet.ClassData:
			handleData(d)
			continue
		}
		if !blocked {
			a.mu.Lock()
			started := a.app.TryStart(rank)
			blocked = a.app.Blocked(rank)
			a.mu.Unlock()
			if started {
				continue
			}
		}
		if !blocked {
			det.Passive(ctx)
			if det.Terminated() {
				a.signalDone()
				return
			}
		}
		select {
		case <-jp.Ready():
		case <-a.doneCh:
			return
		case <-jp.Quit():
			return
		}
	}
}

// sleep spends one compute interval of wall clock, scaled by the
// service's time scale and bounded by mesh shutdown.
func (a *appJob) sleep(seconds float64, jp *xnet.JobPort) {
	d := time.Duration(seconds * a.s.cfg.TimeScale * float64(time.Second))
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-jp.Quit():
	}
}
