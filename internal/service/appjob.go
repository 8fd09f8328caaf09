package service

// Hosted-application jobs: a registered application scenario (the
// multifrontal solver) runs unchanged on the resident mesh. The app's
// own per-rank mechanisms, data messages and detector control frames
// all travel as job-tagged frames through the job's ports, so several
// solver instances (and synthetic jobs) coexist on the same sockets
// without seeing each other's traffic. Each rank runs the shared rank
// loop (workload.Driver) over its JobPort.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// appJob is the hosting state of one application job: the callback
// mutex, per-rank ports and rank loops.
type appJob struct {
	// mu serializes every application callback across ranks (the
	// in-process hosting contract).
	mu    sync.Mutex
	ports []*xnet.JobPort
	drvs  []*workload.Driver
	start time.Time

	doneCh   chan struct{}
	doneOnce sync.Once
}

func (a *appJob) signalDone() {
	a.doneOnce.Do(func() { close(a.doneCh) })
}

func (a *appJob) now() float64 { return time.Since(a.start).Seconds() }

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
func (c appJobCtx) Now() float64 { return c.a.now() }

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
func (h appJobHost) Now() float64   { return h.a.now() }
func (h appJobHost) Context(rank int) core.Context {
	return appJobCtx{h.a, rank}
}

func (h appJobHost) SendData(from, to int, m workload.DataMsg) {
	d := h.a.drvs[from]
	d.Det.OnSend(d.Ctx, to)
	h.a.ports[from].SendData(to, m)
}

func (h appJobHost) Compute(rank int, seconds float64, done func()) {
	h.a.drvs[rank].Compute(seconds, done)
}

func (h appJobHost) Wake(rank int) { h.a.ports[rank].Wake() }

// runApp hosts one application job to detector-announced quiescence.
func (s *Server) runApp(j *job) error {
	w, err := workload.Get(j.spec.Scenario)
	if err != nil {
		return err
	}
	p := workload.DefaultParams()
	p.Procs = s.cfg.Procs
	p.Normalize()
	app, opts, err := w.NewApp(s.cfg.Mech, s.cfg.Cfg, p)
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
		ports:  ports,
		drvs:   make([]*workload.Driver, n),
		start:  time.Now(),
		doneCh: make(chan struct{}),
	}
	now := a.now
	for r := 0; r < n; r++ {
		det, err := termdet.New(opts.Term, n, r, opts.Topo)
		if err != nil {
			return err
		}
		a.drvs[r], err = workload.NewDriver(workload.Loop{
			Rank: r, App: app, Det: det, Ctx: ports[r], Done: a.signalDone,
			Now: now, Busy: &workload.BusyMeter{Now: now, Rank: r},
		}, ports[r], &a.mu, s.cfg.TimeScale, opts)
		if err != nil {
			return err
		}
	}

	// The rank loops start once the application is attached. Some rank
	// observing global termination closes doneCh and so stops every
	// rank; trailing control frames for this job are dropped by the mux
	// after unregistration.
	if err := app.Attach(appJobHost{a}); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for _, d := range a.drvs {
		wg.Add(1)
		go func(d *workload.Driver) {
			defer wg.Done()
			d.Run(a.doneCh)
		}(d)
	}

	timeout := 2 * time.Minute
	var runErr error
	select {
	case <-a.doneCh:
	case <-s.quit:
		runErr = fmt.Errorf("service: mesh closed during job %d", j.id)
	case <-time.After(timeout):
		runErr = fmt.Errorf("service: job %d: no termination detected after %s (%s)", j.id, timeout, a.drvs[0].Det.Name())
	}
	elapsed := time.Since(a.start).Seconds()
	a.signalDone()
	wg.Wait()
	if runErr != nil {
		return runErr
	}

	hr := &workload.AppReport{Time: elapsed}
	for r, jp := range ports {
		hr.Counters.Merge(jp.Counters())
		hr.Counters.BusyTime += a.drvs[r].Busy.Seconds()
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
