package service

// Jobs: every admitted job is a workload.App hosted on the resident
// mesh — each rank runs the shared rank loop (workload.Driver) over the
// job's own port, with one termdet.Protocol instance per (job, rank)
// deciding the job's quiescence. A registered application scenario
// runs unchanged; a synthetic job is the paper's master/slave load
// program, syntheticApp below.

import (
	"fmt"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/workload"
)

// host runs one admitted job to detector-announced quiescence: build
// its App, host it on the job's ports, check its outcome.
func (s *Server) host(j *job) error {
	app, opts, err := s.newApp(j)
	if err != nil {
		return err
	}
	ports, err := s.registerPorts(j.id)
	if err != nil {
		return err
	}
	// Trailing control frames of the job are dropped by the mux after
	// unregistration.
	defer s.unregisterPorts(j.id)
	// A synthetic job drains what it shipped after a cancel, so only an
	// app job's ranks stop on it.
	var cancel <-chan struct{}
	if j.spec.Kind == "app" {
		cancel = j.cancel
	}
	hr, err := xnet.HostApp(app, opts, ports, 2*time.Minute, s.quit, cancel)
	if err != nil {
		if isClosed(j.cancel) {
			return nil // ends canceled
		}
		return fmt.Errorf("service: job %d: %w", j.id, err)
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

// newApp builds the job's App: the synthetic load program, or the
// registered application scenario at the mesh's size.
func (s *Server) newApp(j *job) (workload.App, workload.AppRunOptions, error) {
	if j.spec.Kind == "synthetic" {
		return s.newSynthetic(j), workload.AppRunOptions{Term: s.cfg.Term}, nil
	}
	w, err := workload.Get(j.spec.Scenario)
	if err != nil {
		return nil, workload.AppRunOptions{}, err
	}
	p := workload.DefaultParams()
	p.Procs = s.cfg.Procs
	p.Normalize()
	app, opts, err := w.NewApp(s.cfg.Mech, s.cfg.Cfg, p)
	opts.Term = s.cfg.Term
	return app, opts, err
}

// registerPorts creates the job's port on every rank.
func (s *Server) registerPorts(id int32) ([]*xnet.JobPort, error) {
	ports := make([]*xnet.JobPort, s.cfg.Procs)
	for r := range ports {
		jp, err := s.mesh.Node(r).RegisterJob(id)
		if err != nil {
			for i := 0; i < r; i++ {
				s.mesh.Node(i).UnregisterJob(id)
			}
			return nil, err
		}
		ports[r] = jp
	}
	return ports, nil
}

func (s *Server) unregisterPorts(id int32) {
	for r := range s.cfg.Procs {
		s.mesh.Node(r).UnregisterJob(id)
	}
}

// jobKindWork tags a synthetic job's work-share data message.
const jobKindWork = 1

// syntheticApp is a synthetic job: Algorithm 1 with the rank's quota of
// dynamic decisions as its local task source. A decision is taken on
// the mesh's SHARED exchanger (the rank's resident rank, through
// Cluster.Reserve, so concurrent jobs contend for the same view — the
// measurement this service exists for — and the rank's decision tallies
// count it) and ships its shares as the job's data messages; a slave
// treating one raises its load on the shared view for the share's spin.
// The job's detector owns quiescence.
//
// A decision completes inside TryStart, under the job's callback lock,
// so the job's other ranks wait for its view acquisition. Releasing the
// lock meanwhile — the rank Blocked while its acquisition is in flight
// — measured no faster on service-stream.
type syntheticApp struct {
	mesh   *xnet.Cluster
	cancel <-chan struct{} // the job was canceled: stop deciding
	spec   JobSpec

	host     workload.AppHost
	quota    []int // decisions each rank has left
	executed []int64
	// assigned and done count shares shipped and executed job-wide.
	assigned, done int64

	decisions int
	counters  core.Counters // decision counts + acquire latencies
}

// newSynthetic builds job j's App, its decisions round-robin over the
// master ranks.
func (s *Server) newSynthetic(j *job) *syntheticApp {
	n := s.cfg.Procs
	a := &syntheticApp{
		mesh: s.mesh, cancel: j.cancel, spec: j.spec,
		quota: make([]int, n), executed: make([]int64, n),
	}
	for d := 0; d < j.spec.Decisions; d++ {
		a.quota[d%j.spec.Masters]++
	}
	return a
}

// Attach implements workload.App.
func (a *syntheticApp) Attach(host workload.AppHost) error {
	a.host = host
	return nil
}

// HandleState implements workload.App: synthetic jobs exchange no
// job-scoped state.
func (a *syntheticApp) HandleState(int, int, int, any) {}

// HandleData implements workload.App: execute one received work share.
func (a *syntheticApp) HandleData(rank, _ int, m workload.DataMsg) {
	share := core.Load{core.Workload: m.Work}
	a.change(rank, share)
	a.host.Compute(rank, a.spec.Spin, func() {
		a.change(rank, core.Load{}.Sub(share))
		a.executed[rank]++
		a.done++
	})
}

// change applies a slave load variation to rank's shared view.
func (a *syntheticApp) change(rank int, delta core.Load) {
	a.mesh.Invoke(rank, func(ctx core.Context, exch core.Exchanger) {
		exch.LocalChange(ctx, delta, true)
	})
}

// Blocked implements workload.App: a decision never leaves a rank
// waiting between callbacks.
func (a *syntheticApp) Blocked(int) bool { return false }

// TryStart implements workload.App: take the rank's next decision and
// ship its shares. A canceled job stops deciding; what is in flight
// still drains, so the shared view stays conserved.
func (a *syntheticApp) TryStart(rank int) bool {
	if a.quota[rank] == 0 {
		return false
	}
	select {
	case <-a.cancel:
		a.quota[rank] = 0
		return false
	default:
	}
	// Jobs with masters on one rank take turns in Reserve; the wait counts
	// in the job's makespan, not in its acquire latency.
	dec, lat, err := a.mesh.Reserve(rank, a.spec.Work, a.spec.Slaves)
	if err != nil {
		a.quota[rank] = 0 // the mesh is closing; the host reports it
		return false
	}
	a.quota[rank]--
	a.decisions++
	a.counters.AddDecision(lat)
	for _, asg := range dec.Assignments {
		a.assigned++
		a.host.SendData(rank, int(asg.Proc), workload.DataMsg{Kind: jobKindWork, Work: asg.Delta[core.Workload]})
	}
	return true
}

// Done implements workload.App: every shipped share was executed.
func (a *syntheticApp) Done() bool { return a.done == a.assigned }

// Outcome implements workload.App.
func (a *syntheticApp) Outcome(*workload.AppReport) workload.AppOutcome {
	out := workload.AppOutcome{Executed: a.executed, Decisions: a.decisions, Counters: a.counters}
	if !a.Done() {
		out.Err = fmt.Errorf("service: %d work shares shipped, %d executed", a.assigned, a.done)
	}
	return out
}
