package service

// Synthetic jobs: the paper's master/slave load program, re-expressed
// against a shared mesh. Decisions are taken on the mesh's resident
// exchanger (Acquire → PlanDecision → Commit on the node goroutine, so
// concurrent jobs contend for the same view — the measurement this
// service exists for), while the work itself ships as job-tagged data
// frames executed by per-job rank drivers, with one termdet.Protocol
// instance per (job, rank) deciding the job's own quiescence.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// jobKindWork tags a synthetic job's work-share data message.
const jobKindWork = 1

// jobDetCtx is a (job, rank) detector's termdet.Context: control frames
// travel as job-tagged ctrl frames through the rank's port.
type jobDetCtx struct{ jp *xnet.JobPort }

func (c jobDetCtx) Rank() int { return c.jp.Rank() }
func (c jobDetCtx) N() int    { return c.jp.N() }

func (c jobDetCtx) SendCtrl(to int, ct termdet.Ctrl) {
	c.jp.SendCtrl(to, ct)
}

// registerPorts creates the job's port on every rank.
func (s *Server) registerPorts(id int32) ([]*xnet.JobPort, error) {
	ports := make([]*xnet.JobPort, len(s.nodes))
	for r, nd := range s.nodes {
		jp, err := nd.RegisterJob(id)
		if err != nil {
			for i := 0; i < r; i++ {
				s.nodes[i].UnregisterJob(id)
			}
			return nil, err
		}
		ports[r] = jp
	}
	return ports, nil
}

func (s *Server) unregisterPorts(id int32) {
	for _, nd := range s.nodes {
		nd.UnregisterJob(id)
	}
}

// runSynthetic executes one synthetic job to quiescence on the resident
// mesh.
func (s *Server) runSynthetic(j *job) error {
	n := s.cfg.Procs
	sp := j.spec
	ports, err := s.registerPorts(j.id)
	if err != nil {
		return err
	}
	defer s.unregisterPorts(j.id)

	// Round-robin the decisions over the master ranks.
	quota := make([]int, n)
	for d := 0; d < sp.Decisions; d++ {
		quota[d%sp.Masters]++
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	execCount := make([]int64, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			execCount[r], errs[r] = s.syntheticRank(j, r, ports[r], quota[r])
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	for r := 0; r < n; r++ {
		j.executed += execCount[r]
		j.counters.Merge(ports[r].Counters())
	}
	return nil
}

// syntheticRank is one rank's driver loop for one synthetic job:
// Algorithm 1 with the decisions as the local task source and the
// job's detector deciding quiescence. All detector calls happen on
// this goroutine (the protocol's single-owner contract).
func (s *Server) syntheticRank(j *job, rank int, jp *xnet.JobPort, quota int) (int64, error) {
	det, err := termdet.New(s.cfg.Term, s.cfg.Procs, rank, nil)
	if err != nil {
		return 0, err
	}
	ctx := jobDetCtx{jp}
	nd := s.nodes[rank]
	var executed int64
	deadline := time.NewTimer(2 * time.Minute)
	defer deadline.Stop()
	for {
		// The job's detector control frames first; received work shares
		// only once the local task source below is exhausted.
		switch cl, c, _, d := jp.Take(quota == 0); cl {
		case xnet.ClassCtrl:
			det.OnCtrl(ctx, c.From, c.Ctrl)
			if det.Terminated() {
				return executed, nil
			}
			continue
		case xnet.ClassData:
			det.OnReceive(ctx, d.From)
			s.executeShare(nd, d.Msg)
			executed++
			continue
		case xnet.ClassState:
			continue // synthetic jobs exchange no job-scoped state
		}
		// Local task source — one dynamic decision against the mesh's
		// shared view. OnSend precedes SendData so no ack can outrun its
		// engagement.
		if quota > 0 {
			select {
			case <-j.cancel:
				quota = 0 // stop deciding; drain what is in flight
				continue
			default:
			}
			dec, err := s.decide(j, rank, jp)
			if err != nil {
				return executed, err
			}
			quota--
			for _, a := range dec.Assignments {
				det.OnSend(ctx, int(a.Proc))
				jp.SendData(int(a.Proc), workload.DataMsg{
					Kind: jobKindWork,
					Work: a.Delta[core.Workload],
					Size: sSpin(j.spec.Spin),
				})
			}
			continue
		}
		// Idle: declare passivity; detection (rank 0) or the CtrlTerm
		// announcement ends the loop.
		det.Passive(ctx)
		if det.Terminated() {
			return executed, nil
		}
		select {
		case <-jp.Ready():
		case <-jp.Quit():
			return executed, fmt.Errorf("service: mesh closed during job %d", j.id)
		case <-deadline.C:
			return executed, fmt.Errorf("service: job %d rank %d: no termination after 2m (%s)", j.id, rank, det.Name())
		}
	}
}

// sSpin round-trips the spin seconds through the DataMsg Size field.
func sSpin(sec float64) float64 { return sec }

// decide takes one dynamic decision for the job on rank's node: acquire
// a coherent view of the SHARED mesh exchanger, plan, commit. The
// decision latency and count are charged to the job's counters, not the
// mesh's (the mesh only sees the state traffic the acquisition cost).
// Decisions on one node must not overlap (a mechanism contract), so
// concurrent jobs with masters on the same rank serialize here — that
// queueing delay is part of the sharing cost the latency metric
// measures.
func (s *Server) decide(j *job, rank int, jp *xnet.JobPort) (core.Decision, error) {
	s.decMu[rank].Lock()
	defer s.decMu[rank].Unlock()
	nd := s.nodes[rank]
	sp := j.spec
	var dec core.Decision
	done := make(chan struct{})
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		acquireAt := time.Now()
		exch.Acquire(ctx, func() {
			jp.AddDecision(time.Since(acquireAt).Seconds())
			dec = core.PlanDecision(exch.View(), rank, sp.Slaves, sp.Work)
			exch.Commit(ctx, dec.Assignments)
			close(done)
		})
	})
	select {
	case <-done:
	case <-jp.Quit():
		return dec, fmt.Errorf("service: mesh closed during job %d decision", j.id)
	}
	return dec, nil
}

// executeShare runs one received work share: the load lands on the
// SHARED view (asSlave — concurrent jobs observe it), the spin burns
// wall clock off the node goroutine, then the load is removed.
func (s *Server) executeShare(nd *xnet.Node, m workload.DataMsg) {
	var delta core.Load
	delta[core.Workload] = m.Work
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		exch.LocalChange(ctx, delta, true)
	})
	if spin := time.Duration(m.Size * float64(time.Second)); spin > 0 {
		time.Sleep(spin)
	}
	for i := range delta {
		delta[i] = -delta[i]
	}
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		exch.LocalChange(ctx, delta, true)
	})
}
