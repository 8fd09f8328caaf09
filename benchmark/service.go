package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/termdet"
)

// service-stream: a resident 4-rank increments mesh behind the JSON API,
// svcClients connections in closed loop, each submitting svcJobs
// synthetic jobs per round and waiting for every Result.
const (
	svcProcs   = 4
	svcClients = 2
	svcJobs    = 2000 // per client per round
)

type serviceBench struct {
	e    *env
	jobs int
	// work[c][j] is the work of client c's j-th job of a round.
	work [][]float64

	srv     *service.Server
	ln      net.Listener
	served  chan error
	clients []*service.Client
	newS    []float64 // service.New time of each set-up

	rounds             int
	wallS              float64
	submitted, refused int64
	warmJobs           int64 // set-up's share of submitted
	submitMS, resultMS []float64
	jobMS              []float64
	baseState          int64
}

func newService(e *env) bench {
	return &serviceBench{e: e, jobs: e.scaled(svcJobs, 20)}
}

func svcConfig(term string) service.Config {
	return service.Config{Procs: svcProcs, Mech: core.MechIncrements, Term: term, MaxConcurrent: 2}
}

func (b *serviceBench) spec(c, j int) service.JobSpec {
	return service.JobSpec{Kind: "synthetic", Decisions: 4, Slaves: 2, Work: b.work[c][j]}
}

// setup draws the jobs' work from the seed, starts the server behind a
// loopback listener and connects the clients.
func (b *serviceBench) setup() error {
	rng := sim.NewRNG(b.e.seed ^ 0x737663)
	b.work = make([][]float64, svcClients)
	for c := range b.work {
		for j := 0; j < b.jobs; j++ {
			b.work[c] = append(b.work[c], rng.Range(60, 180))
		}
	}
	t0 := time.Now()
	srv, err := service.New(svcConfig(termdet.ProtocolDS))
	b.newS = append(b.newS, time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	b.srv = srv
	if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	b.served = make(chan error, 1) // Serve's one result
	go func(ln net.Listener) { b.served <- srv.Serve(ln) }(b.ln)
	for c := 0; c < svcClients; c++ {
		cl, err := service.Dial(b.ln.Addr().String())
		if err != nil {
			return err
		}
		b.clients = append(b.clients, cl)
	}
	// A few jobs before anything is timed: connections, buffers and the
	// mesh's pools are warm when the first round starts.
	out, err := b.stream(nil, b.apiClients(), b.e.scaled(100, 5), false)
	b.submitted = int64(out.attempted)
	b.warmJobs = b.submitted
	b.baseState = srv.Metrics().Mesh.StateMsgs
	return err
}

func (b *serviceBench) apiClients() []submitter {
	subs := make([]submitter, len(b.clients))
	for c, cl := range b.clients {
		subs[c] = apiClient{cl}
	}
	return subs
}

func (b *serviceBench) stop() {
	for _, cl := range b.clients {
		_ = cl.Close() // nothing in flight; the server sees EOF
	}
	b.clients = nil
	if b.srv != nil {
		_ = b.srv.Close() // Close only reports nil
		b.srv = nil
	}
	if b.ln != nil {
		_ = b.ln.Close() // ends Serve
		<-b.served
		b.ln = nil
	}
}

// submitter is the part of the API a closed-loop client uses; the
// server itself and a connection to it both have it.
type submitter interface {
	submit(service.JobSpec) (int32, error)
	result(int32) (string, error)
}

type apiClient struct{ c *service.Client }

func (a apiClient) submit(sp service.JobSpec) (int32, error) { return a.c.Submit(sp) }
func (a apiClient) result(id int32) (string, error) {
	st, err := a.c.Result(id, opDeadline)
	if err != nil {
		return "", err
	}
	return st.State, nil
}

type inproc struct{ s *service.Server }

func (p inproc) submit(sp service.JobSpec) (int32, error) { return p.s.Submit(sp) }
func (p inproc) result(id int32) (string, error) {
	st, err := p.s.Result(id, opDeadline)
	return st.State, err
}

// stream runs jobs jobs through each of subs, one closed loop each, and
// returns per-job latencies and the wall time.
func (b *serviceBench) stream(tr *tracer, subs []submitter, jobs int, timeAPI bool) (out roundOut, err error) {
	out.attempted = len(subs) * jobs
	type clientOut struct {
		lat, sub, res []float64
		failed        int
		refused       int64
		err           error
	}
	outs := make([]clientOut, len(subs))
	t0 := time.Now()
	err = b.e.guard("service round", func() error {
		var wg sync.WaitGroup
		for c, sub := range subs {
			wg.Add(1)
			go func(c int, sub submitter, o *clientOut) {
				defer wg.Done()
				for j := 0; j < jobs; j++ {
					root := tr.begin("job", 0, (b.rounds*len(subs)+c)*jobs+j, c+1)
					s := tr.begin("service.api.submit", root, 0, c+1)
					t0 := time.Now()
					id, err := sub.submit(b.spec(c, j))
					t1 := time.Now()
					tr.end(s)
					if err != nil {
						o.refused++
						o.failed++
						o.err = err
						tr.end(root)
						continue
					}
					s = tr.begin("service.api.result", root, 0, c+1)
					state, err := sub.result(id)
					t2 := time.Now()
					tr.end(s)
					tr.end(root)
					if err != nil || state != service.StateDone {
						o.failed++
						o.err = fmt.Errorf("job %d ended %q: %v", id, state, err)
						continue
					}
					o.lat = append(o.lat, t2.Sub(t0).Seconds())
					if timeAPI {
						o.sub = append(o.sub, t1.Sub(t0).Seconds()*1e3)
						o.res = append(o.res, t2.Sub(t1).Seconds()*1e3)
					}
				}
			}(c, sub, &outs[c])
		}
		wg.Wait()
		return nil
	})
	out.parts = []float64{time.Since(t0).Seconds()}
	if err != nil {
		out.failed = out.attempted
		return out, err
	}
	for _, o := range outs {
		out.lat = append(out.lat, o.lat...)
		out.failed += o.failed
		if timeAPI {
			b.refused += o.refused
			b.submitMS = append(b.submitMS, o.sub...)
			for _, l := range o.lat {
				b.jobMS = append(b.jobMS, l*1e3)
			}
			b.resultMS = append(b.resultMS, o.res...)
		}
		if o.err != nil {
			err = o.err
		}
	}
	out.work = float64(len(out.lat))
	return out, err
}

func (b *serviceBench) round(tr *tracer) (roundOut, error) {
	out, err := b.stream(tr, b.apiClients(), b.jobs, true)
	if err != nil {
		return out, err
	}
	b.rounds++
	b.wallS += out.parts[0]
	b.submitted += int64(out.attempted)
	state := b.srv.Metrics().Mesh.StateMsgs
	out.stateMsgs = float64(state - b.baseState)
	b.baseState = state
	return out, nil
}

func (b *serviceBench) check() error {
	m := b.srv.Metrics()
	if m.Completed != b.submitted || m.Failed != 0 || m.Canceled != 0 {
		return fmt.Errorf("submitted %d jobs, the server completed %d, failed %d, canceled %d", b.submitted, m.Completed, m.Failed, m.Canceled)
	}
	return nil
}

func (b *serviceBench) layers(tr *tracer, m metrics) error {
	sm := b.srv.Metrics()
	jobs := float64(sm.Completed)
	m["service.jobs_per_s"] = float64(sm.Completed-b.warmJobs) / b.wallS
	m["service.job_ms_p99"] = quantile(b.jobMS, 0.99)
	m["service.api.submit_ms_p50"] = quantile(b.submitMS, 0.5)
	m["service.api.submit_ms_p99"] = quantile(b.submitMS, 0.99)
	m["service.api.result_ms_p50"] = quantile(b.resultMS, 0.5)
	m["service.api.result_ms_p99"] = quantile(b.resultMS, 0.99)
	m["service.queue_wait_ms_p50"] = sm.QueueWait.P50 * 1e3
	m["service.queue_wait_ms_p99"] = sm.QueueWait.P99 * 1e3
	m["service.makespan_ms_p50"] = sm.Makespan.P50 * 1e3
	m["service.makespan_ms_p99"] = sm.Makespan.P99 * 1e3
	m["service.decisions_per_job"] = float64(sm.Jobs.Decisions) / jobs
	m["service.state_msgs_per_job"] = float64(sm.Mesh.StateMsgs) / jobs
	m["service.data_msgs_per_job"] = float64(sm.Jobs.DataMsgs) / jobs
	m["service.refused"] = float64(b.refused)
	m["termdet.ds.ctrl_msgs_per_job"] = float64(sm.Jobs.CtrlMsgs) / jobs
	m["termdet.ds.ctrl_bytes_per_job"] = sm.Jobs.CtrlBytes / jobs
	m["service.setup.new_s"] = median(b.newS)

	// The same stream without the API, on the resident mesh and then on
	// a second mesh whose jobs end by Safra's detector.
	direct := func(srv *service.Server) (float64, error) {
		subs := make([]submitter, svcClients)
		for c := range subs {
			subs[c] = inproc{srv}
		}
		out, err := b.stream(nil, subs, b.jobs, false)
		return out.work / out.parts[0], err
	}
	rate, err := direct(b.srv)
	if err != nil {
		return err
	}
	m["service.inproc.jobs_per_s"] = rate
	m["service.api_overhead_share"] = 1 - m["service.jobs_per_s"]/rate

	safra, err := service.New(svcConfig(termdet.ProtocolSafra))
	if err != nil {
		return err
	}
	defer safra.Close()
	if rate, err = direct(safra); err != nil {
		return err
	}
	ssm := safra.Metrics()
	m["termdet.safra.jobs_per_s"] = rate
	m["termdet.safra.ctrl_msgs_per_job"] = float64(ssm.Jobs.CtrlMsgs) / float64(ssm.Completed)
	m["termdet.safra.ctrl_bytes_per_job"] = ssm.Jobs.CtrlBytes / float64(ssm.Completed)
	return nil
}
