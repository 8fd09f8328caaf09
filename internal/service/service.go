// Package service is the multi-tenant scheduler service: one resident
// TCP rank mesh (internal/net) stays up across a stream of jobs, so the
// cost of a load-information mechanism is amortized the way it is in a
// long-lived cluster rather than re-paid per run as in the paper's
// one-shot harness.
//
// The sharing model follows the paper's split between load information
// and work:
//
//   - The load-exchange mechanism (naive / increments / snapshot) runs
//     ONCE per mesh: every node hosts one resident rank of an
//     xnet.Cluster, and the mechanism's state traffic flows continuously
//     on the shared, untagged state channel. Synthetic jobs take their
//     dynamic decisions against that shared view, and the work they
//     execute feeds back into it through LocalChange — concurrent jobs
//     genuinely observe each other's load, which is the measurement the
//     one-shot harness cannot express.
//   - Every job is a workload.App, and everything job-scoped is
//     isolated per job: each rank runs the shared rank loop
//     (workload.Driver) over the job's own port (net.JobPort), with its
//     own termdet.Protocol instance, its own core.Counters and its own
//     data/ctrl (and, for hosted applications, state) streams as
//     job-id-tagged frames multiplexed over the existing per-peer
//     connections.
//
// Admission is a bounded queue under a concurrency cap, both kept under
// the server's lock: a job starts on its Submit or when a running job
// frees a slot. A graceful drain (SIGTERM in `loadex serve`) stops
// admission, lets in-flight and queued jobs finish, then tears the mesh
// down.
package service

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// Config tunes a Server.
type Config struct {
	// Procs is the resident mesh size (number of ranks).
	Procs int
	// Mech is the mesh's load-exchange mechanism — one per mesh, shared
	// by every job for the mesh's lifetime.
	Mech core.Mech
	// Cfg is the mechanism configuration (periods, thresholds).
	Cfg core.Config
	// Term names the termination-detection protocol instantiated per
	// job and rank (empty = termdet.Default; New fills it in).
	Term string
	// MaxConcurrent caps simultaneously running jobs (default 4).
	MaxConcurrent int
	// QueueCap bounds the admission queue (default 64); Submit fails
	// once it is full.
	QueueCap int
	// Rec, when non-nil, receives job lifecycle spans (job.queued from
	// admission to start, job.run from start to terminal state) in the
	// chaos trace schema.
	Rec *chaos.Recorder
}

func (c *Config) normalize() error {
	if c.Procs < 2 {
		return fmt.Errorf("service: mesh needs at least 2 ranks, got %d", c.Procs)
	}
	if !termdet.Valid(c.Term) {
		return fmt.Errorf("service: unknown termination protocol %q", c.Term)
	}
	if c.Term == "" {
		c.Term = termdet.Default
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	return nil
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// minKeep is the fewest finished jobs a Server keeps in its table.
const minKeep = 1024

// ErrJobExpired is returned for a job id that was issued but whose
// finished record has since left the table: a Server keeps its queued
// and running jobs but only its last max(minKeep, QueueCap +
// MaxConcurrent) finished ones, so memory follows the work in flight
// rather than every job ever served.
var ErrJobExpired = errors.New("expired")

// JobSpec describes one submitted job. Kind selects the job's App:
// "synthetic" is the paper's master/slave load program, deciding
// against the mesh's shared view; "app" is a registered application
// scenario (e.g. solver-wl) with its own mechanisms and job-scoped
// state traffic.
type JobSpec struct {
	Kind string `json:"kind"`

	// Synthetic jobs: Decisions dynamic decisions of Work flops each,
	// split over Slaves least-loaded ranks per the shared view, taken
	// round-robin by the first Masters ranks; each work share spins
	// Spin seconds of wall clock on its executing rank.
	Decisions int     `json:"decisions,omitempty"`
	Work      float64 `json:"work,omitempty"`
	Slaves    int     `json:"slaves,omitempty"`
	Masters   int     `json:"masters,omitempty"`
	Spin      float64 `json:"spin,omitempty"`

	// App jobs: the registered application scenario to host, with its
	// workload parameters (Procs is forced to the mesh size).
	Scenario string `json:"scenario,omitempty"`
}

func (sp *JobSpec) normalize(procs int) error {
	switch sp.Kind {
	case "", "synthetic":
		sp.Kind = "synthetic"
		if sp.Decisions <= 0 {
			sp.Decisions = 4
		}
		if sp.Work <= 0 {
			sp.Work = 100
		}
		if sp.Slaves <= 0 {
			sp.Slaves = 2
		}
		if sp.Slaves >= procs {
			sp.Slaves = procs - 1
		}
		if sp.Masters <= 0 || sp.Masters > procs {
			sp.Masters = min(3, procs)
		}
		if sp.Spin < 0 {
			sp.Spin = 0
		}
	case "app":
		if sp.Scenario == "" {
			return fmt.Errorf("service: app job needs a scenario name")
		}
		if _, err := workload.Get(sp.Scenario); err != nil || workload.IsProgramScenario(sp.Scenario) {
			return fmt.Errorf("service: %q is not a registered application scenario", sp.Scenario)
		}
	default:
		return fmt.Errorf("service: unknown job kind %q (synthetic, app)", sp.Kind)
	}
	return nil
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID    int32  `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
	// Submitted/Started/Finished are seconds since the server started
	// (zero when the phase has not been reached).
	Submitted float64 `json:"submitted"`
	Started   float64 `json:"started,omitempty"`
	Finished  float64 `json:"finished,omitempty"`
	// Makespan is Finished-Started for finished jobs, in seconds.
	Makespan float64 `json:"makespan,omitempty"`
	// Executed counts completed work units across ranks.
	Executed int64 `json:"executed,omitempty"`
	// Counters is the job's own (mesh-wide, merged over ranks)
	// measurement share: job data/ctrl/state messages, decisions,
	// acquire latencies.
	Counters core.Counters `json:"counters"`
}

// Metrics is the service-level measurement surface.
type Metrics struct {
	Mech   string  `json:"mech"`
	Term   string  `json:"term"`
	Procs  int     `json:"procs"`
	Uptime float64 `json:"uptime_sec"`

	Admitted  int64 `json:"jobs_admitted"`
	Completed int64 `json:"jobs_completed"`
	Failed    int64 `json:"jobs_failed"`
	Canceled  int64 `json:"jobs_canceled"`
	Running   int   `json:"jobs_running"`
	Queue     int   `json:"queue_depth"`
	Draining  bool  `json:"draining"`
	// Retained counts the job records in the table: queued, running and
	// the last finished ones (see ErrJobExpired).
	Retained int `json:"jobs_retained"`

	// JobsPerSec is completed jobs over uptime.
	JobsPerSec float64 `json:"jobs_per_sec"`

	// Makespan / QueueWait are streaming-histogram digests (count, min,
	// max, mean, p50/p95/p99) over finished jobs' makespans and over
	// admission-to-start queue waits, in seconds.
	Makespan  stats.HistSummary `json:"makespan"`
	QueueWait stats.HistSummary `json:"queue_wait"`

	// Mesh is the resident mesh's own counter total (the shared
	// mechanism's state traffic plus wire-tallied job frames), merged
	// over ranks; Jobs is the per-job counter total merged over every
	// finished job.
	Mesh core.Counters `json:"mesh"`
	Jobs core.Counters `json:"jobs"`
}

// job is the server-side record of one admitted job.
type job struct {
	id   int32
	spec JobSpec

	state     string
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	executed int64
	counters core.Counters

	// cancel is closed by Cancel; synthetic masters stop issuing
	// decisions at the next check, app jobs stop.
	cancel     chan struct{}
	cancelOnce sync.Once
	// doneCh closes when the job reaches a terminal state.
	doneCh chan struct{}

	// sid is the job's open trace span, job.queued and then job.run
	// (only set when the server records).
	sid int64
}

// Server is the scheduler service: a resident mesh plus a job table.
type Server struct {
	cfg   Config
	mesh  *xnet.Cluster
	start time.Time

	mu     sync.Mutex
	nextID int32
	jobs   map[int32]*job
	// retired is a ring of the last len(retired) terminal job ids
	// (0 = empty slot), oldest at nextRetired: a job entering it evicts
	// the oldest from jobs.
	retired     []int32
	nextRetired int
	queue       []*job
	running     int
	draining    bool
	closed      bool
	// idleCh is closed when draining and no job is queued or running.
	idleCh chan struct{}

	admitted, completed, failed, canceled int64
	jobCounters                           core.Counters

	// reg is the server's observability registry: the mesh nodes'
	// per-rank tallies plus the service-level job metrics below. It is
	// what an opt-in /metrics endpoint scrapes.
	reg        *obs.Registry
	makespanH  *obs.Histogram
	queueWaitH *obs.Histogram

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds the resident mesh. Every mesh node's resident rank runs
// the configured mechanism — the shared state channel is live from this
// moment until Close.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		jobs:    make(map[int32]*job),
		retired: make([]int32, max(minKeep, cfg.QueueCap+cfg.MaxConcurrent)),
		idleCh:  make(chan struct{}),
		quit:    make(chan struct{}),
	}
	mesh, err := xnet.NewCluster(cfg.Procs, cfg.Mech, cfg.Cfg, xnet.Options{})
	if err != nil {
		return nil, err
	}
	s.mesh = mesh
	s.registerObs()
	return s, nil
}

// registerObs builds the server's observability registry: every mesh
// node registers its per-rank tallies, and the service adds its
// job-stream metrics (sampled funcs over the job table plus owned
// streaming histograms for makespan and queue wait).
func (s *Server) registerObs() {
	s.reg = obs.NewRegistry()
	for r := range s.cfg.Procs {
		s.mesh.Node(r).RegisterObs(s.reg)
	}
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	s.reg.CounterFunc("loadex_jobs_admitted_total", "jobs admitted to the queue", locked(func() float64 { return float64(s.admitted) }))
	s.reg.CounterFunc("loadex_jobs_completed_total", "jobs finished successfully", locked(func() float64 { return float64(s.completed) }))
	s.reg.CounterFunc("loadex_jobs_failed_total", "jobs finished with an error", locked(func() float64 { return float64(s.failed) }))
	s.reg.CounterFunc("loadex_jobs_canceled_total", "jobs canceled before completion", locked(func() float64 { return float64(s.canceled) }))
	s.reg.GaugeFunc("loadex_jobs_running", "jobs currently running", locked(func() float64 { return float64(s.running) }))
	s.reg.GaugeFunc("loadex_jobs_queued", "jobs waiting in the admission queue", locked(func() float64 { return float64(len(s.queue)) }))
	s.reg.GaugeFunc("loadex_jobs_retained", "job records kept: queued, running and the last finished", locked(func() float64 { return float64(len(s.jobs)) }))
	s.makespanH = s.reg.Histogram("loadex_job_makespan_seconds", "finished jobs' start-to-finish wall time")
	s.queueWaitH = s.reg.Histogram("loadex_job_queue_wait_seconds", "jobs' admission-to-start wait")
}

// Registry exposes the server's observability registry (per-rank node
// tallies plus service job metrics) for an opt-in /metrics endpoint.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Health reports the mesh's /healthz document: one entry per resident
// rank with its peer link states.
func (s *Server) Health() obs.Health {
	h := obs.Health{Procs: s.cfg.Procs, Mech: string(s.cfg.Mech), Term: s.cfg.Term, UptimeS: time.Since(s.start).Seconds()}
	h.Rank = -1 // service-level document, not one rank's
	for r := range s.cfg.Procs {
		nh := s.mesh.Node(r).Health()
		for _, l := range nh.Links {
			if l.State != "up" {
				h.Links = append(h.Links, obs.Link{Peer: l.Peer, State: "down from rank " + strconv.Itoa(nh.Rank)})
			}
		}
	}
	return h
}

// Top samples every resident rank's telemetry snapshot, rank order.
func (s *Server) Top() []xnet.Telemetry {
	out := make([]xnet.Telemetry, 0, s.cfg.Procs)
	for r := range s.cfg.Procs {
		out = append(out, s.mesh.Node(r).Telemetry())
	}
	return out
}

// Submit admits one job to the queue, starting it at once if a run slot
// is free, and returns its id.
func (s *Server) Submit(spec JobSpec) (int32, error) {
	if err := spec.normalize(s.cfg.Procs); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("service: server closed")
	}
	if s.draining {
		return 0, fmt.Errorf("service: draining, not admitting jobs")
	}
	if len(s.queue) >= s.cfg.QueueCap {
		return 0, fmt.Errorf("service: admission queue full (%d jobs)", len(s.queue))
	}
	s.nextID++
	j := &job{
		id:        s.nextID,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		cancel:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.admitted++
	if rec := s.cfg.Rec; rec != nil {
		j.sid = rec.SpanBegin(0, "job.queued", s.sinceStart())
	}
	s.admitLocked()
	return j.id, nil
}

// sinceStart is the span timestamp base: seconds since the server came
// up, matching JobStatus's Submitted/Started/Finished epoch.
func (s *Server) sinceStart() float64 { return time.Since(s.start).Seconds() }

// admitLocked starts queued jobs while a run slot is free, and closes
// idleCh once a draining server has no job queued or running. Every
// event that can change either — a submission, a job's end, a cancel in
// the queue, the start of a drain — calls it under mu.
func (s *Server) admitLocked() {
	for !s.closed && s.running < s.cfg.MaxConcurrent && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue[0] = nil // the backing array must not keep it alive
		s.queue = s.queue[1:]
		j.state = StateRunning
		j.started = time.Now()
		s.queueWaitH.Observe(j.started.Sub(j.submitted).Seconds())
		if rec := s.cfg.Rec; rec != nil {
			now := s.sinceStart()
			rec.SpanEnd(0, "job.queued", j.sid, now)
			j.sid = rec.SpanBegin(0, "job.run", now)
		}
		s.running++
		s.wg.Add(1)
		go s.runJob(j)
	}
	if s.draining && s.running == 0 && len(s.queue) == 0 && !isClosed(s.idleCh) {
		close(s.idleCh)
	}
}

// runJob executes one admitted job, makes it terminal and hands its run
// slot to the next queued job.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	err := s.host(j)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(j, err)
	s.admitLocked()
}

// finishLocked makes a queued or running job terminal: failed if err is
// set, else canceled if Cancel was called, else done. It frees the job's
// queue entry or run slot, ends its open span, folds its counters into
// the server's and enters it into the retired ring.
func (s *Server) finishLocked(j *job, err error) {
	span := "job.run"
	if j.state == StateQueued {
		span = "job.queued"
		s.queue = slices.DeleteFunc(s.queue, func(q *job) bool { return q == j })
	} else {
		s.running--
	}
	j.finished = time.Now()
	switch {
	case err != nil:
		j.state, j.err = StateFailed, err
		s.failed++
	case isClosed(j.cancel):
		j.state = StateCanceled
		s.canceled++
	default:
		j.state = StateDone
		s.completed++
		s.makespanH.Observe(j.finished.Sub(j.started).Seconds())
	}
	if rec := s.cfg.Rec; rec != nil {
		rec.SpanEnd(0, span, j.sid, s.sinceStart())
	}
	s.jobCounters.Merge(j.counters)
	s.retireLocked(j.id)
	close(j.doneCh)
}

// isClosed reports whether ch is closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// retireLocked enters a terminal job into the retired ring; once the
// ring is full, the oldest terminal job leaves the table.
func (s *Server) retireLocked(id int32) {
	if old := s.retired[s.nextRetired]; old != 0 {
		delete(s.jobs, old)
	}
	s.retired[s.nextRetired] = id
	s.nextRetired = (s.nextRetired + 1) % len(s.retired)
}

// lookupLocked returns job id's record, or why there is none: an id
// never issued, or one whose finished record was evicted.
func (s *Server) lookupLocked(id int32) (*job, error) {
	if j := s.jobs[id]; j != nil {
		return j, nil
	}
	if id > 0 && id <= s.nextID {
		return nil, fmt.Errorf("service: job %d %w: only the last %d finished jobs are kept", id, ErrJobExpired, len(s.retired))
	}
	return nil, fmt.Errorf("service: no job %d", id)
}

// Status returns the job's current externally visible state.
func (s *Server) Status(id int32) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	return s.statusLocked(j), nil
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Kind:      j.spec.Kind,
		State:     j.state,
		Submitted: j.submitted.Sub(s.start).Seconds(),
		Executed:  j.executed,
		Counters:  j.counters,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	if !j.started.IsZero() {
		st.Started = j.started.Sub(s.start).Seconds()
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Sub(s.start).Seconds()
		st.Makespan = j.finished.Sub(j.started).Seconds()
	}
	return st
}

// Result blocks until the job reaches a terminal state, then returns
// it. The wait is bounded by timeout (0 = no bound beyond server
// shutdown); a job already terminal is returned even after Drain or
// Close.
func (s *Server) Result(id int32, timeout time.Duration) (JobStatus, error) {
	s.mu.Lock()
	j, err := s.lookupLocked(id)
	s.mu.Unlock()
	if err != nil {
		return JobStatus{}, err
	}
	var bound <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		bound = t.C
	}
	select {
	case <-j.doneCh:
	case <-bound:
		return JobStatus{}, fmt.Errorf("service: job %d not finished after %s", id, timeout)
	case <-s.quit:
		if !isClosed(j.doneCh) {
			return JobStatus{}, fmt.Errorf("service: server closing")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j), nil
}

// Cancel requests job cancellation: a queued job leaves the queue and
// goes terminal immediately, a running synthetic job stops issuing
// decisions at its next check (in-flight work still drains so the
// shared view stays conserved), and a running app job's ranks stop at
// once. Either way the job ends canceled.
func (s *Server) Cancel(id int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return err
	}
	j.cancelOnce.Do(func() { close(j.cancel) })
	if j.state == StateQueued {
		s.finishLocked(j, nil)
		s.admitLocked()
	}
	return nil
}

// Metrics samples the service-level measurement surface.
func (s *Server) Metrics() Metrics {
	mesh := core.Counters{}
	for r := range s.cfg.Procs {
		mesh.Merge(s.mesh.Counters(r))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Mech:      string(s.cfg.Mech),
		Term:      s.cfg.Term,
		Procs:     s.cfg.Procs,
		Uptime:    time.Since(s.start).Seconds(),
		Admitted:  s.admitted,
		Completed: s.completed,
		Failed:    s.failed,
		Canceled:  s.canceled,
		Running:   s.running,
		Queue:     len(s.queue),
		Draining:  s.draining,
		Retained:  len(s.jobs),
		Mesh:      mesh,
		Jobs:      s.jobCounters,
	}
	if m.Uptime > 0 {
		m.JobsPerSec = float64(s.completed) / m.Uptime
	}
	m.Makespan = s.makespanH.Snapshot().Summary()
	m.QueueWait = s.queueWaitH.Snapshot().Summary()
	return m
}

// Drain stops admission, waits (bounded by timeout) for queued and
// running jobs to finish, then tears the mesh down. It is the SIGTERM
// path of `loadex serve`.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.admitLocked()
	s.mu.Unlock()
	var bound <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		bound = t.C
	}
	select {
	case <-s.idleCh:
	case <-bound:
		s.Close()
		return fmt.Errorf("service: drain incomplete after %s", timeout)
	}
	return s.Close()
}

// Close tears the service down: no queued job starts any more, running
// job drivers observe the mesh quit channel, the mesh closes gracefully.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.mesh.Stop()
	s.wg.Wait()
	return nil
}
