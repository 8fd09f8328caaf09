package service

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	_ "repro/internal/solver" // register solver-* scenarios
)

func newTestServer(t *testing.T, mech core.Mech, procs int) *Server {
	t.Helper()
	s, err := New(Config{Procs: procs, Mech: mech, MaxConcurrent: 4})
	if err != nil {
		t.Fatalf("New(%s): %v", mech, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSustainedStream is the acceptance criterion: a resident mesh
// serves >= 20 concurrent/back-to-back jobs per mechanism without a
// restart, each job's quiescence decided by its own detector.
func TestSustainedStream(t *testing.T) {
	const jobs = 20
	for _, mech := range []core.Mech{core.MechNaive, core.MechIncrements, core.MechSnapshot} {
		t.Run(string(mech), func(t *testing.T) {
			s := newTestServer(t, mech, 4)
			ids := make([]int32, 0, jobs)
			for i := 0; i < jobs; i++ {
				id, err := s.Submit(JobSpec{Decisions: 3, Work: 60, Slaves: 2, Masters: 2})
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids {
				st, err := s.Result(id, time.Minute)
				if err != nil {
					t.Fatalf("result %d: %v", id, err)
				}
				if st.State != StateDone {
					t.Fatalf("job %d state %s (err %q), want done", id, st.State, st.Err)
				}
				// 3 decisions x 2 slaves: every share executed somewhere.
				if st.Executed != 6 {
					t.Errorf("job %d executed %d shares, want 6", id, st.Executed)
				}
				if st.Counters.DataMsgs != 6 {
					t.Errorf("job %d data messages %d, want 6", id, st.Counters.DataMsgs)
				}
				if st.Makespan <= 0 {
					t.Errorf("job %d makespan %v, want > 0", id, st.Makespan)
				}
			}
			m := s.Metrics()
			if m.Completed != jobs || m.Failed != 0 {
				t.Fatalf("metrics: completed %d failed %d, want %d/0", m.Completed, m.Failed, jobs)
			}
			if m.JobsPerSec <= 0 || m.Makespan.P99 <= 0 || m.Makespan.P99 < m.Makespan.P50 {
				t.Errorf("metrics percentiles inconsistent: jobs/s %v p50 %v p99 %v",
					m.JobsPerSec, m.Makespan.P50, m.Makespan.P99)
			}
			if m.Mesh.StateMsgs == 0 {
				t.Errorf("mesh exchanged no state messages under %s", mech)
			}
		})
	}
}

// TestAppJob hosts the real solver as a service job: its state, data
// and control traffic all travel job-tagged over the resident mesh, and
// under snapshot the rank loops meter the job's snapshot-blocked time.
func TestAppJob(t *testing.T) {
	for _, mech := range []core.Mech{core.MechIncrements, core.MechSnapshot} {
		t.Run(string(mech), func(t *testing.T) {
			s := newTestServer(t, mech, 4)
			id, err := s.Submit(JobSpec{Kind: "app", Scenario: "solver-wl"})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			st, err := s.Result(id, time.Minute)
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			if st.State != StateDone {
				t.Fatalf("state %s (err %q), want done", st.State, st.Err)
			}
			if st.Executed == 0 {
				t.Errorf("solver job executed 0 tasks")
			}
			if st.Counters.StateMsgs == 0 {
				t.Errorf("solver job exchanged no job-scoped state messages")
			}
			if st.Counters.DataMsgs == 0 {
				t.Errorf("solver job sent no data messages")
			}
			if mech == core.MechSnapshot && (st.Counters.BusyTime <= 0 || st.Counters.DecisionLatency <= 0) {
				t.Errorf("snapshot job: busy time %g s, decision latency %g s, want both > 0",
					st.Counters.BusyTime, st.Counters.DecisionLatency)
			}
		})
	}
}

// TestMixedConcurrent runs synthetic and solver jobs simultaneously on
// one mesh.
func TestMixedConcurrent(t *testing.T) {
	s := newTestServer(t, core.MechNaive, 4)
	specs := []JobSpec{
		{Decisions: 4, Work: 80, Slaves: 3},
		{Kind: "app", Scenario: "solver-wl"},
		{Decisions: 2, Work: 40, Slaves: 2},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp JobSpec) {
			defer wg.Done()
			id, err := s.Submit(sp)
			if err != nil {
				errs[i] = err
				return
			}
			st, err := s.Result(id, time.Minute)
			if err != nil {
				errs[i] = err
				return
			}
			if st.State != StateDone {
				errs[i] = fmt.Errorf("job %d state %s: %s", id, st.State, st.Err)
			}
		}(i, sp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

// TestCancel cancels a long job mid-flight: it stops issuing decisions
// and goes terminal as canceled, with in-flight work drained (the
// shared view stays conserved for later jobs).
func TestCancel(t *testing.T) {
	s := newTestServer(t, core.MechNaive, 4)
	id, err := s.Submit(JobSpec{Decisions: 200, Work: 50, Slaves: 2, Spin: 0.02})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st, err := s.Result(id, time.Minute)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	// The mesh still serves jobs after the cancellation.
	id2, err := s.Submit(JobSpec{Decisions: 2, Work: 30, Slaves: 2})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if st, err = s.Result(id2, time.Minute); err != nil || st.State != StateDone {
		t.Fatalf("job after cancel: %v (state %s)", err, st.State)
	}
}

// TestDrain verifies the SIGTERM path: admission stops, queued and
// running jobs finish, the mesh tears down.
func TestDrain(t *testing.T) {
	s := newTestServer(t, core.MechIncrements, 4)
	ids := make([]int32, 0, 6)
	for i := 0; i < 6; i++ {
		id, err := s.Submit(JobSpec{Decisions: 2, Work: 40, Slaves: 2, Spin: 0.005})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	done := make(chan error, 1)
	go func() { done <- s.Drain(time.Minute) }()
	// Admission must fail while draining or after close.
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Submit(JobSpec{}); err == nil {
		t.Errorf("submit during drain succeeded, want refusal")
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		if st.State != StateDone {
			t.Errorf("job %d state %s after drain, want done", id, st.State)
		}
	}
}

// TestQueueBackpressure fills the admission queue past its cap.
func TestQueueBackpressure(t *testing.T) {
	s, err := New(Config{Procs: 2, Mech: core.MechNaive, MaxConcurrent: 1, QueueCap: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	// With one slow job runnable at a time and a queue cap of 2, a
	// burst of 8 submissions cannot all be admitted — where exactly the
	// cap bites depends on scheduler timing, but bite it must.
	admitted, refused := 0, 0
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(JobSpec{Decisions: 4, Work: 40, Slaves: 1, Spin: 0.05}); err != nil {
			refused++
		} else {
			admitted++
		}
	}
	if refused == 0 {
		t.Errorf("queue cap 2 never refused admission across 8 burst submissions")
	}
	if admitted < 2 {
		t.Errorf("only %d of 8 submissions admitted, want at least the queue capacity", admitted)
	}
}

// TestSyntheticRankTreatsSharesBeforeDeciding pins Algorithm 1's order
// on a synthetic job: a rank treats the work shares it has received
// before it takes its next decision. Both ranks of a 2-rank mesh are
// masters with 100 decisions each, and every share spins 5 ms. Another
// decision holds rank 0's node for the first 20 ms, so the ranks do not
// start deciding together: one of them finds the other's shares queued
// while it still has decisions left, treats them — 5 ms each — before
// deciding again, and 60 ms in the job has taken about one rank's 100
// decisions. Ranks that exhaust their decisions before treating data
// would have taken all 200 by then (a view acquisition on the
// increments mechanism costs tens of microseconds).
func TestSyntheticRankTreatsSharesBeforeDeciding(t *testing.T) {
	const decisions = 200
	s := newTestServer(t, core.MechIncrements, 2)
	s.decMu[0].Lock()
	id, err := s.Submit(JobSpec{Decisions: decisions, Work: 20, Slaves: 1, Masters: 2, Spin: 0.005})
	if err != nil {
		s.decMu[0].Unlock()
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	s.decMu[0].Unlock()
	time.Sleep(40 * time.Millisecond)
	if err := s.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st, err := s.Result(id, time.Minute)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state %s (err %q), want canceled", st.State, st.Err)
	}
	if st.Counters.Decisions >= 3*decisions/4 {
		t.Errorf("%d of %d decisions taken 60 ms into the job: rank 0 decided before treating the shares it had received",
			st.Counters.Decisions, decisions)
	}
	if st.Executed != st.Counters.Decisions {
		t.Errorf("executed %d shares of %d decisions × 1 slave", st.Executed, st.Counters.Decisions)
	}
}

// TestJobTableBounded pins the table's bound: a server keeps its queued
// and running jobs and the last keep finished ones, whichever way they
// finished. A long job holds the one run slot while 2×keep jobs are
// canceled in the queue, then keep jobs run to completion; after each
// step the table holds at most keep records beyond the queued and
// running jobs. The oldest ids then read as expired through every
// lookup, in-process and over the API, while ids never issued still
// read as unknown.
func TestJobTableBounded(t *testing.T) {
	s, err := New(Config{Procs: 2, Mech: core.MechNaive, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keep := len(s.retired)
	if keep != minKeep {
		t.Fatalf("keep %d, want %d for the default queue and concurrency caps", keep, minKeep)
	}
	bounded := func(step string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if limit := keep + len(s.queue) + s.running; len(s.jobs) > limit {
			t.Fatalf("%s: %d job records, want at most keep %d + %d queued + %d running",
				step, len(s.jobs), keep, len(s.queue), s.running)
		}
	}
	tiny := JobSpec{Decisions: 1, Work: 10, Slaves: 1, Masters: 1}

	blocker := holdSlot(t, s)
	var first int32
	for i := 0; i < 2*keep; i++ {
		id, err := s.Submit(tiny)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if first == 0 {
			first = id
		}
		if err := s.Cancel(id); err != nil {
			t.Fatalf("cancel %d: %v", id, err)
		}
		bounded(fmt.Sprintf("cancel of queued job %d", id))
	}
	// Only the ring evicts, so the first canceled job's expiry shows
	// that a job canceled in the queue entered it.
	if _, err := s.Status(first); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("status of job %d, canceled in the queue %d cancels ago: %v, want expired", first, 2*keep, err)
	}
	if err := s.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Result(blocker, time.Minute); err != nil || st.State != StateCanceled {
		t.Fatalf("blocker: %v (state %s), want canceled", err, st.State)
	}
	var last int32
	for i := 0; i < keep; i++ {
		id, err := s.Submit(tiny)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st, err := s.Result(id, time.Minute); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %v (state %s)", id, err, st.State)
		}
		bounded(fmt.Sprintf("job %d done", id))
		last = id
	}
	if m := s.Metrics(); m.Retained != keep || m.Queue != 0 || m.Running != 0 {
		t.Fatalf("metrics: %d retained, %d queued, %d running; want %d, 0, 0", m.Retained, m.Queue, m.Running, keep)
	}

	expired := fmt.Sprintf("service: job %d expired: only the last %d finished jobs are kept", blocker, keep)
	if _, err := s.Status(blocker); !errors.Is(err, ErrJobExpired) || err.Error() != expired {
		t.Errorf("status of the oldest job: %v, want %q", err, expired)
	}
	if _, err := s.Result(blocker, time.Second); !errors.Is(err, ErrJobExpired) {
		t.Errorf("result of the oldest job: %v, want expired", err)
	}
	if err := s.Cancel(blocker); !errors.Is(err, ErrJobExpired) {
		t.Errorf("cancel of the oldest job: %v, want expired", err)
	}
	if st, err := s.Status(last - int32(keep) + 1); err != nil || st.State != StateDone {
		t.Errorf("the keep-th newest job: %v (state %s), want kept and done", err, st.State)
	}
	for _, id := range []int32{0, -1, last + 1} {
		if _, err := s.Status(id); errors.Is(err, ErrJobExpired) || err == nil || err.Error() != fmt.Sprintf("service: no job %d", id) {
			t.Errorf("status of never-issued id %d: %v, want no job", id, err)
		}
	}

	// The same text reaches a client over the API.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.Serve(ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, errStatus := c.Status(blocker)
	_, errResult := c.Result(blocker, time.Second)
	errCancel := c.Cancel(blocker)
	for op, err := range map[string]error{OpStatus: errStatus, OpResult: errResult, OpCancel: errCancel} {
		if want := "service: " + op + ": " + expired; err == nil || err.Error() != want {
			t.Errorf("client %s of the oldest job: %v, want %q", op, err, want)
		}
	}
	if _, err := c.Status(last + 1); err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("no job %d", last+1)) {
		t.Errorf("client status of a never-issued id: %v, want no job", err)
	}
}
