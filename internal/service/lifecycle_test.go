package service

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// foreverScenario is an application scenario that never finishes: rank
// 0 always has another 1 ms task, so its detector never sees the job
// quiesce. Only Cancel or Close ends it.
type foreverScenario struct{}

func (foreverScenario) Name() string     { return "test-forever" }
func (foreverScenario) Describe() string { return "rank 0 computes for ever (service tests)" }
func (foreverScenario) NewApp(core.Mech, core.Config, workload.Params) (workload.App, workload.AppRunOptions, error) {
	return &foreverApp{}, workload.AppRunOptions{}, nil
}

func init() { workload.Register(foreverScenario{}) }

type foreverApp struct{ host workload.AppHost }

func (a *foreverApp) Attach(h workload.AppHost) error       { a.host = h; return nil }
func (a *foreverApp) HandleState(int, int, int, any)        {}
func (a *foreverApp) HandleData(int, int, workload.DataMsg) {}
func (a *foreverApp) Blocked(int) bool                      { return false }
func (a *foreverApp) Done() bool                            { return false }
func (a *foreverApp) Outcome(*workload.AppReport) workload.AppOutcome {
	return workload.AppOutcome{}
}

func (a *foreverApp) TryStart(rank int) bool {
	if rank != 0 {
		return false
	}
	a.host.Compute(0, 0.001, func() {})
	return true
}

// startForever submits a test-forever job and waits until it runs.
func startForever(t *testing.T, s *Server) int32 {
	t.Helper()
	id, err := s.Submit(JobSpec{Kind: "app", Scenario: "test-forever"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Status(id); st.State == StateRunning {
			return id
		} else if time.Now().After(deadline) {
			t.Fatalf("job %d still %s after a minute", id, st.State)
		}
	}
}

// TestCancelStopsRunningAppJob: Cancel stops a running app job's ranks.
// The job ends canceled, not failed, and its ports are gone from every
// rank, so its id registers again.
func TestCancelStopsRunningAppJob(t *testing.T) {
	s := newTestServer(t, core.MechIncrements, 2)
	id := startForever(t, s)
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := s.Result(id, 5*time.Second)
	if err != nil {
		t.Fatalf("result after cancel: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state %s (err %q), want canceled", st.State, st.Err)
	}
	for r := range s.cfg.Procs {
		if _, err := s.mesh.Node(r).RegisterJob(id); err != nil {
			t.Fatalf("rank %d still holds the canceled job's port: %v", r, err)
		}
		s.mesh.Node(r).UnregisterJob(id)
	}
}

// TestCloseLeaksNoGoroutine: a server that ran synthetic jobs, app jobs
// and one app job canceled while running leaves no goroutine behind
// once Close returns — mesh readers and writers, resident ranks, job
// drivers and timers all end.
func TestCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := New(Config{Procs: 4, Mech: core.MechIncrements, MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	canceled := startForever(t, s)
	var ids []int32
	for _, spec := range []JobSpec{
		{Decisions: 3, Work: 60, Slaves: 2},
		{Kind: "app", Scenario: "solver-wl"},
		{Decisions: 2, Work: 40, Slaves: 3, Spin: 0.001},
	} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st, err := s.Result(id, time.Minute); err != nil || st.State != StateDone {
			t.Fatalf("job %d: %v (state %s, err %q)", id, err, st.State, st.Err)
		}
	}
	if err := s.Cancel(canceled); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Result(canceled, 5*time.Second); err != nil || st.State != StateCanceled {
		t.Fatalf("canceled job: %v (state %s)", err, st.State)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
