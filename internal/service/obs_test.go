package service

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestJobCountersMatchRegistry is the per-job accounting cross-check:
// over a multi-job run, the sum of each finished job's own counters
// (the JobPort view) must equal the service's merged job total, and the
// observability registry's service-level series must agree with the
// Metrics surface — two independent paths over the same run.
func TestJobCountersMatchRegistry(t *testing.T) {
	const jobs = 8
	s := newTestServer(t, core.MechIncrements, 4)
	ids := make([]int32, 0, jobs)
	for i := 0; i < jobs; i++ {
		id, err := s.Submit(JobSpec{Decisions: 2, Work: 50, Slaves: 2, Masters: 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	var perJob core.Counters
	var makespans []float64 // the samples the digest below was fed
	for _, id := range ids {
		st, err := s.Result(id, time.Minute)
		if err != nil {
			t.Fatalf("result %d: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d state %s (err %q)", id, st.State, st.Err)
		}
		perJob.Merge(st.Counters)
		makespans = append(makespans, st.Makespan)
	}
	m := s.Metrics()
	if m.Jobs.DataMsgs != perJob.DataMsgs || m.Jobs.DataBytes != perJob.DataBytes {
		t.Errorf("merged job data traffic %d msgs/%g bytes, per-job sum %d/%g",
			m.Jobs.DataMsgs, m.Jobs.DataBytes, perJob.DataMsgs, perJob.DataBytes)
	}
	if m.Jobs.CtrlMsgs != perJob.CtrlMsgs || m.Jobs.Decisions != perJob.Decisions {
		t.Errorf("merged job ctrl/decisions %d/%d, per-job sum %d/%d",
			m.Jobs.CtrlMsgs, m.Jobs.Decisions, perJob.CtrlMsgs, perJob.Decisions)
	}

	// Registry view: the same totals through the scrape path.
	vals := map[string]float64{}
	var makespanCount, queueWaitCount int64
	for _, smp := range s.Registry().Gather() {
		switch smp.Name {
		case "loadex_jobs_admitted_total", "loadex_jobs_completed_total",
			"loadex_jobs_failed_total", "loadex_jobs_running", "loadex_jobs_queued",
			"loadex_jobs_retained":
			vals[smp.Name] = smp.Value
		case "loadex_job_makespan_seconds":
			makespanCount = smp.Hist.Count()
		case "loadex_job_queue_wait_seconds":
			queueWaitCount = smp.Hist.Count()
		}
	}
	if vals["loadex_jobs_admitted_total"] != jobs || vals["loadex_jobs_completed_total"] != float64(m.Completed) {
		t.Errorf("registry admitted/completed %g/%g, metrics %d/%d",
			vals["loadex_jobs_admitted_total"], vals["loadex_jobs_completed_total"], m.Admitted, m.Completed)
	}
	if vals["loadex_jobs_running"] != 0 || vals["loadex_jobs_queued"] != 0 {
		t.Errorf("registry shows %g running / %g queued after all results collected",
			vals["loadex_jobs_running"], vals["loadex_jobs_queued"])
	}
	// Fewer jobs than the table keeps: every record is still there.
	if vals["loadex_jobs_retained"] != jobs || m.Retained != jobs {
		t.Errorf("registry retains %g job records, metrics %d, want %d", vals["loadex_jobs_retained"], m.Retained, jobs)
	}
	if makespanCount != int64(m.Completed) {
		t.Errorf("makespan histogram holds %d samples, %d jobs completed", makespanCount, m.Completed)
	}
	if queueWaitCount != jobs {
		t.Errorf("queue-wait histogram holds %d samples, %d jobs started", queueWaitCount, jobs)
	}

	// The histogram digest surfaced by the metrics API holds exactly the
	// recorded makespans: same count, same envelope, and a p50 that is
	// some recorded sample to within the log-linear buckets' relative
	// width (1/8). Eight wall-clock samples are often bimodal, so which
	// sample the median lands on is not pinned — a second estimator
	// would legitimately pick the other mode.
	if m.Makespan.Count != int64(len(makespans)) || len(makespans) != int(m.Completed) {
		t.Errorf("metrics makespan digest count %d, %d samples recorded, %d jobs completed",
			m.Makespan.Count, len(makespans), m.Completed)
	}
	if m.QueueWait.Count != jobs {
		t.Errorf("metrics queue-wait digest count %d, want %d", m.QueueWait.Count, jobs)
	}
	if lo, hi := slices.Min(makespans), slices.Max(makespans); m.Makespan.Min != lo || m.Makespan.Max != hi {
		t.Errorf("digest envelope [%g, %g], recorded samples span [%g, %g]", m.Makespan.Min, m.Makespan.Max, lo, hi)
	}
	if m.Makespan.P50 < m.Makespan.Min || m.Makespan.P99 < m.Makespan.P50 || m.Makespan.P99 > m.Makespan.Max {
		t.Errorf("digest quantiles out of order or outside [min,max]: %+v", m.Makespan)
	}
	if !slices.ContainsFunc(makespans, func(x float64) bool { return math.Abs(m.Makespan.P50-x) <= x/8 }) {
		t.Errorf("digest p50 %g is within 1/8 of no recorded makespan %v", m.Makespan.P50, makespans)
	}
}

// TestTopCountsSyntheticJob: a synthetic job's decisions and executed
// shares reach the per-rank tallies that `loadex top` (Server.Top) and
// /metrics (the registry) read, summing to the job's own counts.
func TestTopCountsSyntheticJob(t *testing.T) {
	const decisions = 5
	s := newTestServer(t, core.MechSnapshot, 4)
	id, err := s.Submit(JobSpec{Decisions: decisions, Work: 60, Slaves: 2, Masters: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Result(id, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job state %s (err %q)", st.State, st.Err)
	}
	var dec, executed int64
	var lat float64
	for _, r := range s.Top() {
		dec += r.Decisions
		executed += r.Executed
		lat += r.DecisionLatencyS
	}
	if dec != decisions || dec != st.Counters.Decisions {
		t.Errorf("top sums %d decisions, job took %d (counters %d)", dec, decisions, st.Counters.Decisions)
	}
	if executed != st.Executed || executed == 0 {
		t.Errorf("top sums %d executed, job executed %d", executed, st.Executed)
	}
	if lat <= 0 {
		t.Errorf("top sums decision latency %g, want > 0", lat)
	}
	scraped := map[string]float64{}
	for _, smp := range s.Registry().Gather() {
		scraped[smp.Name] += smp.Value
	}
	if scraped["loadex_decisions_total"] != float64(dec) || scraped["loadex_executed_total"] != float64(executed) {
		t.Errorf("registry sums %g decisions / %g executed, top %d / %d",
			scraped["loadex_decisions_total"], scraped["loadex_executed_total"], dec, executed)
	}
}

// TestServiceJobSpans: with a recorder configured, every job leaves a
// balanced job.queued -> job.run span pair that the trace validator
// accepts.
func TestServiceJobSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.jsonl")
	rec, err := chaos.OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Procs: 4, Mech: core.MechIncrements, MaxConcurrent: 2, Rec: rec})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	const jobs = 4
	for i := 0; i < jobs; i++ {
		id, err := s.Submit(JobSpec{Decisions: 2, Work: 40, Slaves: 2, Masters: 2})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st, err := s.Result(id, time.Minute); err != nil || st.State != StateDone {
			t.Fatalf("result: %v (state %v)", err, st.State)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := chaos.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var begins, ends, queued, run int
	for _, ev := range evs {
		switch ev.Ev {
		case chaos.EvSpanBegin:
			begins++
			if ev.Span == "job.queued" {
				queued++
			}
		case chaos.EvSpanEnd:
			ends++
			if ev.Span == "job.run" {
				run++
			}
		}
	}
	if begins != ends || queued != jobs || run != jobs {
		t.Fatalf("spans unbalanced: %d begins / %d ends, %d queued / %d run (want %d each)",
			begins, ends, queued, run, jobs)
	}
}

// TestRegistryMatchesCatalog: a live Server's registry, resident nodes
// and job series together, emits exactly the metrics obs.Catalog lists,
// with the catalog's kinds and label names, so `loadex list` and the
// README cannot drift from what a scrape returns. The job-table gauge
// starts at zero.
func TestRegistryMatchesCatalog(t *testing.T) {
	type def struct {
		kind   obs.Kind
		labels string
	}
	want := map[string]def{}
	for _, m := range obs.Catalog() {
		want[m.Name] = def{m.Kind, m.Labels}
	}
	got := map[string]def{}
	for _, smp := range newTestServer(t, core.MechIncrements, 2).Registry().Gather() {
		if smp.Name == "loadex_jobs_retained" && smp.Value != 0 {
			t.Errorf("a server that admitted nothing retains %g job records", smp.Value)
		}
		var names []string
		for _, l := range smp.Labels {
			names = append(names, l.Name)
		}
		d := def{smp.Kind, strings.Join(names, ",")}
		if prev, ok := got[smp.Name]; ok && prev != d {
			t.Errorf("%s registered as %v and as %v", smp.Name, prev, d)
		}
		got[smp.Name] = d
	}
	for name, d := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("catalog metric %s is not emitted", name)
		} else if g != d {
			t.Errorf("%s: emitted as %v, catalog says %v", name, g, d)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("emitted metric %s is not in the catalog", name)
		}
	}
}
