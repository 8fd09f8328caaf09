package obs

// The static catalog: every metric and span kind the layer emits, in
// one place. `loadex list` prints it, the README table is generated
// from the same data, and the CI smoke lane greps for names listed
// here — so a rename that misses a call site fails loudly.

// MetricDef describes one catalog metric.
type MetricDef struct {
	Name     string
	Kind     Kind
	Labels   string // comma-separated label names
	Runtimes string // the -obs registries that emit it: net (loadex node), service (loadex serve)
	Help     string
}

// Catalog returns the metric catalog, stable order.
func Catalog() []MetricDef {
	return []MetricDef{
		{"loadex_state_msgs_total", KindCounter, "rank", "net,service", "state-channel messages sent (load information exchange)"},
		{"loadex_state_bytes_total", KindCounter, "rank", "net,service", "state-channel bytes sent"},
		{"loadex_data_msgs_total", KindCounter, "rank", "net,service", "data-channel messages sent (work transfer)"},
		{"loadex_data_bytes_total", KindCounter, "rank", "net,service", "data-channel bytes sent"},
		{"loadex_ctrl_msgs_total", KindCounter, "rank", "net,service", "control-channel messages sent (termination detection)"},
		{"loadex_ctrl_bytes_total", KindCounter, "rank", "net,service", "control-channel bytes sent"},
		{"loadex_decisions_total", KindCounter, "rank", "net,service", "committed dynamic scheduling decisions on the rank's shared exchanger (service synthetic jobs); a hosted App's own decisions count only in its STATS"},
		{"loadex_decision_latency_seconds_total", KindCounter, "rank", "net,service", "summed view-acquire-to-decision latency of loadex_decisions_total"},
		{"loadex_busy_seconds_total", KindCounter, "rank", "net,service", "wall-clock time the exchanger was busy (snapshot rounds in flight)"},
		{"loadex_executed_total", KindCounter, "rank", "net,service", "computes completed: one per work item for program scenarios and synthetic jobs, one per panel for the solver"},
		{"loadex_frames_in_total", KindCounter, "rank", "net,service", "wire frames received"},
		{"loadex_frames_out_total", KindCounter, "rank", "net,service", "wire frames sent"},
		{"loadex_wire_bytes_in_total", KindCounter, "rank", "net,service", "wire bytes received"},
		{"loadex_wire_bytes_out_total", KindCounter, "rank", "net,service", "wire bytes sent"},
		{"loadex_links_up", KindGauge, "rank", "net,service", "peer links currently connected"},
		{"loadex_inbox_depth", KindGauge, "rank", "net,service", "messages queued in the rank's mailbox (control + state + data)"},
		{"loadex_outbox_depth_max", KindGauge, "rank", "net,service", "messages queued on the rank's deepest link outbox"},
		{"loadex_frames_dropped_total", KindCounter, "rank,reason", "net,service", "messages not sent; reason=link_down: posted to a link whose writer had exited"},
		{"loadex_jobs_admitted_total", KindCounter, "", "service", "jobs admitted to the queue"},
		{"loadex_jobs_completed_total", KindCounter, "", "service", "jobs completed successfully"},
		{"loadex_jobs_failed_total", KindCounter, "", "service", "jobs that failed"},
		{"loadex_jobs_canceled_total", KindCounter, "", "service", "jobs canceled"},
		{"loadex_jobs_running", KindGauge, "", "service", "jobs currently running"},
		{"loadex_jobs_queued", KindGauge, "", "service", "jobs waiting in the admission queue"},
		{"loadex_job_makespan_seconds", KindHistogram, "", "service", "per-job submit-to-finish makespan"},
		{"loadex_job_queue_wait_seconds", KindHistogram, "", "service", "per-job admission-queue wait"},
	}
}

// SpanDef describes one decision-span kind recorded in chaos traces.
// The timeline track it draws on is chaos.SpanTrack(Name).
type SpanDef struct {
	Name     string
	Runtimes string
	Help     string
}

// SpanKinds returns the registered span kinds, stable order. The
// "compute" track is synthesized by the reporter from the existing
// start/done compute events rather than span begin/end pairs.
func SpanKinds() []SpanDef {
	return []SpanDef{
		{"decision", "sim,net,service", "whole dynamic decision: view acquire through work transfer"},
		{"decision.acquire", "sim,net,service", "waiting for a coherent view (the paper's decision latency)"},
		{"decision.plan", "sim,net,service", "least-loaded selection and work split"},
		{"decision.transfer", "sim,net,service", "handing assigned work to the selected slaves"},
		{"snapshot.round", "sim,net", "one snapshot round in flight (exchanger busy interval)"},
		{"termdet.idle", "sim,net", "rank passive in the termination detector: from its passivity declaration to the next data receipt or task start"},
		{"job.queued", "service", "job admitted, waiting for a run slot"},
		{"job.run", "service", "job running on the mesh"},
		{"compute", "sim,net", "one compute interval (synthesized from start/done events)"},
	}
}
