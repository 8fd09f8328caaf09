package main

import "sort"

// workloadDef names one workload; why is the one line BENCHMARK.json
// carries.
type workloadDef struct {
	why string
	new func(*env) bench
	// stopMetric is the per-layer metric that takes the time stop took
	// ("" = not reported).
	stopMetric string
}

var workloads = map[string]workloadDef{
	"tables": {
		why: "the paper's Tables 4-6 from a cold Lab: sparse, ordering, symbolic, tree and mapping do most of the work and sim little",
		new: newTables,
	},
	"sim-scale": {
		why: "solver-wl simulated at 1024 and 2048 ranks under three mechanisms: sim engine, network and core handlers do the work, analysis none",
		new: newSimScale,
	},
	"net-pull": {
		why:        "4 ranks on loopback TCP running snapshot under a seeded script: every state frame is caused by a decision, so core/snapshot.go, election and the round trip dominate",
		new:        newNetPull,
		stopMetric: "net.stop_s",
	},
	"service-stream": {
		why:        "2 closed-loop clients stream synthetic jobs at loadex serve's API on a resident 4-rank mesh: admission queue, jobmux, per-job termdet and JSON do the work, exchange traffic little",
		new:        newService,
		stopMetric: "service.stop_s",
	},
	"net-push": {
		why:        "the same script and mesh running increments: state frames are caused by load changes and Decide is local, so a gain for one style that costs the other shows",
		new:        newNetPush,
		stopMetric: "net.stop_s",
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it is a regression.
	bound float64
}

// endToEnd is what a user of the system sees; every workload reports
// every one with tracing off. What "work" and "op" mean per workload is
// in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"state_msgs_per_work", "count", "lower", 0.02},
}

// perLayer is what a traced run reports, named layer first (the module
// under internal/). A layer the workload does not use reports 0.
// README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// tables -> wall_s
	{name: "sparse.generate_s", unit: "s", better: "lower"},
	{name: "ordering.order_s", unit: "s", better: "lower"},
	{name: "symbolic.analyze_s", unit: "s", better: "lower"},
	{name: "tree.build_split_s", unit: "s", better: "lower"},
	{name: "mapping.map_s", unit: "s", better: "lower"},
	{name: "solver.run_s", unit: "s", better: "lower"},
	{name: "symbolic.factor_nnz", unit: "count", better: "lower"},
	{name: "mapping.decisions", unit: "count", better: "lower"},
	{name: "solver.sim_events", unit: "count", better: "lower"},
	{name: "experiments.unattributed_share", unit: "share", better: "lower"},
	// sim-scale -> wall_s, work_per_s
	{name: "sim.engine.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.host_ns_per_event.p1024", unit: "ns", better: "lower"},
	{name: "sim.host_ns_per_event.p2048", unit: "ns", better: "lower"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "sim.makespan_s", unit: "s", better: "lower"},
	{name: "sim.wall_s.increments", unit: "s", better: "lower"},
	{name: "sim.wall_s.snapshot", unit: "s", better: "lower"},
	{name: "sim.wall_s.naive", unit: "s", better: "lower"},
	{name: "sim.events.increments", unit: "count", better: "lower"},
	{name: "sim.events.snapshot", unit: "count", better: "lower"},
	{name: "sim.events.naive", unit: "count", better: "lower"},
	{name: "solver.new_app_s", unit: "s", better: "lower"},
	{name: "sim.run_app_s", unit: "s", better: "lower"},
	{name: "core.state_msgs.increments", unit: "count", better: "lower"},
	{name: "core.state_msgs.snapshot", unit: "count", better: "lower"},
	{name: "core.state_msgs.naive", unit: "count", better: "lower"},
	{name: "core.state_bytes.increments", unit: "B", better: "lower"},
	{name: "core.state_bytes.snapshot", unit: "B", better: "lower"},
	{name: "core.state_bytes.naive", unit: "B", better: "lower"},
	{name: "core.select.plan_ns.k1", unit: "ns", better: "lower"},
	{name: "core.select.plan_ns.k3", unit: "ns", better: "lower"},
	{name: "core.handle_ns.increments", unit: "ns", better: "lower"},
	{name: "core.handle_ns.snapshot", unit: "ns", better: "lower"},
	{name: "core.handle_ns.naive", unit: "ns", better: "lower"},
	{name: "core.local_change_ns.increments", unit: "ns", better: "lower"},
	{name: "core.local_change_ns.naive", unit: "ns", better: "lower"},
	// sim-scale, net-pull, net-push
	{name: "core.snapshot.rounds", unit: "count", better: "lower"},
	{name: "core.snapshot.restarts", unit: "count", better: "lower"},
	// net-pull, net-push -> work_per_s, op_p50_us, op_p95_us
	{name: "net.decisions_per_s", unit: "1/s", better: "higher"},
	{name: "net.decide.p99_us", unit: "us", better: "lower"},
	{name: "net.decide.call_s", unit: "s", better: "lower"},
	{name: "net.decide.acquire_s", unit: "s", better: "lower"},
	{name: "net.local_change.call_ns", unit: "ns", better: "lower"},
	{name: "net.drain_s", unit: "s", better: "lower"},
	{name: "net.settle_s", unit: "s", better: "lower"},
	{name: "net.idle_snapshot_round_us", unit: "us", better: "lower"},
	{name: "net.frames_in", unit: "count", better: "lower"},
	{name: "net.wire_bytes_in", unit: "B", better: "lower"},
	{name: "net.frames_per_s", unit: "1/s", better: "higher"},
	{name: "net.frames_per_decision", unit: "count", better: "lower"},
	{name: "net.bytes_per_frame", unit: "B", better: "lower"},
	{name: "net.codec.encode_ns", unit: "ns", better: "lower"},
	{name: "net.codec.decode_ns", unit: "ns", better: "lower"},
	{name: "net.codec.allocs_per_roundtrip", unit: "count", better: "lower"},
	{name: "core.snapshot.busy_s", unit: "s", better: "lower"},
	{name: "core.snapshot.useful_ratio", unit: "share", better: "higher"},
	{name: "core.updates_sent", unit: "count", better: "lower"},
	{name: "core.reservations_sent", unit: "count", better: "lower"},
	{name: "core.state_bytes", unit: "B", better: "lower"},
	{name: "net.setup.mesh_s", unit: "s", better: "lower"},
	{name: "net.stop_s", unit: "s", better: "lower"},
	{name: "chaos.rec.overhead_share", unit: "share", better: "lower"},
	{name: "chaos.rec.events", unit: "count", better: "lower"},
	{name: "chaos.validate_s", unit: "s", better: "lower"},
	{name: "chaos.validate.violations", unit: "count", better: "lower"},
	// service-stream -> work_per_s, op_p50_us, op_p95_us
	{name: "service.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "service.job_ms_p99", unit: "ms", better: "lower"},
	{name: "service.api.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "service.api.submit_ms_p99", unit: "ms", better: "lower"},
	{name: "service.api.result_ms_p50", unit: "ms", better: "lower"},
	{name: "service.api.result_ms_p99", unit: "ms", better: "lower"},
	{name: "service.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "service.queue_wait_ms_p99", unit: "ms", better: "lower"},
	{name: "service.makespan_ms_p50", unit: "ms", better: "lower"},
	{name: "service.makespan_ms_p99", unit: "ms", better: "lower"},
	{name: "service.inproc.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "service.api_overhead_share", unit: "share", better: "lower"},
	{name: "service.decisions_per_job", unit: "count", better: "lower"},
	{name: "service.state_msgs_per_job", unit: "count", better: "lower"},
	{name: "service.data_msgs_per_job", unit: "count", better: "lower"},
	{name: "service.refused", unit: "count", better: "lower"},
	{name: "termdet.ds.ctrl_msgs_per_job", unit: "count", better: "lower"},
	{name: "termdet.ds.ctrl_bytes_per_job", unit: "B", better: "lower"},
	{name: "termdet.safra.ctrl_msgs_per_job", unit: "count", better: "lower"},
	{name: "termdet.safra.ctrl_bytes_per_job", unit: "B", better: "lower"},
	{name: "termdet.safra.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "service.setup.new_s", unit: "s", better: "lower"},
	{name: "service.stop_s", unit: "s", better: "lower"},
	// every workload
	{name: "bench.rounds", unit: "count", better: "higher"},
	{name: "bench.spans", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "share", better: "lower"},
	{name: "proc.alloc_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.goroutines_leaked", unit: "count", better: "lower"},
}
