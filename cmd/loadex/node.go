package main

// loadex node: one process of a TCP cluster. Normally forked by
// `loadex run -runtime net`, which drives the stdio handshake:
//
//	node   → parent:  ADDR <rank> <host:port>   (after binding)
//	parent → node:    PEERS <addr0>,<addr1>,…   (once all ranks bound)
//	node   → parent:  STATS <json>              (after quiescence)
//
// Every rank builds the scenario's application instance
// deterministically from the shared flags and runs exactly one rank of
// it over the TCP mesh; quiescence is decided by the distributed
// termination detector (-term, internal/termdet), not by host-side
// counters.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// nodeStats is the per-rank report a node prints and the cluster parent
// aggregates. Flops and PeakMem are filled by application-scenario
// nodes (the solver), so the parent can check executed-flops
// conservation against the sim reference without a shared process.
type nodeStats struct {
	Executed  int64               `json:"executed"`
	Decisions int                 `json:"decisions"`
	Mech      core.Stats          `json:"mech"`
	Transport xnet.TransportStats `json:"transport"`
	Counters  core.Counters       `json:"counters"`
	Flops     float64             `json:"flops,omitempty"`
	PeakMem   float64             `json:"peak_mem,omitempty"`
}

// nodeParams collects the scenario-shaping flags shared by `loadex
// node` and `loadex run`.
type nodeParams struct {
	procs     int
	scenario  string
	mech      string
	threshold float64
	noMore    bool
	term      string
	topo      string
	masters   int
	decisions int
	work      float64
	slaves    int
	spin      time.Duration
	timeout   time.Duration
	chaos     string
	traceDir  string
	obsAddr   string
	tele      time.Duration
}

func (p *nodeParams) register(fs *flag.FlagSet) {
	fs.IntVar(&p.procs, "procs", 8, "number of processes in the cluster")
	fs.StringVar(&p.scenario, "scenario", "quickstart",
		"workload scenario: "+strings.Join(workload.Names(), "|"))
	fs.StringVar(&p.mech, "mech", "snapshot", "mechanism: "+strings.Join(mechNames(), "|"))
	fs.Float64Var(&p.threshold, "threshold", 5, "maintained-mechanism broadcast threshold (workload units)")
	fs.BoolVar(&p.noMore, "nomore", true, "enable the No_more_master optimization (§2.3)")
	fs.StringVar(&p.term, "term", termdet.Default,
		"termination-detection protocol that ends the run: "+strings.Join(termdet.Names(), "|"))
	fs.StringVar(&p.topo, "topo", "full",
		"neighbor topology state messages travel: "+strings.Join(core.TopologyNames(), "|"))
	fs.IntVar(&p.masters, "masters", 3, "ranks [0,masters) take dynamic decisions (scenarios may widen)")
	fs.IntVar(&p.decisions, "decisions", 4, "decisions per master")
	fs.Float64Var(&p.work, "work", 120, "work units distributed per decision")
	fs.IntVar(&p.slaves, "slaves", 3, "slaves selected per decision")
	fs.DurationVar(&p.spin, "spin", time.Millisecond, "nominal execution time per work item")
	fs.DurationVar(&p.timeout, "timeout", 2*time.Minute, "per-node quiescence deadline (raise for large forked solver cells)")
	fs.StringVar(&p.chaos, "chaos", "",
		"fault-injection plan: "+strings.Join(chaos.Names(), "|")+" (empty = none; `loadex list` describes them)")
	fs.StringVar(&p.traceDir, "trace", "",
		"record per-rank JSONL trace events under this directory for `loadex validate` and `loadex report`")
	fs.StringVar(&p.obsAddr, "obs", "",
		"serve Prometheus /metrics, /healthz and /debug/pprof on this address (e.g. :9090; empty = off)")
	fs.DurationVar(&p.tele, "tele", 0,
		"print a TELE <json> telemetry line every period (0 = off; `loadex run` forwards it to forked net ranks)")
}

// mechNames lists the registered mechanism names — the paper's three —
// in the order its tables use.
func mechNames() []string {
	names := make([]string, 0, len(core.Mechanisms()))
	for _, m := range core.Mechanisms() {
		names = append(names, string(m))
	}
	return names
}

func (p *nodeParams) config() core.Config {
	return core.Config{
		Threshold:       core.Load{core.Workload: p.threshold},
		NoMoreMasterOpt: p.noMore,
		Topo:            p.topology(),
	}
}

// topology resolves the -topo flag. The default "full" (and the empty
// value of test-built literals) maps to nil — the complete graph every
// layer assumes when no neighbor graph is named — so the default path
// is byte-identical to a build without the seam. validate() has already
// rejected bad names, so a construction error here is a programming
// error.
func (p *nodeParams) topology() *core.Topology {
	if p.topo == "" || p.topo == core.TopoFull {
		return nil
	}
	t, err := core.NewTopology(p.topo, p.procs)
	if err != nil {
		panic(fmt.Sprintf("loadex: -topo %q passed validation but did not build: %v", p.topo, err))
	}
	return t
}

func (p *nodeParams) params() workload.Params {
	return workload.Params{
		Procs:     p.procs,
		Masters:   p.masters,
		Decisions: p.decisions,
		Work:      p.work,
		Slaves:    p.slaves,
		Spin:      p.spin,
		Term:      p.term,
	}
}

// validate rejects unusable flag combinations with messages listing the
// registered names. The matrix command (`run`) accepts the special
// value "all" for -mech, -scenario and -term and comma-lists for -topo
// and -chaos; a single node does not.
func (p *nodeParams) validate(matrix bool) error {
	if p.procs < 2 {
		return fmt.Errorf("need at least 2 processes, got -procs %d", p.procs)
	}
	if p.masters < 1 || p.masters > p.procs {
		return fmt.Errorf("masters %d out of range [1,%d]", p.masters, p.procs)
	}
	if p.slaves < 1 {
		return fmt.Errorf("need at least 1 slave per decision, got -slaves %d", p.slaves)
	}
	if p.decisions < 1 {
		return fmt.Errorf("need at least 1 decision per master, got -decisions %d", p.decisions)
	}
	// Work and spin reach workload.Params verbatim; reject the values
	// Normalize would otherwise silently replace or Validate reject
	// after the fork.
	if p.work <= 0 {
		return fmt.Errorf("work per decision must be positive, got -work %g", p.work)
	}
	if p.spin < 0 {
		return fmt.Errorf("negative -spin %s", p.spin)
	}
	if !(matrix && p.mech == "all") {
		if _, err := core.New(core.Mech(p.mech), 2, 0, core.Config{}); err != nil {
			avail := strings.Join(mechNames(), ", ")
			if matrix {
				avail += ", all"
			}
			return fmt.Errorf("unknown mechanism %q (available: %s)", p.mech, avail)
		}
	}
	if !(matrix && p.scenario == "all") {
		if _, err := workload.Get(p.scenario); err != nil {
			avail := strings.Join(workload.Names(), ", ")
			if matrix {
				avail += ", all"
			}
			return fmt.Errorf("unknown scenario %q (available: %s)", p.scenario, avail)
		}
	}
	if !(matrix && p.term == "all") && !termdet.Valid(p.term) {
		avail := strings.Join(termdet.Names(), ", ")
		if matrix {
			avail += ", all"
		}
		return fmt.Errorf("unknown termination protocol %q (available: %s)", p.term, avail)
	}
	// `loadex run` sweeps a comma-list of topologies; every entry must
	// build for this -procs (hypercube, for one, constrains it).
	topos := []string{p.topo}
	if matrix && strings.Contains(p.topo, ",") {
		topos = strings.Split(p.topo, ",")
	}
	for _, name := range topos {
		// The complete graph builds for any -procs, and topology() never
		// builds it: checking it by construction would cost n² ints.
		if name == "" || name == core.TopoFull {
			continue
		}
		if _, err := core.NewTopology(name, p.procs); err != nil {
			return err
		}
		if !workload.IsProgramScenario(p.scenario) {
			return fmt.Errorf("application scenario %q needs the full topology (its solver addresses arbitrary ranks); got -topo %s",
				p.scenario, name)
		}
	}
	if p.obsAddr != "" {
		if err := obs.ValidateAddr(p.obsAddr); err != nil {
			return err
		}
	}
	if p.tele < 0 {
		return fmt.Errorf("negative -tele period %s", p.tele)
	}
	if !(matrix && strings.Contains(p.chaos, ",")) {
		if _, err := chaos.Get(p.chaos); err != nil {
			return err
		}
	} else {
		// `loadex run` sweeps a comma-list of plans.
		for _, name := range strings.Split(p.chaos, ",") {
			if _, err := chaos.Get(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// chaosPlan resolves the -chaos flag (already validated; nil when no
// plan is selected).
func (p *nodeParams) chaosPlan() *chaos.Plan {
	plan, _ := chaos.Get(p.chaos)
	return plan
}

// quiesceTimeout normalizes the per-node quiescence deadline (tests
// build nodeParams literals without it).
func (p *nodeParams) quiesceTimeout() time.Duration {
	if p.timeout <= 0 {
		return 2 * time.Minute
	}
	return p.timeout
}

func runNode(args []string) error {
	fs := flag.NewFlagSet("loadex node", flag.ExitOnError)
	var p nodeParams
	p.register(fs)
	rank := fs.Int("rank", 0, "this process's rank")
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := p.validate(false); err != nil {
		return err
	}
	if *rank < 0 || *rank >= p.procs {
		return fmt.Errorf("rank %d out of range [0,%d)", *rank, p.procs)
	}
	rec, err := p.openRecorder(fmt.Sprintf("rank-%d.jsonl", *rank), *rank)
	if err != nil {
		return err
	}
	defer rec.Close()
	// Build the application instance deterministically from the shared
	// flags, bind this rank to one TCP node, and run the Algorithm 1
	// loop until the termination detector announces global quiescence.
	// Cross-rank bookkeeping travels as data messages; the detector's
	// control frames (TypeCtrl) release every process once rank 0's
	// detector concludes.
	w, err := workload.Get(p.scenario)
	if err != nil {
		return err
	}
	params := p.params()
	params.Record = rec
	app, opts, err := w.NewApp(core.Mech(p.mech), p.config(), params)
	if err != nil {
		return err
	}
	app = workload.Recorded(app, rec)
	if params.Term != "" {
		opts.Term = params.Term
	}
	nd, err := xnet.NewNode(*rank, p.procs, core.Mech(p.mech), p.config(), xnet.Options{
		Logf:  nodeLogf,
		Chaos: p.chaosPlan(),
		Rec:   rec,
	})
	if err != nil {
		return err
	}
	an, err := xnet.NewAppNode(nd, app, opts)
	if err != nil {
		return err
	}
	addr, err := nd.Listen(*listen)
	if err != nil {
		return err
	}
	addrs, err := stdioHandshake(*rank, addr, p.procs)
	if err != nil {
		return err
	}
	if err := nd.Start(addrs); err != nil {
		return err
	}
	stopObs, err := startNodeObs(nd, an.Health, &p)
	if err != nil {
		return err
	}
	defer stopObs()
	armCrash(p.chaosPlan(), *rank, rec)
	hr, err := an.Run(p.quiesceTimeout())
	if err != nil {
		return err
	}
	out := app.Outcome(hr)
	if out.Err != nil {
		return out.Err
	}
	st := nodeStats{
		Executed:  out.Executed[*rank],
		Decisions: out.Decisions,
		Mech:      out.Stats[*rank],
		Transport: nd.Transport(),
		Counters:  workload.CountersFromApp(hr, out),
	}
	if res, ok := out.Result.(*solver.Result); ok {
		st.Flops = res.ExecutedFlops[*rank]
		st.PeakMem = res.PeakMem[*rank]
	}
	return emitStats(nd, st)
}

// openRecorder opens the trace file name under -trace (nil recorder
// when tracing is off) and stamps the opening meta event: a forked rank
// writes rank-<r>.jsonl, an in-process run of every rank one shared
// file.
func (p *nodeParams) openRecorder(name string, rank int) (*chaos.Recorder, error) {
	if p.traceDir == "" {
		return nil, nil
	}
	rec, err := chaos.OpenRecorder(filepath.Join(p.traceDir, name))
	if err != nil {
		return nil, err
	}
	rec.Record(chaos.Event{
		Ev: chaos.EvMeta, Rank: rank, N: p.procs,
		Scenario: p.scenario, Mech: p.mech, Term: p.term, Plan: p.chaos, Topo: p.topo,
	})
	return rec, nil
}

// armCrash schedules this process's chaos crash: a genuine process
// death (not a simulated one) at the plan's crash time, so the parent's
// watchdog — not cooperative shutdown — must notice it. The recorder is
// closed first so the truncated trace (no final event) survives for the
// validator to diagnose.
func armCrash(plan *chaos.Plan, rank int, rec *chaos.Recorder) {
	if !plan.Crashes(rank) {
		return
	}
	time.AfterFunc(time.Duration(plan.CrashAfter*float64(time.Second)), func() {
		fmt.Fprintf(os.Stderr, "node %d: chaos plan %q: crashing now\n", rank, plan.Name)
		rec.Close()
		os.Exit(3)
	})
}

// nodeLogf routes transport diagnostics to stderr (stdout carries the
// handshake).
func nodeLogf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// stdioHandshake prints this node's bound address and waits for the
// parent's PEERS answer listing every rank's address.
func stdioHandshake(rank int, addr string, procs int) ([]string, error) {
	fmt.Printf("ADDR %d %s\n", rank, addr)
	sc := bufio.NewScanner(os.Stdin)
	var addrs []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "PEERS "); ok {
			addrs = strings.Split(rest, ",")
			break
		}
	}
	if addrs == nil {
		return nil, fmt.Errorf("node %d: stdin closed before PEERS line", rank)
	}
	if len(addrs) != procs {
		return nil, fmt.Errorf("node %d: got %d peer addresses, want %d", rank, len(addrs), procs)
	}
	return addrs, nil
}

// emitStats prints the STATS line and closes the node.
func emitStats(nd *xnet.Node, stats nodeStats) error {
	b, err := json.Marshal(stats)
	if err != nil {
		return err
	}
	fmt.Printf("STATS %s\n", b)
	return nd.Close()
}
