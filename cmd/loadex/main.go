// Command loadex regenerates the tables and figures of "A study of
// various load information exchange mechanisms for a distributed
// application using dynamic scheduling" (Guermouche & L'Excellent,
// RR-5478, 2005).
//
// Usage:
//
//	loadex [flags] <table1|table3|table4|table5|table6|table7|fig1|fig2|ablations|all>
//
// Flags:
//
//	-scale f     global matrix scale multiplier (default 1.0; the
//	             per-processor-count factors of the experiment suite
//	             apply on top)
//	-seed n      generator seed (default 1); only the GUPTA3, PRE2 and
//	             TWOTONE analogues draw from it — every other matrix,
//	             the set-2 ones of Tables 5–7 included, is the same on
//	             every seed
//
// Besides the experiment tables, one subcommand runs registered
// workload scenarios (internal/workload) on the runtimes:
//
//	loadex run     [-scenario s] [-mech m] [-runtime r] [-repeat k] [...]
//	               the scenario × mechanism × runtime sweep ("all" fans
//	               any of -scenario/-mech/-runtime/-term out, a comma-list
//	               sweeps -chaos): per-cell message/byte/latency
//	               aggregates over k runs, paper-shaped markdown tables;
//	               net cells fork one OS process per rank (-inproc:
//	               goroutines on the same sockets)
//	loadex node    [-rank r] [...]              one forked net rank
//	                                            (normally forked by run)
//	loadex serve   [-procs n] [-mech m] [-addr a]   persistent scheduler
//	                                            service: a resident TCP
//	                                            mesh serving a stream of
//	                                            jobs (SIGTERM drains)
//	loadex submit  [-addr a] [-kind k] [...]    submit one job to a
//	                                            serving instance
//	loadex job     <status|result|cancel|metrics> query a serving instance
//	loadex top     [-addr a] [-interval d]      per-rank telemetry dashboard
//	                                            over a serving instance
//	loadex report  [-dir d]                     render recorded traces into
//	                                            Chrome trace_event timelines
//	                                            and latency tables
//	loadex list    print the registered scenarios (program and app),
//	               mechanisms, termination protocols, chaos plans
//	               and runtimes — the sweep axes
//
// Scenarios come in two kinds: program scenarios compile to per-rank
// synthetic step scripts, and application scenarios (solver-wl,
// solver-mem, solver-hetero) host the paper's real multifrontal solver.
// Both run through the application port on any runtime — in-process or
// forked one OS process per rank, with quiescence decided by a
// distributed termination detector (-term: ds or safra,
// internal/termdet).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// subcommands maps each subcommand to its entry point; a returned error
// is printed under the subcommand's name and exits 1.
var subcommands = map[string]func(args []string) error{
	"node":     runNode,
	"run":      runRun,
	"validate": runValidate,
	"serve":    runServe,
	"submit":   runSubmit,
	"job":      runJobCmd,
	"top":      runTop,
	"report":   runReport,
	"list":     runList,
}

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			if err := cmd(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "loadex %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	scale := flag.Float64("scale", 1.0, "global matrix scale multiplier")
	seed := flag.Uint64("seed", 1, "generator seed; only the GUPTA3, PRE2 and TWOTONE analogues use it")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	lab := experiments.NewLab(cfg)
	w := os.Stdout

	var run func(what string) error
	run = func(what string) error {
		switch what {
		case "table1", "table2", "matrices":
			rows, err := lab.Matrices(32)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "== Tables 1-2: test problems (paper matrices vs synthetic analogues at 32p scale) ==")
			experiments.WriteMatrices(w, rows)
		case "table3":
			rows, err := lab.Table3()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "== Table 3: number of dynamic decisions ==")
			experiments.WriteTable3(w, rows)
		case "table4":
			rows, err := lab.Table4(nil)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "== Table 4: peak of active memory, memory-based strategy ==")
			experiments.WriteTable4(w, rows)
		case "table5", "table6", "table7":
			rows, err := lab.Table567(nil, what == "table7")
			if err != nil {
				return err
			}
			switch what {
			case "table5":
				fmt.Fprintln(w, "== Table 5: factorization time, workload-based strategy ==")
				experiments.WriteTable5(w, rows)
			case "table6":
				fmt.Fprintln(w, "== Table 6: load-exchange messages ==")
				experiments.WriteTable6(w, rows)
			case "table7":
				fmt.Fprintln(w, "== Table 7: threaded load-exchange, factorization time ==")
				experiments.WriteTable7(w, rows)
			}
		case "fig1":
			fmt.Fprintln(w, "== Figure 1: coherence of the view under concurrent selections ==")
			for _, mech := range []core.Mech{core.MechNaive, core.MechIncrements, core.MechSnapshot} {
				if err := experiments.Figure1(w, mech); err != nil {
					return err
				}
			}
		case "fig2":
			fmt.Fprintln(w, "== Figure 2: assembly tree distribution ==")
			if err := lab.Figure2(w, "BMWCRA_1"); err != nil {
				return err
			}
		case "ablations":
			fmt.Fprintln(w, "== Ablation: No_more_master (§2.3) ==")
			nm, err := lab.AblationNoMoreMaster(64)
			if err != nil {
				return err
			}
			experiments.WriteAblationNoMoreMaster(w, nm)
			fmt.Fprintln(w, "== Ablation: snapshot leader-election criterion (§5) ==")
			le, err := lab.AblationLeaderElection(64)
			if err != nil {
				return err
			}
			experiments.WriteAblationLeaderElection(w, le)
			fmt.Fprintln(w, "== Ablation: increments broadcast threshold (§2.3) ==")
			th, err := lab.AblationThreshold("AUDIKW_1", 64, nil)
			if err != nil {
				return err
			}
			experiments.WriteAblationThreshold(w, th)
			fmt.Fprintln(w, "== Ablation: partial snapshots (§5) ==")
			ps, err := lab.AblationPartialSnapshot(64)
			if err != nil {
				return err
			}
			experiments.WriteAblationPartialSnapshot(w, ps)
			fmt.Fprintln(w, "== Ablation: high-latency interconnect (§5) ==")
			nw, err := lab.AblationNetwork(64)
			if err != nil {
				return err
			}
			experiments.WriteAblationNetwork(w, nw)
		case "all":
			for _, t := range []string{"table1", "table3", "table4", "table5", "table6", "table7", "fig1", "fig2", "ablations"} {
				if err := run(t); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
		default:
			fmt.Fprintf(os.Stderr, "loadex: %q is neither a subcommand nor a table\n", what)
			usage()
			os.Exit(2)
		}
		return nil
	}

	for _, what := range flag.Args() {
		if err := run(what); err != nil {
			fmt.Fprintln(os.Stderr, "loadex:", err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: loadex [-scale f] [-seed n] <table1|table3|table4|table5|table6|table7|fig1|fig2|ablations|all>")
	fmt.Fprintf(os.Stderr, "       loadex run [-scenario %s|all] [-mech %s|all] [-runtime sim|net|all] [-chaos p1,p2,...] [-term t|all] [-repeat k] [-inproc] ...\n",
		strings.Join(workload.Names(), "|"), strings.Join(mechNames(), "|"))
	fmt.Fprintln(os.Stderr, "       loadex node -rank r -procs n [-scenario s] [-mech m] ...   (normally forked by run)")
	fmt.Fprintln(os.Stderr, "       loadex validate -dir d   (replay recorded chaos traces, check cross-rank invariants)")
	fmt.Fprintln(os.Stderr, "       loadex serve [-procs n] [-mech m] [-term t] [-addr host:port]   (persistent scheduler service)")
	fmt.Fprintln(os.Stderr, "       loadex submit [-addr a] [-kind synthetic|app] [-wait] ...   (submit one job to a serving instance)")
	fmt.Fprintln(os.Stderr, "       loadex job <status|result|cancel|metrics> [-addr a] [-id n]   (query a serving instance)")
	fmt.Fprintln(os.Stderr, "       loadex top -addr a [-interval d] [-count k]   (per-rank telemetry dashboard over a serving instance)")
	fmt.Fprintln(os.Stderr, "       loadex report -dir d   (render recorded traces into Chrome trace_event timelines + latency tables)")
	fmt.Fprintln(os.Stderr, "       loadex list   (print registered scenarios, mechanisms, termination protocols, chaos plans and runtimes)")
}
