// Quickstart: run the three load-information exchange mechanisms of
// Guermouche & L'Excellent (RR-5478, 2005) on an in-process cluster of
// localhost TCP nodes, take a few dynamic scheduling decisions, and
// watch how coherent each mechanism's view of the system is.
//
// The workload is the registered "quickstart" scenario from
// internal/workload; swap the name below (burst, ramp, hetero,
// straggler) and the same runner hosts it unchanged — that is the point
// of the Workload/AppRunner split. `loadex run` exposes the full
// scenario × mechanism × runtime matrix on the command line.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/workload"
)

func main() {
	w, err := workload.Get("quickstart")
	if err != nil {
		log.Fatal(err)
	}
	params := workload.Params{
		Procs: 8, Masters: 3, Decisions: 4, Work: 120, Slaves: 3,
		Spin: 2 * time.Millisecond,
	}
	cfg := core.Config{
		Threshold:       core.Load{core.Workload: 5},
		NoMoreMasterOpt: true,
	}
	for _, mech := range []core.Mech{core.MechNaive, core.MechIncrements, core.MechSnapshot} {
		fmt.Printf("=== mechanism: %s ===\n", mech)
		rep, err := workload.Run(&xnet.AppRunner{}, w, mech, cfg, params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("work items executed per node:")
		for r, n := range rep.Executed {
			fmt.Printf("  node %d: %d\n", r, n)
		}
		if mech == core.MechSnapshot {
			st := rep.Stats[0]
			fmt.Printf("node 0 snapshot stats: initiated=%d restarts=%d\n",
				st.SnapshotsInitiated, st.SnapshotRestarts)
		}
	}
	fmt.Println("done — see `go run ./cmd/loadex run` for the scenario × mechanism × runtime matrix")
}
