// TCP cluster demo: the same in-process TCP runner as
// examples/quickstart, on the straggler scenario, with the wire traffic
// printed: eight nodes talk over real localhost TCP sockets with the
// length-prefixed binary codec — the same core state machines the
// simulator drives, now facing serialization, per-pair FIFO connections
// and detector-based quiescence.
//
//	go run ./examples/tcpcluster
//
// For a cluster of separate OS processes, see `go run ./cmd/loadex run
// -runtime net` (this demo keeps the nodes in-process so it is one binary).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/workload"
)

func main() {
	// The straggler scenario makes rank 7 execute its work 6x slower,
	// which delays its snapshot replies — watch the restart counter.
	w, err := workload.Get("straggler")
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
		fmt.Printf("=== mechanism: %s (localhost TCP, binary codec, scenario %s) ===\n", mech, w.Name())
		rep, err := workload.Run(&net.AppRunner{}, w, mech, cfg, params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("work items executed per node:")
		for r, n := range rep.Executed {
			fmt.Printf("  node %d: %d\n", r, n)
		}
		fmt.Printf("wire traffic: %d messages, %d bytes\n", rep.WireMsgs, rep.WireBytes)
		if mech == core.MechSnapshot {
			st := rep.TotalStats()
			fmt.Printf("snapshot stats: initiated=%d restarts=%d\n",
				st.SnapshotsInitiated, st.SnapshotRestarts)
		}
	}
	fmt.Println("done — `go run ./cmd/loadex run -scenario all -mech all -runtime net` runs the full matrix as forked OS processes")
}
