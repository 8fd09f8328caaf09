package main

// Observability wiring shared by the loadex subcommands: the per-node
// HTTP endpoint (-obs) and the periodic TELE telemetry line (-tele)
// that `loadex run` renders per forked net rank as a live dashboard.

import (
	"encoding/json"
	"fmt"
	"time"

	xnet "repro/internal/net"
	"repro/internal/obs"
)

// startNodeObs starts the node's observability surfaces per the flags:
// an HTTP endpoint serving Prometheus /metrics, /healthz and
// /debug/pprof (printing an `OBS <addr>` handshake line so parents and
// scripts learn the bound port), and a ticker printing `TELE <json>`
// lines from the node's telemetry snapshot. The returned stop function
// tears both down; it is safe to call when neither flag is set.
func startNodeObs(nd *xnet.Node, p *nodeParams) (func(), error) {
	stop := func() {}
	if p.obsAddr != "" {
		reg := obs.NewRegistry()
		nd.RegisterObs(reg)
		srv, err := obs.ServeHTTP(p.obsAddr, reg.Gather, nd.Health)
		if err != nil {
			return nil, err
		}
		fmt.Printf("OBS %s\n", srv.Addr())
		stop = func() { srv.Close() }
	}
	if p.tele > 0 {
		done := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			tick := time.NewTicker(p.tele)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					emitTele(nd)
				}
			}
		}()
		prev := stop
		stop = func() {
			close(done)
			<-exited
			prev()
		}
	}
	return stop, nil
}

// emitTele prints one TELE line: the node's telemetry snapshot as JSON
// on stdout, where the forking parent's reader picks it up alongside
// the ADDR/STATS handshake lines.
func emitTele(nd *xnet.Node) {
	b, err := json.Marshal(nd.Telemetry())
	if err != nil {
		return
	}
	fmt.Printf("TELE %s\n", b)
}

// printTele renders one forked rank's TELE payload as a dashboard line
// on the forking parent's stdout. A payload that does not decode (a
// newer node build, say) passes through raw rather than vanishing.
func printTele(rank int, payload string) {
	var t xnet.Telemetry
	if err := json.Unmarshal([]byte(payload), &t); err != nil {
		fmt.Printf("TELE rank=%d %s\n", rank, payload)
		return
	}
	fmt.Printf("TELE rank=%d up=%.1fs links=%d executed=%d decisions=%d busy=%.3fs msgs=%d/%d bytes=%d/%d\n",
		t.Rank, t.UptimeS, t.Links, t.Executed, t.Decisions, t.BusyS,
		t.MsgsIn, t.MsgsOut, t.BytesIn, t.BytesOut)
}
