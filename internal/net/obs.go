package net

import (
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
)

// Observability bridge: the node's existing atomic tallies register
// into an obs.Registry as sampled instruments (zero cost between
// scrapes), and the same atomics back the periodic Telemetry snapshot
// that `loadex top` and the forked-cluster TELE dashboard print.

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// RegisterObs registers this node's tallies into reg under its rank
// label. Every instrument is a sampled func over an existing atomic —
// the node's hot paths are untouched.
func (nd *Node) RegisterObs(reg *obs.Registry) {
	lbl := obs.L("rank", strconv.Itoa(nd.rank))
	stateTally := func(bytes bool) func() float64 {
		return func() float64 {
			var sum int64
			for k := core.KindUpdate; k <= core.KindMax; k++ {
				if bytes {
					sum += nd.stateKindBytes[k].Load()
				} else {
					sum += nd.stateKindMsgs[k].Load()
				}
			}
			return float64(sum)
		}
	}
	reg.CounterFunc("loadex_state_msgs_total", "state-channel messages sent", stateTally(false), lbl...)
	reg.CounterFunc("loadex_state_bytes_total", "state-channel bytes sent", stateTally(true), lbl...)
	reg.CounterFunc("loadex_data_msgs_total", "data-channel messages sent", func() float64 { return float64(nd.workMsgsOut.Load()) }, lbl...)
	reg.CounterFunc("loadex_data_bytes_total", "data-channel bytes sent", func() float64 { return float64(nd.workBytesOut.Load()) }, lbl...)
	reg.CounterFunc("loadex_ctrl_msgs_total", "control-channel messages sent", func() float64 { return float64(nd.ctrlMsgsOut.Load()) }, lbl...)
	reg.CounterFunc("loadex_ctrl_bytes_total", "control-channel bytes sent", func() float64 { return float64(nd.ctrlBytesOut.Load()) }, lbl...)
	reg.CounterFunc("loadex_decisions_total", "committed dynamic decisions on the rank's shared exchanger", func() float64 { return float64(nd.decisions.Load()) }, lbl...)
	reg.CounterFunc("loadex_decision_latency_seconds_total", "summed acquire-to-decision latency", func() float64 { return floatFromBits(nd.decLatencyBits.Load()) }, lbl...)
	reg.CounterFunc("loadex_busy_seconds_total", "exchanger-busy wall-clock time", nd.busySeconds, lbl...)
	reg.CounterFunc("loadex_executed_total", "computes completed: one per work item, one per solver panel", func() float64 { return float64(nd.executed.Load()) }, lbl...)
	reg.CounterFunc("loadex_frames_in_total", "wire frames received", func() float64 { return float64(nd.msgsIn.Load()) }, lbl...)
	reg.CounterFunc("loadex_frames_out_total", "wire frames sent", func() float64 { return float64(nd.msgsOut.Load()) }, lbl...)
	reg.CounterFunc("loadex_wire_bytes_in_total", "wire bytes received", func() float64 { return float64(nd.bytesIn.Load()) }, lbl...)
	reg.CounterFunc("loadex_wire_bytes_out_total", "wire bytes sent", func() float64 { return float64(nd.bytesOut.Load()) }, lbl...)
	reg.GaugeFunc("loadex_links_up", "peer links currently connected", func() float64 { return float64(nd.Links()) }, lbl...)
	reg.GaugeFunc("loadex_inbox_depth", "messages queued in the rank's mailbox", func() float64 { now, _ := nd.inboxDepth(); return float64(now) }, lbl...)
	reg.GaugeFunc("loadex_outbox_depth_max", "messages queued on the rank's deepest link", func() float64 { now, _ := nd.outboxDepth(); return float64(now) }, lbl...)
	reg.CounterFunc("loadex_frames_dropped_total", "messages not sent, by reason", func() float64 { return float64(nd.droppedOut.Load()) }, obs.L("rank", strconv.Itoa(nd.rank), "reason", "link_down")...)
}

// Health reports this node's /healthz document: identity and peer link
// states (AppNode.Health adds a hosted rank's detector phase).
func (nd *Node) Health() obs.Health {
	h := obs.Health{Rank: nd.rank, Procs: nd.n, Mech: string(nd.mech)}
	for r, p := range nd.peers {
		if r == nd.rank || !nd.edge(r) {
			continue
		}
		state := "down"
		if p != nil {
			state = "up"
		}
		h.Links = append(h.Links, obs.Link{Peer: r, State: state})
	}
	return h
}

// Telemetry is one rank's periodic snapshot line: everything `loadex
// top` prints per rank. All fields come from atomics, so sampling is
// safe from any goroutine at any time.
type Telemetry struct {
	Rank             int     `json:"rank"`
	Links            int     `json:"links"`
	Executed         int64   `json:"executed"`
	Decisions        int64   `json:"decisions"`
	DecisionLatencyS float64 `json:"decision_latency_s"`
	BusyS            float64 `json:"busy_s"`
	MsgsIn           int64   `json:"msgs_in"`
	MsgsOut          int64   `json:"msgs_out"`
	BytesIn          int64   `json:"bytes_in"`
	BytesOut         int64   `json:"bytes_out"`
	UptimeS          float64 `json:"uptime_s"`
}

// Telemetry samples the node's atomic tallies.
func (nd *Node) Telemetry() Telemetry {
	return Telemetry{
		Rank:             nd.rank,
		Links:            nd.Links(),
		Executed:         nd.executed.Load(),
		Decisions:        nd.decisions.Load(),
		DecisionLatencyS: floatFromBits(nd.decLatencyBits.Load()),
		BusyS:            nd.busySeconds(),
		MsgsIn:           nd.msgsIn.Load(),
		MsgsOut:          nd.msgsOut.Load(),
		BytesIn:          nd.bytesIn.Load(),
		BytesOut:         nd.bytesOut.Load(),
		UptimeS:          nodeCtx{nd}.Now(),
	}
}
