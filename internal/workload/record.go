package workload

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
)

// Recorded wraps an application so every cross-rank effect lands in a
// chaos trace: SendData emits a send event, HandleData a recv event,
// each Compute a start/done pair, and Outcome one final event per
// local rank carrying that rank's completed-compute count and, when the
// host drained every message (AppReport.Drained), its final view
// (workload metric). The resulting JSONL stream is what `loadex
// validate` replays to check cross-run invariants (conservation,
// compute completion, quiescence, final views).
//
// The wrapper interposes on both sides of the port — it hands the
// application a recording AppHost on Attach — so it works identically
// under every runtime and under forked hosting, where each process
// records only its local rank's half of each exchange.
func Recorded(app App, rec *chaos.Recorder) App {
	if rec == nil {
		return app
	}
	return &recordedApp{app: app, rec: rec}
}

type recordedApp struct {
	app  App
	rec  *chaos.Recorder
	host AppHost

	mu    sync.Mutex
	dones map[int]int64
}

// countDone tallies one completed compute for rank.
func (r *recordedApp) countDone(rank int) {
	r.mu.Lock()
	if r.dones == nil {
		r.dones = make(map[int]int64)
	}
	r.dones[rank]++
	r.mu.Unlock()
}

func (r *recordedApp) doneCount(rank int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dones[rank]
}

func (r *recordedApp) Attach(host AppHost) error {
	r.host = host
	return r.app.Attach(&recordedHost{AppHost: host, r: r})
}

func (r *recordedApp) HandleState(rank, from, kind int, payload any) {
	r.app.HandleState(rank, from, kind, payload)
}

// now stamps events with the host clock; before Attach it reads 0.
func (r *recordedApp) now() float64 {
	if r.host == nil {
		return 0
	}
	return r.host.Now()
}

func (r *recordedApp) HandleData(rank, from int, m DataMsg) {
	r.rec.Record(chaos.Event{
		Ev: chaos.EvRecv, Rank: rank, Peer: from,
		Kind: m.Kind, Node: m.Node, Count: m.Count,
		Work: m.Work, Size: m.Size, T: r.now(),
	})
	r.app.HandleData(rank, from, m)
}

func (r *recordedApp) TryStart(rank int) bool { return r.app.TryStart(rank) }
func (r *recordedApp) Blocked(rank int) bool  { return r.app.Blocked(rank) }
func (r *recordedApp) Done() bool             { return r.app.Done() }

func (r *recordedApp) Outcome(hr *AppReport) AppOutcome {
	out := r.app.Outcome(hr)
	if r.host != nil {
		for rank := 0; rank < r.host.N(); rank++ {
			if !r.host.Local(rank) {
				continue
			}
			ev := chaos.Event{Ev: chaos.EvFinal, Rank: rank, Executed: r.doneCount(rank)}
			if hr != nil && hr.Drained && rank < len(out.FinalViews) && out.FinalViews[rank] != nil {
				v := out.FinalViews[rank]
				ev.View = make([]float64, v.N())
				for p := range ev.View {
					ev.View[p] = v.Metric(p, core.Workload)
				}
			}
			r.rec.Record(ev)
		}
	}
	return out
}

// RecordDecision records one committed decision of rank: the view it
// was planned on and the slaves it selected.
func RecordDecision(rec *chaos.Recorder, rank int, work float64, slaves int, dec core.Decision) {
	if rec == nil {
		return
	}
	ev := chaos.Event{Ev: chaos.EvDecide, Rank: rank, Work: work, Slaves: slaves}
	for _, l := range dec.View {
		ev.View = append(ev.View, l[core.Workload])
	}
	for _, a := range dec.Assignments {
		ev.Sel = append(ev.Sel, int(a.Proc))
	}
	rec.Record(ev)
}

// recordedHost interposes on the host surface the application sees:
// sends and computes are traced, everything else passes through.
type recordedHost struct {
	AppHost
	r *recordedApp
}

func (h *recordedHost) SendData(from, to int, m DataMsg) {
	h.r.rec.Record(chaos.Event{
		Ev: chaos.EvSend, Rank: from, Peer: to,
		Kind: m.Kind, Node: m.Node, Count: m.Count,
		Work: m.Work, Size: m.Size, T: h.r.now(),
	})
	h.AppHost.SendData(from, to, m)
}

func (h *recordedHost) Compute(rank int, seconds float64, done func()) {
	h.r.rec.Record(chaos.Event{Ev: chaos.EvStart, Rank: rank, Spin: seconds, T: h.r.now()})
	h.AppHost.Compute(rank, seconds, func() {
		h.r.rec.Record(chaos.Event{Ev: chaos.EvDone, Rank: rank, Spin: seconds, T: h.r.now()})
		h.r.countDone(rank)
		done()
	})
}
