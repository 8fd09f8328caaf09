package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/sim"
)

// The net workloads drive a 4-rank in-process mesh on loopback TCP with
// one seeded script. An epoch is netGroups groups; in each group every
// rank applies netChanges above-threshold local changes and each of the
// netMasters master ranks then takes one decision. Drain ends the epoch,
// which keeps the work in flight (at most netGroups*netMasters*3 items)
// under the node's 4096-item data queue; see README.md.
const (
	netRanks     = 4
	netMasters   = 2
	netChanges   = 4
	netGroups    = 250
	netEpochs    = 30 // per round
	netThreshold = 10.0
)

// netGroup is one rank's share of a group.
type netGroup struct {
	deltas [netChanges]float64
	work   float64 // masters only
	slaves int
}

type netBench struct {
	e      *env
	mech   core.Mech
	groups int
	epochs int

	// script[r] is rank r's epoch; initial and scriptSum its starting
	// load and the sum of its deltas.
	script    [][]netGroup
	initial   []core.Load
	scriptSum float64

	cl     *xnet.Cluster
	meshS  []float64 // NewCluster time of each set-up
	epochN int       // epochs run on cl
	rounds int
	base   netTotals // counters when the last round ended
	warm   netTotals // counters after set-up's warm-up epoch

	decisions                       int
	lat                             []float64 // every decision's latency, seconds
	wallS, decideS, drainS, settleS float64
	changeNS                        []float64 // per traced round: mean ns per LocalChange call
}

// netTotals is the cluster-wide counters at one instant, summed over
// ranks.
type netTotals struct {
	stateMsgs, decisions, snapRounds       int64
	updates, reservations, snaps, restarts int64
	frames, wireBytes                      int64
	stateBytes, acquireS, busyS            float64
}

// since returns what was counted after o.
func (t netTotals) since(o netTotals) netTotals {
	return netTotals{
		stateMsgs: t.stateMsgs - o.stateMsgs, decisions: t.decisions - o.decisions, snapRounds: t.snapRounds - o.snapRounds,
		updates: t.updates - o.updates, reservations: t.reservations - o.reservations, snaps: t.snaps - o.snaps, restarts: t.restarts - o.restarts,
		frames: t.frames - o.frames, wireBytes: t.wireBytes - o.wireBytes,
		stateBytes: t.stateBytes - o.stateBytes, acquireS: t.acquireS - o.acquireS, busyS: t.busyS - o.busyS,
	}
}

func newNetPull(e *env) bench { return newNet(e, core.MechSnapshot) }
func newNetPush(e *env) bench { return newNet(e, core.MechIncrements) }

func newNet(e *env, mech core.Mech) bench {
	return &netBench{e: e, mech: mech, groups: e.scaled(netGroups, 5), epochs: e.scaled(netEpochs, 2)}
}

func (b *netBench) cfg() core.Config {
	return core.Config{Threshold: core.Load{core.Workload: netThreshold, core.Memory: netThreshold}}
}

// setup makes the script from the seed and dials the mesh.
func (b *netBench) setup() error {
	rng := sim.NewRNG(b.e.seed ^ 0x6e6574)
	b.script = make([][]netGroup, netRanks)
	b.initial = make([]core.Load, netRanks)
	b.scriptSum = 0
	for r := range b.script {
		b.initial[r] = core.Load{core.Workload: rng.Range(0, 100)}
		sign := 1.0
		for g := 0; g < b.groups; g++ {
			var grp netGroup
			for i := range grp.deltas {
				// Alternating signs keep a rank's load near where it began.
				grp.deltas[i] = sign * rng.Range(2*netThreshold, 6*netThreshold)
				b.scriptSum += grp.deltas[i]
				sign = -sign
			}
			if r < netMasters {
				grp.work = rng.Range(60, 180)
				grp.slaves = 1 + rng.Intn(3)
			}
			b.script[r] = append(b.script[r], grp)
		}
	}
	t0 := time.Now()
	cl, err := xnet.NewCluster(netRanks, b.mech, b.cfg(), xnet.Options{Initial: b.initial})
	b.meshS = append(b.meshS, time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	// One epoch before anything is timed: buffers grow and pools fill.
	b.cl, b.epochN = cl, 1
	err = b.e.guard("warm-up epoch", func() error {
		_, _, _, err := b.epoch(cl, nil, 0)
		return err
	})
	b.base = b.totals(cl)
	b.warm = b.base
	return err
}

func (b *netBench) stop() {
	if b.cl != nil {
		b.cl.Stop()
		b.cl = nil
	}
}

// epoch runs the script once on cl: one closed-loop driver per rank,
// then Drain. It returns the decision latencies, the mean LocalChange
// call time when timed, and the time Drain took.
func (b *netBench) epoch(cl *xnet.Cluster, tr *tracer, id int) (lat []float64, changeNS, drainS float64, err error) {
	root := tr.begin("epoch", 0, id, 0)
	defer tr.end(root)
	var wg sync.WaitGroup
	lats := make([][]float64, netRanks)
	changes := make([]time.Duration, netRanks)
	errs := make([]error, netRanks)
	for r := 0; r < netRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := tr.begin("net.script", root, id, r+1)
			defer tr.end(s)
			for _, grp := range b.script[r] {
				var t0 time.Time
				if tr != nil {
					t0 = time.Now()
				}
				for _, d := range grp.deltas {
					cl.LocalChange(r, core.Load{core.Workload: d})
				}
				if tr != nil {
					changes[r] += time.Since(t0)
				}
				if grp.slaves == 0 {
					continue
				}
				t0 = time.Now()
				if _, err := cl.DecideObserved(r, grp.work, grp.slaves, 0); err != nil {
					errs[r] = err
					return
				}
				lats[r] = append(lats[r], time.Since(t0).Seconds())
			}
		}(r)
	}
	wg.Wait()
	for r := range errs {
		if errs[r] != nil {
			return nil, 0, 0, errs[r]
		}
		lat = append(lat, lats[r]...)
		changeNS += float64(changes[r].Nanoseconds())
	}
	changeNS /= float64(netRanks * b.groups * netChanges)
	s := tr.begin("net.drain", root, id, 0)
	t0 := time.Now()
	err = cl.Drain(opDeadline)
	drainS = time.Since(t0).Seconds()
	tr.end(s)
	return lat, changeNS, drainS, err
}

func (b *netBench) round(tr *tracer) (roundOut, error) {
	want := b.groups * netMasters
	out := roundOut{attempted: b.epochs * (want + 1)} // every decision, and every epoch's drain
	var changeNS float64
	t0 := time.Now()
	for ep := 0; ep < b.epochs; ep++ {
		var lat []float64
		err := b.e.guard(fmt.Sprintf("%s epoch %d", b.e.workload, b.epochN), func() error {
			var c, d float64
			var err error
			lat, c, d, err = b.epoch(b.cl, tr, b.epochN)
			changeNS += c
			b.drainS += d
			return err
		})
		b.epochN++
		if err != nil || len(lat) != want {
			out.failed += want + 1 - len(lat)
			if err == nil {
				err = fmt.Errorf("epoch took %d decisions, the script has %d", len(lat), want)
			}
			return out, err
		}
		out.lat = append(out.lat, lat...)
	}
	out.parts = []float64{time.Since(t0).Seconds()}
	b.wallS += out.parts[0]
	b.rounds++
	if tr != nil {
		b.changeNS = append(b.changeNS, changeNS/float64(b.epochs))
	}
	now := b.totals(b.cl)
	out.work = float64(len(out.lat))
	out.stateMsgs = float64(now.stateMsgs - b.base.stateMsgs)
	b.base = now
	b.decisions += len(out.lat)
	b.lat = append(b.lat, out.lat...)
	for _, l := range out.lat {
		b.decideS += l
	}
	return out, nil
}

func (b *netBench) totals(cl *xnet.Cluster) netTotals {
	var t netTotals
	for r := 0; r < cl.N(); r++ {
		c, st, tp := cl.Counters(r), cl.Stats(r), cl.Transport(r)
		t.stateMsgs += c.StateMsgs
		t.stateBytes += c.StateBytes
		t.decisions += c.Decisions
		t.acquireS += c.DecisionLatency
		t.busyS += c.BusyTime
		t.snapRounds += c.SnapshotRounds
		t.updates += st.UpdatesSent
		t.reservations += st.ReservationsSent
		t.snaps += st.SnapshotsInitiated
		t.restarts += st.SnapshotRestarts
		t.frames += tp.MsgsIn
		t.wireBytes += tp.BytesIn
	}
	return t
}

// check verifies the mesh's books after the last Drain: every assigned
// item executed, every scripted decision counted by the mechanism, and
// the loads a rank sees sum to what the script applied.
func (b *netBench) check() error {
	if got, want := b.base.since(b.warm).decisions, int64(b.decisions); got != want {
		return fmt.Errorf("the nodes counted %d decisions, the script took %d", got, want)
	}
	if a, x := b.cl.AssignedItems(), b.cl.ExecutedItems(); a != x || a == 0 {
		return fmt.Errorf("%d items assigned, %d executed", a, x)
	}
	want := float64(b.epochN) * b.scriptSum
	for _, l := range b.initial {
		want += l[core.Workload]
	}
	// A maintained view lags its peers by under one threshold each; a
	// snapshot is exact. Updates still in flight get a moment to land.
	tol := netRanks * netThreshold
	t0 := time.Now()
	for {
		view, err := b.cl.AcquireView(0)
		if err != nil {
			return err
		}
		var sum float64
		for _, l := range view {
			sum += l[core.Workload]
		}
		b.settleS = time.Since(t0).Seconds()
		if math.Abs(sum-want) <= tol {
			return nil
		}
		if b.settleS > 2 {
			return fmt.Errorf("rank 0 sees a total load of %.3f, the script applied %.3f (tolerance %.0f)", sum, want, tol)
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *netBench) layers(tr *tracer, m metrics) error {
	n := float64(b.rounds)
	t := b.base.since(b.warm)
	m["net.decide.call_s"] = b.decideS / n
	m["net.decide.p99_us"] = quantile(b.lat, 0.99) * 1e6
	m["net.decide.acquire_s"] = t.acquireS / n
	m["net.local_change.call_ns"] = median(b.changeNS)
	m["net.drain_s"] = b.drainS / n
	m["net.settle_s"] = b.settleS
	m["net.frames_in"] = float64(t.frames) / n
	m["net.wire_bytes_in"] = float64(t.wireBytes) / n
	m["net.frames_per_s"] = float64(t.frames) / b.wallS
	m["net.decisions_per_s"] = float64(b.decisions) / b.wallS
	m["net.frames_per_decision"] = float64(t.frames) / float64(b.decisions)
	m["net.bytes_per_frame"] = float64(t.wireBytes) / float64(t.frames)
	m["core.snapshot.rounds"] = float64(t.snapRounds) / n
	m["core.snapshot.restarts"] = float64(t.restarts) / n
	m["core.snapshot.busy_s"] = t.busyS / n
	if tries := t.snaps + t.restarts; tries > 0 {
		m["core.snapshot.useful_ratio"] = float64(b.decisions) / float64(tries)
	}
	m["core.updates_sent"] = float64(t.updates) / n
	m["core.reservations_sent"] = float64(t.reservations) / n
	m["core.state_bytes"] = t.stateBytes / n
	m["net.setup.mesh_s"] = median(b.meshS)

	// The latency floor: acquiring a view on the idle mesh.
	var idle []float64
	for i := 0; i < b.e.scaled(500, 20); i++ {
		t0 := time.Now()
		if _, err := b.cl.AcquireView(i % netMasters); err != nil {
			return err
		}
		idle = append(idle, time.Since(t0).Seconds()*1e6)
	}
	m["net.idle_snapshot_round_us"] = median(idle)

	if err := probeCodec(b.e, m); err != nil {
		return err
	}
	return b.probeRecorder(m)
}

// probeRecorder measures what the program's own trace recorder costs:
// the same epochs on a fresh mesh without and with Options.Rec, then
// the offline validator over what it wrote.
func (b *netBench) probeRecorder(m metrics) error {
	epochs := b.e.scaled(netEpochs, 2)
	path := b.e.file("rec.jsonl")
	var wall [2]float64
	for i, record := range []bool{false, true} {
		var rec *chaos.Recorder
		if record {
			var err error
			if rec, err = chaos.OpenRecorder(path); err != nil {
				return err
			}
			rec.Record(chaos.Event{Ev: chaos.EvMeta, N: netRanks, Scenario: b.e.workload, Mech: string(b.mech)})
		}
		cl, err := xnet.NewCluster(netRanks, b.mech, b.cfg(), xnet.Options{Initial: b.initial, Rec: rec})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for ep := 0; ep < epochs && err == nil; ep++ {
			err = b.e.guard("recorder probe epoch", func() error {
				_, _, _, err := b.epoch(cl, nil, ep)
				return err
			})
		}
		wall[i] = time.Since(t0).Seconds()
		if err != nil {
			return err // a stalled mesh is left running; the run ends
		}
		cl.Stop()
		for r := 0; r < netRanks; r++ {
			rec.Record(chaos.Event{Ev: chaos.EvFinal, Rank: r, Executed: cl.Executed(r)})
		}
		if err := rec.Close(); err != nil {
			return err
		}
	}
	m["chaos.rec.overhead_share"] = wall[1]/wall[0] - 1
	t0 := time.Now()
	events, err := chaos.ReadFile(path)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil { // tens of megabytes a run
		return err
	}
	rep := chaos.Validate(events)
	m["chaos.validate_s"] = time.Since(t0).Seconds()
	m["chaos.rec.events"] = float64(len(events))
	m["chaos.validate.violations"] = float64(len(rep.Violations))
	if !rep.OK() {
		return fmt.Errorf("the offline validator found %d violations, first: %v", len(rep.Violations), rep.Violations[0])
	}
	return nil
}
