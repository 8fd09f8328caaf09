package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	xnet "repro/internal/net"
	"repro/internal/sim"
)

// The probes time one layer alone, through its public functions, in the
// traced run of the workload whose end-to-end metrics the layer should
// move. Each returns nanoseconds per operation.

// probeEngine fires no-op events through a bare sim.Engine that always
// holds 1024 pending events.
func probeEngine(e *env) float64 {
	const pending = 1024
	total := e.scaled(1_000_000, 10_000)
	eng := sim.NewEngine()
	rng := sim.NewRNG(e.seed)
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired+pending <= total {
			eng.After(sim.Duration(rng.Range(1e-6, 1e-3)), fire)
		}
	}
	for i := 0; i < pending; i++ {
		eng.After(sim.Duration(rng.Range(1e-6, 1e-3)), fire)
	}
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		panic(err) // MaxSteps is unset, so Run cannot fail
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(eng.Steps())
}

// countingCtx is a core.Context that only counts what a mechanism
// sends.
type countingCtx struct {
	rank, n int
	sent    int
}

func (c *countingCtx) Rank() int                   { return c.rank }
func (c *countingCtx) N() int                      { return c.n }
func (c *countingCtx) Now() float64                { return 0 }
func (c *countingCtx) Send(int, int, any, float64) { c.sent++ }
func (c *countingCtx) Broadcast(int, any, float64) { c.sent += c.n - 1 }

// probeCore times the mechanism-side cost of the three things sim-scale
// and net-push do most: planning a decision on a 1024-rank view,
// handling one state message, and applying one above-threshold local
// change (which the maintained mechanisms broadcast).
func probeCore(e *env, m metrics) {
	const n = 1024
	iters := e.scaled(200_000, 2_000)
	rng := sim.NewRNG(e.seed ^ 0x636f7265)
	load := func() core.Load { return core.Load{core.Workload: rng.Range(0, 1000), core.Memory: rng.Range(0, 1000)} }

	view := core.NewView(n)
	for p := 0; p < n; p++ {
		view.Set(p, load())
	}
	for _, k := range []int{1, 3} {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			// One entry moves between decisions, as updates make it.
			view.Set(1+rng.Intn(n-1), load())
			sink = core.PlanDecision(view, 0, k, 100)
		}
		m[fmt.Sprintf("core.select.plan_ns.k%d", k)] = perOp(t0, iters)
	}

	thr := core.Load{core.Workload: 1, core.Memory: 1}
	for _, mech := range core.Mechanisms() {
		exch, err := core.New(mech, n, 0, core.Config{Threshold: thr})
		if err != nil {
			panic(err) // the three paper mechanisms always construct
		}
		ctx := &countingCtx{rank: 0, n: n}
		exch.Init(ctx, load())
		t0 := time.Now()
		msgs := iters
		for i := 0; i < iters; i++ {
			from := 1 + rng.Intn(n-1)
			if mech == core.MechSnapshot {
				// A peer's whole snapshot as this rank sees it.
				exch.HandleMessage(ctx, from, core.KindStartSnp, core.StartSnpPayload{Req: int32(i)})
				exch.HandleMessage(ctx, from, core.KindEndSnp, nil)
			} else {
				exch.HandleMessage(ctx, from, core.KindUpdate, core.UpdatePayload{Load: load()})
			}
		}
		if mech == core.MechSnapshot {
			msgs *= 2
		}
		m["core.handle_ns."+string(mech)] = perOp(t0, msgs)

		if mech == core.MechSnapshot {
			continue // a snapshot rank's local change sends nothing
		}
		changes := max(iters/100, 100) // each one is n-1 sends
		t0 = time.Now()
		for i := 0; i < changes; i++ {
			exch.LocalChange(ctx, core.Load{core.Workload: 2, core.Memory: 2}, false)
		}
		m["core.local_change_ns."+string(mech)] = perOp(t0, changes)
	}
}

// sink keeps the compiler from removing a probe's measured call.
var sink any

func perOp(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// probeCodec times BinaryCodec on the frames the net workloads send
// most: an update, a three-slave master_to_all and a work item.
func probeCodec(e *env, m metrics) error {
	iters := e.scaled(300_000, 3_000)
	l := core.Load{core.Workload: 120, core.Memory: 7}
	upd, err := xnet.StateMessage(1, core.KindUpdate, core.UpdatePayload{Load: l})
	if err != nil {
		return err
	}
	m2a, err := xnet.StateMessage(1, core.KindMasterToAll, core.MasterToAllPayload{Assignments: []core.Assignment{
		{Proc: 0, Delta: l}, {Proc: 2, Delta: l}, {Proc: 3, Delta: l}}})
	if err != nil {
		return err
	}
	msgs := []xnet.Message{upd, m2a, {Type: xnet.TypeWork, From: 1, Load: l, Spin: 1}}
	codec := xnet.BinaryCodec{}
	var frames [][]byte
	for _, msg := range msgs {
		b, err := codec.Encode(nil, msg)
		if err != nil {
			return err
		}
		frames = append(frames, b)
	}

	var buf []byte
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if buf, err = codec.Encode(buf[:0], msgs[i%len(msgs)]); err != nil {
			return err
		}
	}
	m["net.codec.encode_ns"] = perOp(t0, iters)

	var into xnet.Message
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if err = codec.DecodeInto(frames[i%len(frames)], &into); err != nil {
			return err
		}
	}
	m["net.codec.decode_ns"] = perOp(t0, iters)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		if buf, err = codec.Encode(buf[:0], msgs[i%len(msgs)]); err != nil {
			return err
		}
		if err = codec.DecodeInto(buf, &into); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	m["net.codec.allocs_per_roundtrip"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	return nil
}
