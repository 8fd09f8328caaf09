// Package live runs the load-exchange mechanisms over real goroutines and
// channels — the same transport-agnostic state machines that the
// deterministic simulator drives, now exercised with true concurrency.
//
// Each node is one goroutine owning its mechanism instance and two
// channels: a prioritized state-information channel and a data channel,
// mirroring the paper's model (§1). The package exists for two purposes:
// validating the mechanisms under the race detector, and the quickstart
// example (a self-contained miniature of the paper's application).
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// message travels between nodes.
type message struct {
	from    int
	kind    int
	payload any
}

// workItem is a unit of application work sent master → slave.
type workItem struct {
	Load core.Load
	Spin time.Duration
}

// Node is one process of the live cluster.
type Node struct {
	rank    int
	cluster *Cluster
	exch    core.Exchanger
	stateCh chan message
	dataCh  chan workItem
	quit    chan struct{}
	// speed multiplies the execution time of work items this node
	// executes (1 = nominal).
	speed float64

	// executed counts completed work items.
	executed int64

	// counters is the node's measurement accumulator. Only the node's
	// own goroutine touches it (sends, decisions and busy transitions
	// all happen there); other goroutines read it via a control
	// closure, so no lock is needed.
	counters core.Counters
	// busy meters snapshot-blocked wall-clock time, observed after
	// every handled state message.
	busy core.BusyMeter
}

// Cluster is a set of live nodes.
type Cluster struct {
	nodes []*Node
	start time.Time
	wg    sync.WaitGroup
	// topo is the neighbor graph decisions are restricted to; nil means
	// the complete graph. The mechanisms themselves carry the same
	// topology via core.Config and never send across a non-edge.
	topo *core.Topology

	// outstanding counts work items in flight (assigned, not executed);
	// used for quiescence detection by Drain.
	outstanding int64
	// assigned counts work items ever assigned; it is incremented
	// before the mechanism's Commit so that any snapshot cut that
	// observed a decision's credits is covered by a later read of this
	// counter (the conservation tests rely on that ordering).
	assigned int64
	// credited counts master_to_slave credits the slaves have applied;
	// it is incremented after the handler, so every reply a slave sends
	// after a read of this counter carries the credits it counted.
	credited int64
}

// ctx adapts a node to core.Context. State channels are buffered deeply
// enough that sends practically never block for demo-scale workloads; a
// blocking send (rather than a spawned goroutine) preserves the per-pair
// FIFO order the snapshot protocol requires.
type ctx struct{ n *Node }

func (c ctx) Rank() int    { return c.n.rank }
func (c ctx) N() int       { return len(c.n.cluster.nodes) }
func (c ctx) Now() float64 { return time.Since(c.n.cluster.start).Seconds() }
func (c ctx) Send(to int, kind int, payload any, bytes float64) {
	c.n.counters.AddState(kind, bytes)
	c.n.cluster.nodes[to].stateCh <- message{from: c.n.rank, kind: kind, payload: payload}
}
func (c ctx) Broadcast(kind int, payload any, bytes float64) {
	for to := range c.n.cluster.nodes {
		if to != c.n.rank {
			c.Send(to, kind, payload, bytes)
		}
	}
}

// ClusterSetup seeds per-rank state at construction time. Initial loads
// follow the paper's static-mapping convention — every process knows
// everyone's starting load, so they are seeded into all views rather
// than broadcast.
type ClusterSetup struct {
	// Initial is the per-rank initial load (nil means all zero). The
	// cluster keeps the slice: every rank's view shares it as its
	// read-only seed (core.SeedView), so the caller must not write it
	// after construction.
	Initial []core.Load
	// Speed is the per-rank execution-time multiplier (nil or 0 entries
	// mean nominal speed).
	Speed []float64
}

// NewCluster starts n nodes running the given mechanism with zero
// initial loads and nominal speeds.
func NewCluster(n int, mech core.Mech, cfg core.Config) (*Cluster, error) {
	return NewClusterSetup(n, mech, cfg, ClusterSetup{})
}

// NewClusterSetup starts n nodes running the given mechanism with the
// given per-rank initial loads and speed factors.
func NewClusterSetup(n int, mech core.Mech, cfg core.Config, setup ClusterSetup) (*Cluster, error) {
	if setup.Initial != nil && len(setup.Initial) != n {
		return nil, fmt.Errorf("live: %d initial loads for %d ranks", len(setup.Initial), n)
	}
	if setup.Speed != nil && len(setup.Speed) != n {
		return nil, fmt.Errorf("live: %d speed factors for %d ranks", len(setup.Speed), n)
	}
	cl := &Cluster{start: time.Now(), topo: cfg.Topo}
	for r := 0; r < n; r++ {
		exch, err := core.New(mech, n, r, cfg)
		if err != nil {
			return nil, err
		}
		speed := 1.0
		if setup.Speed != nil && setup.Speed[r] > 0 {
			speed = setup.Speed[r]
		}
		node := &Node{
			rank:    r,
			cluster: cl,
			exch:    exch,
			stateCh: make(chan message, 1<<16),
			dataCh:  make(chan workItem, 1<<12),
			quit:    make(chan struct{}),
			speed:   speed,
		}
		cl.nodes = append(cl.nodes, node)
	}
	for r, node := range cl.nodes {
		initial := core.Load{}
		if setup.Initial != nil {
			initial = setup.Initial[r]
		}
		node.exch.Init(ctx{node}, initial)
		core.SeedView(node.exch, r, setup.Initial)
	}
	for _, node := range cl.nodes {
		cl.wg.Add(1)
		go node.run()
	}
	return cl, nil
}

// run is the node main loop: Algorithm 1 with a prioritized state channel.
func (n *Node) run() {
	defer n.cluster.wg.Done()
	for {
		// Priority 1: drain state-information messages.
		for {
			select {
			case m := <-n.stateCh:
				n.handle(m)
				continue
			default:
			}
			break
		}
		if n.exch.Busy() {
			// Snapshot in progress: treat only state messages.
			select {
			case m := <-n.stateCh:
				n.handle(m)
			case <-n.quit:
				return
			}
			continue
		}
		select {
		case m := <-n.stateCh:
			n.handle(m)
		case w := <-n.dataCh:
			n.execute(w)
		case <-n.quit:
			return
		}
	}
}

// execute performs one work item: account it, spin (scaled by the
// node's speed factor), release it.
func (n *Node) execute(w workItem) {
	c := ctx{n}
	n.exch.LocalChange(c, w.Load, true)
	if w.Spin > 0 {
		spin := w.Spin
		if n.speed != 1 {
			spin = time.Duration(float64(spin) * n.speed)
		}
		time.Sleep(spin)
	}
	neg := w.Load
	for i := range neg {
		neg[i] = -neg[i]
	}
	n.exch.LocalChange(c, neg, true)
	atomic.AddInt64(&n.executed, 1)
	atomic.AddInt64(&n.cluster.outstanding, -1)
}

// Decide performs one dynamic decision on the master node: acquire a view,
// pick the least-loaded peers, reserve load on them and ship the work. It
// blocks until the decision completed (for the snapshot mechanism, until
// the snapshot finished). The distribution function returns the share for
// each selected slave.
func (cl *Cluster) Decide(master int, totalWork float64, slaves int, spin time.Duration) error {
	_, err := cl.DecideObserved(master, totalWork, slaves, spin)
	return err
}

// DecideObserved is Decide plus the record the cross-runtime equivalence
// tests check: the view consulted at ready time and the assignments
// taken.
func (cl *Cluster) DecideObserved(master int, totalWork float64, slaves int, spin time.Duration) (core.Decision, error) {
	if master < 0 || master >= len(cl.nodes) {
		return core.Decision{}, fmt.Errorf("live: bad master %d", master)
	}
	n := cl.nodes[master]
	dec := core.Decision{Master: master}
	done := make(chan struct{})
	// The decision must run on the master's goroutine; mechanisms are
	// single-goroutine objects, so the decision is delivered as a
	// closure via a dedicated control message.
	var acquireAt time.Time
	sel := func() {
		n.counters.AddDecision(time.Since(acquireAt).Seconds())
		dec = core.PlanDecisionOn(cl.topo, n.exch.View(), master, slaves, totalWork)
		atomic.AddInt64(&cl.assigned, int64(len(dec.Assignments)))
		n.exch.Commit(ctx{n}, dec.Assignments)
		for _, a := range dec.Assignments {
			atomic.AddInt64(&cl.outstanding, 1)
			n.counters.AddData(core.BytesWorkItem)
			cl.nodes[a.Proc].dataCh <- workItem{Load: a.Delta, Spin: spin}
		}
		close(done)
	}
	n.stateCh <- message{from: master, kind: kindControl, payload: controlPayload{run: func() {
		acquireAt = time.Now()
		n.exch.Acquire(ctx{n}, sel)
	}}}
	<-done
	return dec, nil
}

// kindControl is an internal message kind carrying a closure to run on
// the node's goroutine; it is never given to mechanisms.
const kindControl = -1

type controlPayload struct{ run func() }

// handleControl intercepts control messages before the mechanism sees
// them. Wired into the loop via HandleMessage dispatch below. Both paths
// can flip the mechanism's Busy state (control closures run Acquire and
// Commit), so both are followed by a busy-time check.
func (n *Node) handle(m message) {
	if m.kind == kindControl {
		m.payload.(controlPayload).run()
		n.busy.Observe(n.exch.Busy())
		return
	}
	n.exch.HandleMessage(ctx{n}, m.from, m.kind, m.payload)
	if m.kind == core.KindMasterToSlave {
		atomic.AddInt64(&n.cluster.credited, 1)
	}
	n.busy.Observe(n.exch.Busy())
}

// LocalChange applies a spontaneous local load variation (not slave
// work) on rank r's own goroutine and returns once it is applied.
func (cl *Cluster) LocalChange(r int, delta core.Load) {
	n := cl.nodes[r]
	done := make(chan struct{})
	n.stateCh <- message{from: r, kind: kindControl, payload: controlPayload{run: func() {
		n.exch.LocalChange(ctx{n}, delta, false)
		close(done)
	}}}
	<-done
}

// NoMoreMaster announces on rank r's own goroutine that r will never
// take a dynamic decision again (§2.3) and returns once announced.
func (cl *Cluster) NoMoreMaster(r int) {
	n := cl.nodes[r]
	done := make(chan struct{})
	n.stateCh <- message{from: r, kind: kindControl, payload: controlPayload{run: func() {
		n.exch.NoMoreMaster(ctx{n})
		close(done)
	}}}
	<-done
}

// Drain waits until all assigned work has executed or the timeout expires.
func (cl *Cluster) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for atomic.LoadInt64(&cl.outstanding) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("live: %d work items still outstanding", atomic.LoadInt64(&cl.outstanding))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Stop terminates all node goroutines.
func (cl *Cluster) Stop() {
	for _, n := range cl.nodes {
		close(n.quit)
	}
	cl.wg.Wait()
}

// Executed returns how many work items node r completed.
func (cl *Cluster) Executed(r int) int64 {
	return atomic.LoadInt64(&cl.nodes[r].executed)
}

// AssignedItems returns how many work items were ever assigned across
// the cluster (counted just before each decision's Commit).
func (cl *Cluster) AssignedItems() int64 { return atomic.LoadInt64(&cl.assigned) }

// CreditedItems returns how many master_to_slave credits slaves have
// applied across the cluster (the snapshot mechanism's only; counted
// just after each is handled).
func (cl *Cluster) CreditedItems() int64 { return atomic.LoadInt64(&cl.credited) }

// ExecutedItems returns how many work items were executed across the
// cluster.
func (cl *Cluster) ExecutedItems() int64 {
	var total int64
	for r := range cl.nodes {
		total += cl.Executed(r)
	}
	return total
}

// AcquireView runs one full view acquisition on rank r — a snapshot,
// for the snapshot mechanism — committing no assignment, and returns
// the coherent view.
func (cl *Cluster) AcquireView(r int) ([]core.Load, error) {
	if r < 0 || r >= len(cl.nodes) {
		return nil, fmt.Errorf("live: bad rank %d", r)
	}
	n := cl.nodes[r]
	var view []core.Load
	done := make(chan struct{})
	n.stateCh <- message{from: r, kind: kindControl, payload: controlPayload{run: func() {
		n.exch.Acquire(ctx{n}, func() {
			view = n.exch.View().Snapshot()
			n.exch.Commit(ctx{n}, nil)
			close(done)
		})
	}}}
	<-done
	return view, nil
}

// View returns a copy of node r's current estimates, obtained on the
// node's own goroutine (safe at any time).
func (cl *Cluster) View(r int) []core.Load {
	n := cl.nodes[r]
	out := make(chan []core.Load, 1)
	n.stateCh <- message{from: r, kind: kindControl, payload: controlPayload{run: func() {
		out <- n.exch.View().Snapshot()
	}}}
	return <-out
}

// Stats returns node r's mechanism counters (on its own goroutine).
func (cl *Cluster) Stats(r int) core.Stats {
	n := cl.nodes[r]
	out := make(chan core.Stats, 1)
	n.stateCh <- message{from: r, kind: kindControl, payload: controlPayload{run: func() {
		out <- n.exch.Stats()
	}}}
	return <-out
}

// Counters returns node r's measurement accumulator (on its own
// goroutine). Snapshot rounds derive from the mechanism stats at read
// time.
func (cl *Cluster) Counters(r int) core.Counters {
	n := cl.nodes[r]
	out := make(chan core.Counters, 1)
	n.stateCh <- message{from: r, kind: kindControl, payload: controlPayload{run: func() {
		c := n.counters.Clone()
		c.BusyTime = n.busy.Seconds
		c.SnapshotRounds = core.SnapshotRoundsOf(n.exch.Stats())
		out <- c
	}}}
	return <-out
}
