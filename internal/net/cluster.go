package net

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Cluster runs N nodes over localhost TCP inside one process — the same
// mesh, codec and node loops a multi-process deployment uses, minus the
// fork. Tests and `loadex cluster -inproc` use it; its API mirrors
// live.Cluster so the cross-runtime equivalence tests can drive both
// through one harness.
type Cluster struct {
	nodes []*Node
}

// NewCluster starts n nodes on ephemeral localhost ports running mech.
func NewCluster(n int, mech core.Mech, cfg core.Config, opts Options) (*Cluster, error) {
	cl := &Cluster{}
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		nd, err := NewNode(r, n, mech, cfg, opts)
		if err != nil {
			cl.Stop()
			return nil, err
		}
		cl.nodes = append(cl.nodes, nd)
		if addrs[r], err = nd.Listen("127.0.0.1:0"); err != nil {
			cl.Stop()
			return nil, err
		}
	}
	// Start the whole mesh concurrently: rank r's Start blocks until
	// every higher rank has dialed it, so sequential starts would
	// deadlock.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = cl.nodes[r].Start(addrs)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			cl.Stop()
			return nil, err
		}
	}
	return cl, nil
}

// N returns the number of nodes.
func (cl *Cluster) N() int { return len(cl.nodes) }

// Node returns rank r's node.
func (cl *Cluster) Node(r int) *Node { return cl.nodes[r] }

// Decide performs one dynamic decision on the master node: acquire a
// coherent view, select the `slaves` least-loaded peers, commit the
// reservation and ship the work over TCP. It blocks until the decision
// completed (for the snapshot mechanism, until the snapshot finished).
func (cl *Cluster) Decide(master int, totalWork float64, slaves int, spin time.Duration) error {
	_, err := cl.DecideObserved(master, totalWork, slaves, spin)
	return err
}

// DecideObserved is Decide plus the record the equivalence tests check:
// the view consulted at ready time and the assignments taken.
func (cl *Cluster) DecideObserved(master int, totalWork float64, slaves int, spin time.Duration) (core.Decision, error) {
	if master < 0 || master >= len(cl.nodes) {
		return core.Decision{}, fmt.Errorf("net: bad master %d", master)
	}
	return cl.nodes[master].Decide(totalWork, slaves, spin)
}

// AcquireView runs one full view acquisition on rank r, committing no
// assignment, and returns the coherent view.
func (cl *Cluster) AcquireView(r int) ([]core.Load, error) {
	if r < 0 || r >= len(cl.nodes) {
		return nil, fmt.Errorf("net: bad rank %d", r)
	}
	return cl.nodes[r].AcquireView()
}

// LocalChange applies a spontaneous local load variation on rank r.
func (cl *Cluster) LocalChange(r int, delta core.Load) { cl.nodes[r].LocalChange(delta) }

// NoMoreMaster announces rank r will never take a decision again.
func (cl *Cluster) NoMoreMaster(r int) { cl.nodes[r].NoMoreMaster() }

// AssignedItems returns how many work items were ever assigned across
// the cluster.
func (cl *Cluster) AssignedItems() int64 {
	var total int64
	for _, nd := range cl.nodes {
		total += nd.Assigned()
	}
	return total
}

// CreditedItems returns how many master_to_slave credits slaves have
// applied across the cluster.
func (cl *Cluster) CreditedItems() int64 {
	var total int64
	for _, nd := range cl.nodes {
		total += nd.Credited()
	}
	return total
}

// ExecutedItems returns how many work items were executed across the
// cluster.
func (cl *Cluster) ExecutedItems() int64 {
	var total int64
	for _, nd := range cl.nodes {
		total += nd.Executed()
	}
	return total
}

// Drain waits until every assigned work item across the cluster has
// been executed and acknowledged, or the timeout expires. It returns
// only after one pass finds every node at zero without waiting: a node
// the pass found idle may assign more work while it waits on another.
func (cl *Cluster) Drain(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		waited := false
		for _, nd := range cl.nodes {
			if nd.Outstanding() == 0 {
				continue
			}
			waited = true
			if !nd.awaitDrained(deadline.C) {
				var out int64
				for _, nd := range cl.nodes {
					out += nd.Outstanding()
				}
				return fmt.Errorf("net: %d work items still outstanding", out)
			}
		}
		if !waited {
			return nil
		}
	}
}

// Executed returns how many work items node r completed.
func (cl *Cluster) Executed(r int) int64 { return cl.nodes[r].Executed() }

// View returns a copy of node r's current estimates.
func (cl *Cluster) View(r int) []core.Load { return cl.nodes[r].ViewSnapshot() }

// Stats returns node r's mechanism counters.
func (cl *Cluster) Stats(r int) core.Stats { return cl.nodes[r].MechStats() }

// Counters returns node r's measurement accumulator (real wire sizes).
func (cl *Cluster) Counters(r int) core.Counters { return cl.nodes[r].Counters() }

// Transport returns node r's wire-level counters.
func (cl *Cluster) Transport(r int) TransportStats { return cl.nodes[r].Transport() }

// Stop closes every node. Closes run concurrently: each node's
// graceful shutdown waits for its peers' half-closes.
func (cl *Cluster) Stop() {
	var wg sync.WaitGroup
	for _, nd := range cl.nodes {
		if nd != nil {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				nd.Close()
			}(nd)
		}
	}
	wg.Wait()
}
