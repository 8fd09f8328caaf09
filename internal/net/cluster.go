package net

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Cluster runs N nodes over localhost TCP inside one process — the same
// mesh, codec and node loops a multi-process deployment uses, minus the
// fork — each running the built-in loop: callers drive decisions and
// load changes directly and wait for quiescence with Drain.
type Cluster struct {
	nodes []*Node
}

// NewCluster starts n nodes on ephemeral localhost ports running mech.
func NewCluster(n int, mech core.Mech, cfg core.Config, opts Options) (*Cluster, error) {
	nodes, err := StartMesh(n, func(r int) (*Node, error) { return NewNode(r, n, mech, cfg, opts) })
	if err != nil {
		return nil, err
	}
	return &Cluster{nodes: nodes}, nil
}

// StartMesh runs one in-process mesh: it builds rank r's node with
// newNode, binds every node to an ephemeral localhost port and starts
// them all concurrently — rank r's Start blocks until every higher
// neighbor has dialed it, so sequential starts would deadlock. On the
// first error it closes every node built so far.
func StartMesh(n int, newNode func(rank int) (*Node, error)) ([]*Node, error) {
	nodes := make([]*Node, 0, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		nd, err := newNode(r)
		if err != nil {
			CloseNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
		if addrs[r], err = nd.Listen("127.0.0.1:0"); err != nil {
			CloseNodes(nodes)
			return nil, err
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = nd.Start(addrs)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			CloseNodes(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

// CloseNodes closes every node of a mesh. Closes run concurrently:
// each node's graceful shutdown waits for its peers' half-closes.
func CloseNodes(nodes []*Node) {
	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd.Close()
		}()
	}
	wg.Wait()
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
	nd := cl.nodes[master]
	dec, _, err := nd.Decide(totalWork, slaves, func(to int, delta core.Load) {
		nd.AssignWork(to, delta, spin)
	})
	return dec, err
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

// Stop closes every node.
func (cl *Cluster) Stop() { CloseNodes(cl.nodes) }
