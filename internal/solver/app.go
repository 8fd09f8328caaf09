package solver

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/sched"
	"repro/internal/tree"
	"repro/internal/workload"
)

// itemKind classifies entries of a process's local ready queue.
type itemKind uint8

const (
	itemNode   itemKind = iota // Type 1 / subtree node, fully local
	itemType2                  // Type 2 node ready on its master: acquire view + select
	itemMaster                 // Type 2 master part, selection already committed
	itemSlave                  // Type 2 slave share
	itemType3                  // share of the 2D root
)

// item is one unit of local ready work. flops is the remaining work of
// the task; cont marks a continuation of a task whose earlier panels
// already ran (its activation — memory allocation — already happened);
// pieces is the total contribution-piece count of the node (slave
// items: carried in the subtask message, since the selection's share
// list lives only on the master).
type item struct {
	kind    itemKind
	node    int32
	rows    int32
	pieces  int32
	flops   float64
	entries float64
	cont    bool
}

// procState is the per-process application state.
type procState struct {
	exch  core.Exchanger
	ctx   core.Context
	ready []item
	// running computes a panel of chunk flops; chunkDone, built once, ends it.
	running   item
	chunk     float64
	chunkDone func()
	activeMem float64
	peakMem   float64
	// mastersLeft counts Type 2 selections this process still has to
	// perform; reaching zero triggers No_more_master (§2.3).
	mastersLeft int
	// executed counts completed tasks; flops accumulates the executed
	// floating-point work (panel chunks as they finish).
	executed int64
	flops    float64
}

// piece is a contribution block stacked on its producer, awaiting the
// parent's selection.
type piece struct {
	producer int32
	entries  float64
}

// nodeState tracks the distributed progress of one assembly-tree node.
type nodeState struct {
	missing    int32   // children whose contributions are incomplete
	piecesGot  int32   // pieces received for THIS node at its parent's master
	piecesNeed int32   // pieces this node produces (known lazily)
	cbStacked  float64 // entries stacked at a Type 1 parent's owner
	pieces     []piece // producer-side stack for a parallel parent
	shares     []sched.Share
	slavesDone int32
	masterDone bool
	done       bool
	type3Done  int32
}

// app implements workload.App: the Algorithm 1 behaviours of every
// process, expressed against the transport-neutral application port.
// Any runtime's AppRunner (sim, net) can host it — in-process
// (all ranks in one instance) or forked (one instance per OS process,
// hosting a single local rank). The application keeps no cross-rank
// shared bookkeeping: assembly-tree progress lives at each node's
// master and every cross-rank effect — contributions, subtasks, and
// the slave-done / Type 3 completion notifications — travels as an
// explicit DataMsg.
type app struct {
	m    *mapping.Mapping
	prm  Params
	host workload.AppHost

	procs []*procState // nil entries for ranks this host does not run
	nodes []nodeState
	// doneCount counts completions observed locally (each node
	// completes at its master); expectedDone is the number of
	// locally-mastered nodes, so Done is doneCount == expectedDone in
	// every deployment.
	doneCount    int
	expectedDone int
	decisions    int
	assignments  int
	slaveFlops   []float64     // per rank: the shares decisions taken here assigned it
	counters     core.Counters // decision counts + acquire-to-ready latency
}

// newApp builds the application for a normalized parameter set; the
// mechanisms and per-process state are created when a host attaches.
func newApp(m *mapping.Mapping, prm Params) *app {
	return &app{m: m, prm: prm}
}

// Attach implements workload.App: wire the host, create the mechanisms
// and seed the ready queues.
func (a *app) Attach(host workload.AppHost) error {
	a.host = host
	return a.init()
}

func (a *app) init() error {
	np := a.m.Config.NProcs
	t := a.m.Tree
	a.procs = make([]*procState, np)
	a.nodes = make([]nodeState, len(t.Nodes))
	a.slaveFlops = make([]float64, np)

	initial := make([]core.Load, np)
	for p := 0; p < np; p++ {
		initial[p] = core.Load{core.Workload: a.m.InitialLoad[p]}
	}
	// Per-rank state exists only for the ranks this host instance runs:
	// everything (mechanisms, ready queues, memory accounting) for
	// in-process hosting, a single rank's share under fork.
	for p := 0; p < np; p++ {
		if !a.host.Local(p) {
			continue
		}
		var exch core.Exchanger
		var err error
		if a.prm.Exchanger != nil {
			exch = a.prm.Exchanger(np, p)
		} else if exch, err = core.New(a.prm.Mech, np, p, a.prm.MechConfig); err != nil {
			return err
		}
		ps := &procState{exch: exch, ctx: a.host.Context(p)}
		ps.chunkDone = func() { a.chunkDone(p) }
		a.procs[p] = ps
		exch.Init(ps.ctx, initial[p])
		// The static mapping is global knowledge: everyone starts with
		// everyone's initial load in view. Every rank's view shares the
		// one initial slice, which nothing writes from here on.
		core.SeedView(exch, p, initial)
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		a.nodes[i].missing = int32(len(n.Children))
		master := int(a.m.Master[i])
		if n.Type == tree.Type2 {
			if ps := a.procs[master]; ps != nil {
				ps.mastersLeft++
			}
		}
		if a.host.Local(master) {
			a.expectedDone++
		}
	}
	// Processes that will never be master can say so immediately.
	for p := 0; p < np; p++ {
		if ps := a.procs[p]; ps != nil && ps.mastersLeft == 0 {
			ps.exch.NoMoreMaster(ps.ctx)
		}
	}
	// Leaves are ready from the start, each on its master.
	for _, l := range t.Leaves() {
		if a.host.Local(int(a.m.Master[l])) {
			a.nodeReady(l)
		}
	}
	return nil
}

// ---- workload.App implementation --------------------------------------

// HandleState treats one state-information message (Algorithm 1 line 3).
func (a *app) HandleState(rank, from, kind int, payload any) {
	ps := a.procs[rank]
	ps.exch.HandleMessage(ps.ctx, from, kind, payload)
}

// HandleData treats one application message (Algorithm 1 line 5).
func (a *app) HandleData(rank, from int, m workload.DataMsg) {
	ps := a.procs[rank]
	switch int(m.Kind) {
	case KindSubtask:
		n := &a.m.Tree.Nodes[m.Node]
		work := tree.SlaveFlops(n.Nfront, n.Npiv, m.Count, a.m.Tree.Sym)
		mem := tree.SlaveBlockEntries(n.Nfront, n.Npiv, m.Count, a.m.Tree.Sym)
		a.addMem(rank, mem)
		ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: work, core.Memory: mem}, true)
		ps.ready = append(ps.ready, item{kind: itemSlave, node: m.Node, rows: m.Count, pieces: m.Peer})
	case KindCB:
		a.deliverPiece(rank, m)
	case KindType3Start:
		ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: m.Work}, false)
		ps.ready = append(ps.ready, item{kind: itemType3, node: m.Node, flops: m.Work, entries: m.Size})
	case KindShipReq:
		a.shipPiece(rank, m.Size, int(m.Peer))
	case KindCBData:
		// Assembly into storage already counted with the consumer's
		// block: bandwidth only.
	case KindSlaveDone:
		// A slave share of a Type 2 node completed elsewhere; this rank
		// is the node's master and tracks its progress.
		a.nodes[m.Node].slavesDone++
		a.checkType2Done(m.Node)
	case KindType3Done:
		// One process's share of the 2D root completed; this rank is
		// the root's master.
		a.type3ShareDone(m.Node)
	default:
		panic(fmt.Sprintf("solver: unknown data message kind %d", m.Kind))
	}
}

// shipPiece frees a stacked contribution piece on its producer and sends
// the data to the consumer chosen by the parent's selection.
func (a *app) shipPiece(rank int, entries float64, consumer int) {
	ps := a.procs[rank]
	a.addMem(rank, -entries)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Memory: -entries}, false)
	if consumer == rank {
		return
	}
	a.host.SendData(rank, consumer, workload.DataMsg{
		Kind: KindCBData, Bytes: entries * 8,
	})
}

// Blocked implements workload.App: a process participating in a
// snapshot must not treat data messages or start tasks.
func (a *app) Blocked(rank int) bool { return a.procs[rank].exch.Busy() }

// Done implements workload.App: every locally-mastered assembly-tree
// node completed (all nodes for in-process hosting; the local rank's
// share under fork — global quiescence is the detector's call).
func (a *app) Done() bool { return a.doneCount == a.expectedDone }

// TryStart implements workload.App (Algorithm 1 line 7): pick a local
// ready task, applying the memory-aware task selection of §4.2.1.
func (a *app) TryStart(rank int) bool {
	ps := a.procs[rank]
	if len(ps.ready) == 0 {
		return false
	}
	idx := a.pickItem(rank)
	it := ps.ready[idx]
	ps.ready = append(ps.ready[:idx], ps.ready[idx+1:]...)

	t := a.m.Tree
	switch it.kind {
	case itemNode:
		n := &t.Nodes[it.node]
		ns := &a.nodes[it.node]
		if it.flops == 0 { // first panel: activate the front
			it.flops = n.Cost
			front := tree.FrontEntries(n.Nfront, t.Sym)
			a.addMem(rank, front-ns.cbStacked)
			ps.exch.LocalChange(ps.ctx, core.Load{core.Memory: front - ns.cbStacked}, false)
			ns.cbStacked = 0
		}
		a.computeChunk(rank, it)
	case itemType2:
		node := it.node
		acquireAt := a.host.Now()
		ready := func() {
			a.counters.AddDecision(a.host.Now() - acquireAt)
			a.selectAndCommit(rank, node)
		}
		if a.prm.PartialSnapshots {
			if sx, ok := ps.exch.(core.ScopedExchanger); ok {
				sx.AcquireScoped(ps.ctx, a.m.Candidates[node], ready)
				return true
			}
		}
		ps.exch.Acquire(ps.ctx, ready)
	case itemMaster:
		n := &t.Nodes[it.node]
		if it.flops == 0 {
			it.flops = tree.MasterFlops(n.Nfront, n.Npiv, t.Sym)
		}
		a.computeChunk(rank, it)
	case itemSlave:
		n := &t.Nodes[it.node]
		if it.flops == 0 {
			it.flops = tree.SlaveFlops(n.Nfront, n.Npiv, it.rows, t.Sym)
		}
		a.computeChunk(rank, it)
	case itemType3:
		if !it.cont {
			a.addMem(rank, it.entries)
			ps.exch.LocalChange(ps.ctx, core.Load{core.Memory: it.entries}, false)
		}
		a.computeChunk(rank, it)
	}
	return true
}

// computeChunk runs one panel of the item's remaining work (at most
// MaxChunkSeconds of application time) and either re-queues the
// continuation at the head of the ready queue or completes the task.
// Between panels the Algorithm 1 loop treats pending messages — dense
// kernels poll their queues between panel updates, so a long front
// never makes the process deaf for its full duration.
func (a *app) computeChunk(rank int, it item) {
	speed := a.prm.FlopsPerSecond
	maxChunk := a.prm.MaxChunkSeconds * speed
	if maxChunk <= 0 {
		maxChunk = it.flops
	}
	ps := a.procs[rank]
	ps.running, ps.chunk = it, min(it.flops, maxChunk)
	a.host.Compute(rank, ps.chunk/speed, ps.chunkDone)
}

// chunkDone ends the running panel of rank.
func (a *app) chunkDone(rank int) {
	ps := a.procs[rank]
	it := ps.running
	ps.flops += ps.chunk
	if rest := it.flops - ps.chunk; rest > 0 {
		it.flops = rest
		it.cont = true
		ps.ready = slices.Insert(ps.ready, 0, it)
		return
	}
	ps.executed++
	switch it.kind {
	case itemNode:
		a.completeNode(rank, it.node)
	case itemMaster:
		a.completeMaster(rank, it.node)
	case itemSlave:
		a.completeSlave(rank, it.node, it.rows, it.pieces)
	case itemType3:
		a.completeType3(rank, it.node, a.m.Tree.Nodes[it.node].Cost/float64(len(a.procs)), it.entries)
	}
}

// pickItem applies the memory-aware task selection: the first ready item
// whose activation the strategy accepts; if none passes, the smallest
// activation is taken anyway (liveness).
func (a *app) pickItem(rank int) int {
	ps := a.procs[rank]
	if len(ps.ready) == 1 {
		return 0
	}
	best, bestEntries := -1, 0.0
	for i, it := range ps.ready {
		e := a.activationEntries(it)
		if it.cont {
			// A started task: its memory is live, finish it first.
			return i
		}
		switch it.kind {
		case itemSlave, itemMaster:
			// Memory already committed (data arrived / selection done):
			// postponing cannot help; run them first.
			return i
		}
		if ps.exch != nil && a.prm.Strategy.CanActivate(ps.exch.View(), rank, e) {
			return i
		}
		if best < 0 || e < bestEntries {
			best, bestEntries = i, e
		}
	}
	return best
}

// activationEntries estimates the active-memory increase of starting an
// item.
func (a *app) activationEntries(it item) float64 {
	t := a.m.Tree
	n := &t.Nodes[it.node]
	switch it.kind {
	case itemNode:
		return tree.FrontEntries(n.Nfront, t.Sym)
	case itemType2:
		return tree.MasterBlockEntries(n.Nfront, n.Npiv, t.Sym)
	case itemType3:
		return it.entries
	}
	return 0
}

// ---- node lifecycle -----------------------------------------------------

// nodeReady fires when all children contributed: the node enters its
// master's ready queue (Algorithm 1's "local ready task"). It always
// runs on the master's own hosting context (contributions are routed to
// the parent's master before this is called).
func (a *app) nodeReady(node int32) {
	t := a.m.Tree
	n := &t.Nodes[node]
	master := int(a.m.Master[node])
	ps := a.procs[master]
	switch n.Type {
	case tree.Type2:
		// The master part becomes activatable: account its cost.
		mf := tree.MasterFlops(n.Nfront, n.Npiv, t.Sym)
		ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: mf}, false)
		ps.ready = append(ps.ready, item{kind: itemType2, node: node})
	case tree.Type3:
		a.startType3(node)
	default:
		if n.Subtree < 0 {
			// Upper Type 1 nodes: cost counted when activatable;
			// subtree nodes are already in the initial load.
			ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: n.Cost}, false)
		}
		ps.ready = append(ps.ready, item{kind: itemNode, node: node})
	}
	a.host.Wake(master)
}

// startType3 launches the 2D static root: every process computes an equal
// share (ScaLAPACK-like block-cyclic work, no dynamic decision).
func (a *app) startType3(node int32) {
	t := a.m.Tree
	n := &t.Nodes[node]
	np := len(a.procs)
	master := int(a.m.Master[node])
	flops := n.Cost / float64(np)
	entries := tree.FrontEntries(n.Nfront, t.Sym) / float64(np)
	bytes := entries * 8 / 4 // a 2D panel redistribution, much smaller than the front
	for p := 0; p < np; p++ {
		if p == master {
			continue
		}
		a.host.SendData(master, p, workload.DataMsg{
			Kind: KindType3Start, Node: node, Work: flops, Size: entries, Bytes: bytes,
		})
	}
	// The master's own share, locally; the children contributions get
	// redistributed over the whole 2D grid.
	ps := a.procs[master]
	all := make([]int32, np)
	for p := range all {
		all[p] = int32(p)
	}
	a.redistributePieces(master, node, all)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: flops}, false)
	ps.ready = append(ps.ready, item{kind: itemType3, node: node, flops: flops, entries: entries})
}

// selectAndCommit is the dynamic decision of a Type 2 master: runs once
// the mechanism's view is ready (synchronously for maintained views, at
// snapshot completion otherwise).
func (a *app) selectAndCommit(rank int, node int32) {
	t := a.m.Tree
	n := &t.Nodes[node]
	ns := &a.nodes[node]
	ps := a.procs[rank]

	var candidates []int32
	if a.prm.PartialSnapshots {
		candidates = a.m.Candidates[node]
	}
	shares := a.prm.Strategy.SelectSlavesAmong(ps.exch.View(), rank, candidates, n.Nfront, n.Npiv, t.Sym)
	if err := sched.ValidateShares(shares, n.Nfront, n.Npiv, rank); err != nil && len(shares) > 0 {
		panic("solver: invalid selection: " + err.Error())
	}
	ns.shares = shares
	a.decisions++
	a.assignments += len(shares)

	// Activation on the master: allocate the pivot block. The children's
	// contributions, stacked on their producers, are redistributed to
	// the selected slaves below.
	mb := tree.MasterBlockEntries(n.Nfront, n.Npiv, t.Sym)
	a.addMem(rank, mb)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Memory: mb}, false)

	// Publish the decision through the mechanism (Master_To_All for
	// increments, master_to_slave + end_snp for snapshots).
	asg := make([]core.Assignment, len(shares))
	for i, sh := range shares {
		asg[i] = core.Assignment{
			Proc: sh.Proc,
			Delta: core.Load{
				core.Workload: tree.SlaveFlops(n.Nfront, n.Npiv, sh.Rows, t.Sym),
				core.Memory:   tree.SlaveBlockEntries(n.Nfront, n.Npiv, sh.Rows, t.Sym),
			},
		}
		a.slaveFlops[sh.Proc] += asg[i].Delta[core.Workload]
	}
	ps.exch.Commit(ps.ctx, asg)
	if ps.mastersLeft--; ps.mastersLeft == 0 {
		ps.exch.NoMoreMaster(ps.ctx)
	}

	// Ship the subtasks (the actual rows: large data messages) and
	// redistribute the stacked children contributions to the slaves.
	// Each subtask carries the selection's total piece count (Peer
	// field): the slave needs it to tag its contribution piece, and the
	// share list itself lives only on the master.
	consumers := make([]int32, len(shares))
	for i, sh := range shares {
		rows := sh.Rows
		consumers[i] = sh.Proc
		bytes := float64(rows) * float64(n.Nfront) * 8
		a.host.SendData(rank, int(sh.Proc), workload.DataMsg{
			Kind: KindSubtask, Node: node, Count: rows, Peer: int32(len(shares)), Bytes: bytes,
		})
	}
	a.redistributePieces(rank, node, consumers)
	ps.ready = append(ps.ready, item{kind: itemMaster, node: node})
	a.host.Wake(rank)
}

// completeNode finishes a Type 1 / subtree node.
func (a *app) completeNode(rank int, node int32) {
	t := a.m.Tree
	n := &t.Nodes[node]
	ps := a.procs[rank]
	front := tree.FrontEntries(n.Nfront, t.Sym)
	cb := tree.CBEntries(n.Nfront, n.Npiv, t.Sym)
	a.markDone(node)
	stays := a.routePiece(rank, node, 1, cb)
	freed := front
	if stays {
		freed = front - cb // the contribution block remains stacked here
	}
	a.addMem(rank, -freed)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: -n.Cost, core.Memory: -freed}, false)
}

// completeMaster finishes the master part of a Type 2 node.
func (a *app) completeMaster(rank int, node int32) {
	t := a.m.Tree
	n := &t.Nodes[node]
	ns := &a.nodes[node]
	ps := a.procs[rank]
	mb := tree.MasterBlockEntries(n.Nfront, n.Npiv, t.Sym)
	mf := tree.MasterFlops(n.Nfront, n.Npiv, t.Sym)
	a.addMem(rank, -mb)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: -mf, core.Memory: -mb}, false)
	ns.masterDone = true
	if len(ns.shares) == 0 {
		// No slaves (degenerate): the master emits the completion piece.
		cb := tree.CBEntries(n.Nfront, n.Npiv, t.Sym)
		if a.routePiece(rank, node, 1, cb) && cb > 0 {
			a.addMem(rank, cb)
			ps.exch.LocalChange(ps.ctx, core.Load{core.Memory: cb}, false)
		}
	}
	a.checkType2Done(node)
}

// completeSlave finishes one slave share of a Type 2 node. The piece
// count comes from the subtask message; progress is reported to the
// node's master with a KindSlaveDone notification (the master tracks
// slavesDone — no shared bookkeeping).
func (a *app) completeSlave(rank int, node int32, rows, pieces int32) {
	t := a.m.Tree
	n := &t.Nodes[node]
	ps := a.procs[rank]
	work := tree.SlaveFlops(n.Nfront, n.Npiv, rows, t.Sym)
	block := tree.SlaveBlockEntries(n.Nfront, n.Npiv, rows, t.Sym)
	cbPc := tree.SlaveCBEntries(n.Nfront, n.Npiv, rows, t.Sym)
	stays := a.routePiece(rank, node, pieces, cbPc)
	freed := block
	if stays {
		freed = block - cbPc
	}
	a.addMem(rank, -freed)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: -work, core.Memory: -freed}, true)
	master := int(a.m.Master[node])
	if master == rank {
		// Defensive: selections never include the master today.
		a.nodes[node].slavesDone++
		a.checkType2Done(node)
		return
	}
	a.host.SendData(rank, master, workload.DataMsg{Kind: KindSlaveDone, Node: node, Bytes: NotifyBytes})
}

func (a *app) checkType2Done(node int32) {
	ns := &a.nodes[node]
	if ns.masterDone && int(ns.slavesDone) == len(ns.shares) && !ns.done {
		a.markDone(node)
	}
}

// completeType3 finishes one share of the 2D root: release the memory
// and report completion to the root's master (a KindType3Done
// notification when the share ran elsewhere).
func (a *app) completeType3(rank int, node int32, flops, entries float64) {
	ps := a.procs[rank]
	a.addMem(rank, -entries)
	ps.exch.LocalChange(ps.ctx, core.Load{core.Workload: -flops, core.Memory: -entries}, false)
	master := int(a.m.Master[node])
	if master == rank {
		a.type3ShareDone(node)
		return
	}
	a.host.SendData(rank, master, workload.DataMsg{Kind: KindType3Done, Node: node, Bytes: NotifyBytes})
}

// type3ShareDone runs on the 2D root's master: count one completed
// share, mark the root done when all processes finished theirs.
func (a *app) type3ShareDone(node int32) {
	ns := &a.nodes[node]
	ns.type3Done++
	if int(ns.type3Done) == len(a.procs) && !ns.done {
		a.markDone(node)
	}
}

// routePiece sends one contribution piece of `node` toward its parent.
// For a Type 1 parent the data travels to the owner immediately; for a
// parallel (Type 2/3) parent only a notification is sent and the data
// stays stacked on the producer until the parent's selection chooses the
// consumers. It reports whether the piece's memory remains on rank.
func (a *app) routePiece(rank int, node int32, pieces int32, entries float64) bool {
	parent := a.m.Tree.Nodes[node].Parent
	if parent < 0 {
		return false // root: the contribution is discarded
	}
	pm := int(a.m.Master[parent])
	parallel := a.m.Tree.Nodes[parent].Type != tree.Type1
	pl := workload.DataMsg{
		Kind: KindCB, Node: node, Count: pieces, Size: entries, Peer: int32(rank),
	}
	if pm == rank {
		a.deliverPiece(rank, pl)
		return true // stacked locally (either cbStacked or producer-side)
	}
	pl.Bytes = entries * 8
	if parallel {
		pl.Bytes = 32 // notification only
	}
	a.host.SendData(rank, pm, pl)
	return parallel
}

// deliverPiece runs on the parent's master: account the contribution
// (stacking it locally for Type 1 parents, registering the producer for
// parallel parents) and check readiness.
func (a *app) deliverPiece(rank int, pl workload.DataMsg) {
	child := pl.Node
	cs := &a.nodes[child]
	cs.piecesNeed = pl.Count
	cs.piecesGot++
	parent := a.m.Tree.Nodes[child].Parent
	pns := &a.nodes[parent]
	if a.m.Tree.Nodes[parent].Type == tree.Type1 {
		pns.cbStacked += pl.Size
		if int(pl.Peer) != rank {
			// Data arrived over the network: it now occupies the owner.
			a.addMem(rank, pl.Size)
			ps := a.procs[rank]
			ps.exch.LocalChange(ps.ctx, core.Load{core.Memory: pl.Size}, false)
		}
	} else {
		pns.pieces = append(pns.pieces, piece{producer: pl.Peer, entries: pl.Size})
	}
	if cs.piecesGot == cs.piecesNeed {
		if pns.missing--; pns.missing == 0 {
			a.nodeReady(parent)
		}
	}
}

// redistributePieces runs at a parallel parent's activation: every
// stacked piece is shipped from its producer to a consumer of the
// selection (weighted round-robin), freeing the producer's stack.
func (a *app) redistributePieces(rank int, node int32, consumers []int32) {
	ns := &a.nodes[node]
	ci := 0
	for _, pc := range ns.pieces {
		consumer := int32(rank)
		if len(consumers) > 0 {
			consumer = consumers[ci%len(consumers)]
			ci++
		}
		if int(pc.producer) == rank {
			a.shipPiece(rank, pc.entries, int(consumer))
			continue
		}
		a.host.SendData(rank, int(pc.producer), workload.DataMsg{
			Kind: KindShipReq, Size: pc.entries, Peer: consumer, Bytes: 32,
		})
	}
	ns.pieces = nil
}

func (a *app) markDone(node int32) {
	ns := &a.nodes[node]
	if ns.done {
		panic("solver: node completed twice")
	}
	ns.done = true
	a.doneCount++
}

// addMem adjusts a process's active memory and records the peak.
func (a *app) addMem(rank int, delta float64) {
	ps := a.procs[rank]
	ps.activeMem += delta
	if ps.activeMem > ps.peakMem {
		ps.peakMem = ps.activeMem
	}
}

// Outcome implements workload.App: package the application-level
// results, verifying the post-run invariants (every locally-mastered
// node completed, every local memory allocation released). Under
// forked hosting the per-rank slices carry zero values for the ranks
// other processes ran; the cluster parent merges the STATS reports.
func (a *app) Outcome(hr *workload.AppReport) workload.AppOutcome {
	out := workload.AppOutcome{
		Decisions: a.decisions,
		Counters:  a.counters,
	}
	for _, ps := range a.procs {
		if ps == nil {
			out.Executed = append(out.Executed, 0)
			out.Stats = append(out.Stats, core.Stats{})
			out.FinalViews = append(out.FinalViews, nil)
			continue
		}
		out.Executed = append(out.Executed, ps.executed)
		out.Stats = append(out.Stats, ps.exch.Stats())
		out.FinalViews = append(out.FinalViews, ps.exch.View())
	}
	out.Result = a.result(hr)
	if a.doneCount != a.expectedDone {
		out.Err = fmt.Errorf("solver: deadlock, only %d/%d locally-mastered nodes completed", a.doneCount, a.expectedDone)
		return out
	}
	for p, ps := range a.procs {
		if ps == nil {
			continue
		}
		if ps.activeMem > 1e-3 || ps.activeMem < -1e-3 {
			out.Err = fmt.Errorf("solver: process %d ends with active memory %v (accounting bug)", p, ps.activeMem)
			return out
		}
	}
	return out
}

// result gathers the metrics after the run from the application state
// and the host's report.
func (a *app) result(hr *workload.AppReport) *Result {
	res := &Result{
		Time:          hr.Time,
		PeakMem:       make([]float64, len(a.procs)),
		ExecutedFlops: make([]float64, len(a.procs)),
		Decisions:     a.decisions,
		Assignments:   a.assignments,
		Steps:         hr.Steps,
		PausedTime:    hr.PausedTime,
		StaticFlops:   make([]float64, len(a.procs)),
		SlaveFlops:    a.slaveFlops,
		Compute:       hr.Compute,
		Blocked:       hr.Blocked,
		Idle:          hr.Idle,
		StateMsgs:     hr.Counters.StateMsgs,
		StateBytes:    hr.Counters.StateBytes,
		DataMsgs:      hr.Counters.DataMsgs,
		CtrlMsgs:      hr.Counters.CtrlMsgs,
		CtrlBytes:     hr.Counters.CtrlBytes,
		PerKind:       hr.Counters.PerKind,
	}
	for p, ps := range a.procs {
		if ps == nil {
			continue
		}
		res.PeakMem[p] = ps.peakMem
		res.ExecutedFlops[p] = ps.flops
		if ps.peakMem > res.MaxPeakMem {
			res.MaxPeakMem = ps.peakMem
		}
		st := ps.exch.Stats()
		res.SnapshotTime += st.SnapshotTime
		res.SnapshotCount += st.SnapshotsInitiated
		res.SnapshotRestarts += st.SnapshotRestarts
		if st.MaxConcurrentSnapshots > res.MaxConcurrentSnapshots {
			res.MaxConcurrentSnapshots = st.MaxConcurrentSnapshots
		}
	}
	t := a.m.Tree
	for i := range t.Nodes {
		n, master := &t.Nodes[i], a.m.Master[i]
		switch n.Type {
		case tree.Type2:
			res.StaticFlops[master] += tree.MasterFlops(n.Nfront, n.Npiv, t.Sym)
		case tree.Type3:
			for p := range res.StaticFlops {
				res.StaticFlops[p] += n.Cost / float64(len(a.procs))
			}
		default:
			res.StaticFlops[master] += n.Cost
		}
	}
	return res
}
