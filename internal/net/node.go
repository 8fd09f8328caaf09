package net

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// Options tunes a Node.
type Options struct {
	// DialTimeout bounds the whole mesh-connection phase (default 10s).
	DialTimeout time.Duration
	// Logf, when set, receives transport diagnostics (dropped frames,
	// connection errors during shutdown).
	Logf func(format string, args ...any)
	// CloseGrace bounds how long Close waits for peers to half-close
	// their side before forcing connections shut (default 5s).
	CloseGrace time.Duration
	// Initial is the per-rank initial load vector (nil means all zero).
	// Every process knows the full vector — the paper's static-mapping
	// convention — so each node seeds every peer's entry into its view
	// at Init time instead of broadcasting. The node keeps the slice as
	// its view's read-only seed (core.SeedView), which the nodes of an
	// in-process Cluster share: the caller must not write it after
	// NewNode.
	Initial []core.Load
	// Speed is the per-rank execution-time multiplier (nil or 0 entries
	// mean nominal speed); a node scales the spin of work items it
	// executes by its own factor.
	Speed []float64
	// Chaos, when active, degrades this node's outbound links per the
	// plan: a fault writer between each writer goroutine and its socket
	// delays, drops, reorders or severs individual frames (wall time).
	// Give every node of a cluster the same plan so each directed link
	// is faulted exactly once, on its sending side.
	Chaos *chaos.Plan
	// Rec, when non-nil, receives the trace events `loadex validate`
	// checks: one send per assigned work item, one recv/start/done per
	// executed one, one decide per committed decision.
	Rec *chaos.Recorder
}

// inMsg is one item of the mailbox's state class: either a decoded
// state message or a control closure to run on the node goroutine.
type inMsg struct {
	from    int
	kind    int
	payload any
	ctl     func()
}

// dataMsg is one item of the mailbox's data class: a work item of the
// built-in loop.
type dataMsg struct {
	from int
	load core.Load
	spin time.Duration
}

// ctrlMsg is one inbound termination-detection control frame.
type ctrlMsg struct {
	from int
	c    termdet.Ctrl
}

// peer is one TCP link. The node with the higher rank dials the lower
// one, so every unordered pair shares exactly one connection; a reader
// goroutine decodes inbound frames and a writer goroutine owns the
// outbound half (per-pair FIFO order, which the snapshot protocol
// relies on, is therefore preserved end to end).
type peer struct {
	rank int
	conn net.Conn
	out  *outbox
}

// TransportStats counts wire-level traffic of one node.
type TransportStats struct {
	MsgsIn, MsgsOut   int64
	BytesIn, BytesOut int64
	// InboxPeak is the deepest the mailbox ever was (all classes),
	// OutboxPeak the deepest any one link's outbox was: the queue
	// lengths a load-balancing study should report, and the first place
	// to look when memory grows — the queues are unbounded on purpose.
	InboxPeak, OutboxPeak int64
	// DroppedOut counts messages posted to a link whose writer had
	// exited (peer gone, link severed): dropped, not queued.
	DroppedOut int64
}

// Node is one process of a TCP cluster. A single goroutine owns the
// mechanism and consumes the node's mailbox in Algorithm 1's order —
// state messages before data, data only while the mechanism is not
// Busy — so the priority is a property of the queue, not of which
// goroutine happens to block where. The transport goroutines (one
// reader and one writer per peer) never call into the mechanism and
// never wait for the node goroutine: a reader always has room to put.
//
// A node hosting a workload.App rank (AppRunner, AppNode) keeps its
// built-in loop, idle beneath the rank: the rank runs the shared rank
// loop over the node's job-0 port, which receives the untagged state,
// data and control frames.
type Node struct {
	rank, n int
	mech    core.Mech
	exch    core.Exchanger
	opts    Options
	speed   float64
	start   time.Time
	// topo is the neighbor graph; nil means the complete graph. The
	// mesh only ever dials/accepts topology edges — a non-neighbor pair
	// shares no socket at all.
	topo *core.Topology

	ln        net.Listener
	peers     []*peer
	in        *mailbox[ctrlMsg, inMsg, dataMsg]
	port0     *JobPort // the hosted App rank's port; nil on a built-in loop node
	quit      chan struct{}
	done      chan struct{} // main loop exited
	wgReaders sync.WaitGroup
	wgWriters sync.WaitGroup
	started   atomic.Bool
	closing   atomic.Bool
	// lifeMu serializes Start against Close's teardown: Close sets
	// closing, then waits for an in-flight Start to finish (Start aborts
	// at its final gate when it observes closing), so the run loop is
	// never launched after Close decided nobody would close done.
	lifeMu sync.Mutex

	// executed counts completed work items; outstanding counts work
	// items this node assigned that have not been acknowledged yet (a
	// reader that brings it to zero signals drained); assigned counts
	// work items ever assigned by this node.
	executed    atomic.Int64
	outstanding atomic.Int64
	drained     chan struct{} // capacity 1
	assigned    atomic.Int64

	msgsIn, msgsOut   atomic.Int64
	bytesIn, bytesOut atomic.Int64
	droppedOut        atomic.Int64

	// Real wire tallies by state kind, in encoded frame-body bytes
	// (excluding the FrameHeaderBytes length prefix), updated by the
	// writer goroutines at encode time — the ground truth the
	// core.Bytes* estimates are checked against.
	stateKindMsgs  [core.KindMax + 1]atomic.Int64
	stateKindBytes [core.KindMax + 1]atomic.Int64
	workMsgsOut    atomic.Int64
	workBytesOut   atomic.Int64
	ctrlMsgsOut    atomic.Int64
	ctrlBytesOut   atomic.Int64

	// Measurement state owned by the node goroutine (read elsewhere only
	// through Invoke, or after Close when everything is quiesced).
	est  core.Counters      // state/data tallies from the core byte hints
	busy workload.BusyMeter // the built-in loop's snapshot-blocked wall-clock time
	// decisions and the float-bits decLatency mirror are written only by
	// the node goroutine but read by the obs scrape path at any time, so
	// they live in atomics.
	decisions      atomic.Int64
	decLatencyBits atomic.Uint64 // seconds, Acquire → view-ready, summed

	// jobMu guards jobs, the registry of multiplexed job ports
	// (internal/service): readLoop routes job-tagged frames to the port
	// registered under the frame's job id. Frames for a job id with no
	// registered port are dropped — the job already finished here, or
	// was never admitted on this rank.
	jobMu sync.RWMutex
	jobs  map[int32]*JobPort
}

// NewNode creates a node of rank within n processes running mech. The
// node is inert until Listen and Start are called.
func NewNode(rank, n int, mech core.Mech, cfg core.Config, opts Options) (*Node, error) {
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("net: rank %d out of range [0,%d)", rank, n)
	}
	exch, err := core.New(mech, n, rank, cfg)
	if err != nil {
		return nil, err
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.CloseGrace <= 0 {
		opts.CloseGrace = 5 * time.Second
	}
	if opts.Initial != nil && len(opts.Initial) != n {
		return nil, fmt.Errorf("net: %d initial loads for %d ranks", len(opts.Initial), n)
	}
	if opts.Speed != nil && len(opts.Speed) != n {
		return nil, fmt.Errorf("net: %d speed factors for %d ranks", len(opts.Speed), n)
	}
	speed := 1.0
	if opts.Speed != nil && opts.Speed[rank] > 0 {
		speed = opts.Speed[rank]
	}
	nd := &Node{
		rank: rank, n: n,
		mech:    mech,
		exch:    exch,
		opts:    opts,
		speed:   speed,
		start:   time.Now(),
		topo:    cfg.Topo,
		peers:   make([]*peer, n),
		in:      newMailbox[ctrlMsg, inMsg, dataMsg](),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		drained: make(chan struct{}, 1),
	}
	nd.busy = workload.BusyMeter{Now: nodeCtx{nd}.Now, Rec: opts.Rec, Rank: rank}
	return nd, nil
}

// Rank returns the node's rank.
func (nd *Node) Rank() int { return nd.rank }

// edge reports whether (rank, r) is a topology edge — a pair the mesh
// connects. A nil topology is the complete graph.
func (nd *Node) edge(r int) bool { return nd.topo.Edge(nd.rank, r) }

// Links counts the node's live peer connections — its topology degree
// once Start has built the mesh.
func (nd *Node) Links() int {
	links := 0
	for _, p := range nd.peers {
		if p != nil {
			links++
		}
	}
	return links
}

// Listen binds the node's listener and returns the concrete address
// (resolve ephemeral ports by passing "127.0.0.1:0").
func (nd *Node) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	nd.ln = ln
	return ln.Addr().String(), nil
}

// Start connects the mesh and launches the node goroutines. addrs lists
// every rank's listen address (the entry for this rank is ignored). The
// node dials every lower rank and accepts a connection from every
// higher rank, identified by a Hello frame, so each pair ends up with
// exactly one connection.
func (nd *Node) Start(addrs []string) error {
	nd.lifeMu.Lock()
	defer nd.lifeMu.Unlock()
	if nd.closing.Load() {
		return fmt.Errorf("net: rank %d: Start after Close", nd.rank)
	}
	if nd.ln == nil {
		return fmt.Errorf("net: Start before Listen")
	}
	if len(addrs) != nd.n {
		return fmt.Errorf("net: %d addresses for %d ranks", len(addrs), nd.n)
	}
	deadline := time.Now().Add(nd.opts.DialTimeout)

	type accepted struct {
		rank int
		conn net.Conn
		err  error
	}
	// Mesh links follow the topology: this node dials its lower-rank
	// neighbors and accepts its higher-rank ones. A non-neighbor pair
	// shares no socket at all — on a sparse graph the link count scales
	// with the degree, not with n.
	var dials []int
	expect := 0
	for s := 0; s < nd.n; s++ {
		switch {
		case s == nd.rank || !nd.edge(s):
		case s < nd.rank:
			dials = append(dials, s)
		default:
			expect++
		}
	}
	acceptCh := make(chan accepted, expect)
	for i := 0; i < expect; i++ {
		go func() {
			conn, err := nd.ln.Accept()
			if err != nil {
				acceptCh <- accepted{err: err}
				return
			}
			conn.SetReadDeadline(deadline)
			// Read the hello frame straight off the conn: ReadFrame uses
			// io.ReadFull, so it cannot over-read into the peer's next
			// frame (a buffered reader here would swallow those bytes —
			// the peer may already be streaming state messages).
			body, err := ReadFrame(conn, nil)
			if err == nil {
				var m Message
				m, err = BinaryCodec{}.Decode(body)
				if err == nil && m.Type != TypeHello {
					err = fmt.Errorf("net: expected hello, got %s", m.Type)
				}
				if err == nil {
					conn.SetReadDeadline(time.Time{})
					acceptCh <- accepted{rank: int(m.From), conn: conn}
					return
				}
			}
			conn.Close()
			acceptCh <- accepted{err: err}
		}()
	}

	consumed := 0
	fail := func(err error) error {
		for _, p := range nd.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		nd.ln.Close()
		// The accept goroutines post exactly expect results; close any
		// connection still parked (or about to land) in the buffer.
		go func(pending int) {
			for i := 0; i < pending; i++ {
				if a := <-acceptCh; a.conn != nil {
					a.conn.Close()
				}
			}
		}(expect - consumed)
		return err
	}

	// Dial every lower-rank neighbor, retrying with jittered exponential
	// backoff: with the loadex stdio handshake everyone is already
	// listening, but a raw deployment may start ranks in any order. Each
	// peer gets a fair share of the remaining budget — its share of the
	// overall deadline divided by the dials still to make — so one dead
	// address cannot starve every later dial, and the jitter keeps a
	// large cluster's retries from herding onto a recovering listener.
	for i, s := range dials {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fail(fmt.Errorf("net: rank %d dialing rank %d: mesh dial budget exhausted", nd.rank, s))
		}
		peerDeadline := time.Now().Add(remaining / time.Duration(len(dials)-i))
		var conn net.Conn
		var err error
		backoff := 2 * time.Millisecond
		for {
			d := net.Dialer{Deadline: peerDeadline}
			conn, err = d.Dial("tcp", addrs[s])
			if err == nil || time.Now().After(peerDeadline) {
				break
			}
			time.Sleep(backoff/2 + rand.N(backoff))
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
		}
		if err != nil {
			return fail(fmt.Errorf("net: rank %d dialing rank %d: %w", nd.rank, s, err))
		}
		hello, err := BinaryCodec{}.Encode(nil, Message{Type: TypeHello, From: int32(nd.rank)})
		if err != nil {
			conn.Close()
			return fail(err)
		}
		if err := WriteFrame(conn, hello); err != nil {
			conn.Close()
			return fail(fmt.Errorf("net: rank %d hello to rank %d: %w", nd.rank, s, err))
		}
		nd.peers[s] = &peer{rank: s, conn: conn, out: newOutbox()}
	}

	for i := 0; i < expect; i++ {
		a := <-acceptCh
		consumed++
		if a.err != nil {
			return fail(fmt.Errorf("net: rank %d accepting: %w", nd.rank, a.err))
		}
		if a.rank <= nd.rank || a.rank >= nd.n || !nd.edge(a.rank) || nd.peers[a.rank] != nil {
			a.conn.Close()
			return fail(fmt.Errorf("net: rank %d got hello from unexpected rank %d", nd.rank, a.rank))
		}
		nd.peers[a.rank] = &peer{rank: a.rank, conn: a.conn, out: newOutbox()}
	}

	initial := core.Load{}
	if nd.opts.Initial != nil {
		initial = nd.opts.Initial[nd.rank]
	}
	nd.exch.Init(nodeCtx{nd}, initial)
	core.SeedView(nd.exch, nd.rank, nd.opts.Initial)
	for _, p := range nd.peers {
		if p == nil {
			continue
		}
		nd.wgReaders.Add(1)
		nd.wgWriters.Add(1)
		go nd.readLoop(p)
		go nd.writeLoop(p)
	}
	// Final gate: a Close that raced this Start set closing and is now
	// blocked on lifeMu; do not launch the run loop it will not stop —
	// Close will see started=false and close done itself. The readers
	// and writers just launched exit through the closed conns and quit.
	if nd.closing.Load() {
		return fail(fmt.Errorf("net: rank %d: node closed during start", nd.rank))
	}
	nd.started.Store(true)
	go nd.run()
	return nil
}

// readLoop decodes inbound frames from one peer and routes them. It
// never waits for a consumer — every route is a mailbox put or a
// counter — so a rank always drains its sockets, whatever its node
// goroutine or any one job's driver is doing: a state message is never
// stuck behind data the rank may not treat yet. After Close begins it
// keeps draining (and discarding) until the peer's EOF: closing the
// socket with unread inbound data would RST the connection and could
// destroy our own final frames — a termination announcement — in the
// peer's receive buffer.
func (nd *Node) readLoop(p *peer) {
	defer nd.wgReaders.Done()
	br := bufio.NewReaderSize(p.conn, 1<<16)
	var buf []byte
	// m is reused across frames: DecodeInto recycles its payload slice
	// capacity, so the steady-state read path decodes without
	// allocating. A payload that escapes to another goroutine with a
	// reference into m (an assignment list) hands the slice over by
	// niling the field below, so the next decode allocates fresh instead
	// of scribbling on a published slice.
	var m Message
	for {
		body, err := ReadFrame(br, buf)
		if err != nil {
			// EOF is a peer's orderly shutdown, not a fault; anything
			// else severs the link, so the peer fails fast instead of
			// blocking on a socket nobody reads.
			if !nd.closing.Load() && err != io.EOF {
				nd.logf("net: rank %d read from %d: %v", nd.rank, p.rank, err)
				p.conn.Close()
			}
			return
		}
		buf = body
		if err := (BinaryCodec{}).DecodeInto(body, &m); err != nil {
			nd.logf("net: rank %d bad frame from %d: %v", nd.rank, p.rank, err)
			p.conn.Close()
			return
		}
		if nd.closing.Load() {
			continue // draining toward EOF; the node is gone
		}
		nd.msgsIn.Add(1)
		nd.bytesIn.Add(int64(len(body)) + FrameHeaderBytes)
		// Rank fields index views and peer tables downstream; a frame
		// that decodes but carries an out-of-range rank is as hostile
		// as one that does not decode.
		if !nd.validRanks(&m) {
			nd.logf("net: rank %d frame with out-of-range rank from %d: %+v", nd.rank, p.rank, m)
			p.conn.Close()
			return
		}
		switch {
		case m.Job != 0:
			if !nd.routeJob(&m) {
				nd.logf("net: rank %d dropped %s for unknown job %d from %d", nd.rank, m.Type, m.Job, p.rank)
			}
		case m.Type == TypeState:
			if jp := nd.port0; jp != nil {
				jp.put(&m)
			} else {
				nd.in.putState(inMsg{from: int(m.From), kind: int(m.Kind), payload: m.StatePayload()})
			}
		case m.Type == TypeWork || m.Type == TypeData || m.Type == TypeCtrl:
			// A work item is for the built-in loop; application messages
			// and detector frames are for a hosted App rank. The other
			// kind has no consumer on this node.
			switch {
			case (m.Type == TypeWork) != (nd.port0 == nil):
				nd.logf("net: rank %d unexpected %s from %d", nd.rank, m.Type, p.rank)
			case m.Type == TypeWork:
				nd.in.putData(dataMsg{from: int(m.From), load: m.Load, spin: time.Duration(m.Spin)})
			default:
				nd.port0.put(&m)
			}
		case m.Type == TypeWorkDone:
			if nd.outstanding.Add(-1) == 0 {
				select {
				case nd.drained <- struct{}{}:
				default: // a wake-up is already pending
				}
			}
		default:
			nd.logf("net: rank %d unexpected %s from %d", nd.rank, m.Type, p.rank)
		}
		// A state payload just posted may reference m's master_to_all
		// assignments; transfer ownership so the next DecodeInto can't
		// overwrite a slice another goroutine is reading.
		if len(m.Assignments) > 0 {
			m.Assignments = nil
		}
	}
}

// validRanks reports whether every rank a message carries is a usable
// process index.
func (nd *Node) validRanks(m *Message) bool {
	if m.From < 0 || int(m.From) >= nd.n || int(m.From) == nd.rank {
		return false
	}
	for _, a := range m.Assignments {
		if a.Proc < 0 || int(a.Proc) >= nd.n {
			return false
		}
	}
	return true
}

// encodeBufs pools encode scratch buffers across every writer
// goroutine of every node in the process: a writer holds a buffer only
// for the duration of one encode+write, so a cluster of n nodes with
// n-1 writers each retains O(active writers) buffers instead of one
// grown buffer per (node, peer) pair for the node's whole lifetime.
var encodeBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// writeLoop encodes and writes one peer's outbound messages. A drained
// queue leaves as one vectored write: each frame is encoded
// length-prefix-first into a pooled buffer, the batch is collected into
// a net.Buffers, and WriteTo hands the whole thing to the kernel in a
// single writev on a TCP connection — one syscall per drained queue
// instead of copying every frame through a bufio buffer.
func (nd *Node) writeLoop(p *peer) {
	defer nd.wgWriters.Done()
	// The fault writer (if any) sits between the batch and the socket:
	// p.conn itself stays raw so Close can still half-close the TCP
	// connection. net.Buffers falls back to one Write per frame on a
	// non-TCP writer, which keeps the fault writer's frame accumulator
	// fed exactly as before.
	var out io.Writer = p.conn
	if nd.opts.Chaos.Active() {
		out = newFaultWriter(p.conn, nd.opts.Chaos, nd.rank, p.rank, nd.start, nd.quit)
	}
	// Batch bounds: keep a burst from pinning unbounded memory while
	// still amortizing far more than one frame per syscall.
	const maxBatchFrames = 256
	const maxBatchBytes = 256 << 10
	var (
		frames  []*[]byte // pooled backing buffers of the open batch
		bufs    net.Buffers
		pending int // bytes in the open batch
	)
	recycle := func() {
		for _, bp := range frames {
			encodeBufs.Put(bp)
		}
		frames = frames[:0]
		bufs = bufs[:0]
		pending = 0
	}
	defer recycle()
	encode := func(m Message) bool {
		bp := encodeBufs.Get().(*[]byte)
		b := append((*bp)[:0], 0, 0, 0, 0) // length prefix, patched below
		b, err := BinaryCodec{}.Encode(b, m)
		if err != nil {
			*bp = b[:0]
			encodeBufs.Put(bp)
			nd.logf("net: rank %d encode for %d: %v", nd.rank, p.rank, err)
			return false
		}
		body := b[FrameHeaderBytes:]
		if len(body) > MaxFrame {
			*bp = b[:0]
			encodeBufs.Put(bp)
			nd.logf("net: rank %d encode for %d: frame of %d bytes exceeds MaxFrame", nd.rank, p.rank, len(body))
			return false
		}
		binary.BigEndian.PutUint32(b[:FrameHeaderBytes], uint32(len(body)))
		*bp = b
		frames = append(frames, bp)
		bufs = append(bufs, b)
		pending += len(b)
		nd.msgsOut.Add(1)
		nd.bytesOut.Add(int64(len(b)))
		switch m.Type {
		case TypeState:
			if k := int(m.Kind); k >= 0 && k < len(nd.stateKindMsgs) {
				nd.stateKindMsgs[k].Add(1)
				nd.stateKindBytes[k].Add(int64(len(body)))
			}
		case TypeWork, TypeData:
			nd.workMsgsOut.Add(1)
			nd.workBytesOut.Add(int64(len(body)))
		case TypeCtrl:
			nd.ctrlMsgsOut.Add(1)
			nd.ctrlBytesOut.Add(int64(len(body)))
		}
		return true
	}
	flush := func() bool {
		if len(bufs) == 0 {
			return true
		}
		vb := bufs
		_, err := vb.WriteTo(out)
		recycle()
		if err != nil {
			if !nd.closing.Load() {
				nd.logf("net: rank %d write to %d: %v", nd.rank, p.rank, err)
			}
			return false
		}
		return true
	}
	// The outbox is closed on every way out, so posts to a link without
	// a writer are dropped and counted instead of piling up. Messages a
	// failed writer leaves behind are drops too; at shutdown they are
	// just the run ending.
	defer func() {
		if left := p.out.close(); left > 0 && !nd.closing.Load() {
			nd.droppedOut.Add(int64(left))
		}
	}()
	// send encodes one backlog, flushing whenever the batch bounds are
	// reached, and writes the rest.
	var batch []Message
	send := func() bool {
		for i := range batch {
			if !encode(batch[i]) {
				return false
			}
			if len(frames) >= maxBatchFrames || pending >= maxBatchBytes {
				if !flush() {
					return false
				}
			}
		}
		clear(batch) // drop payload references before the array is refilled
		return flush()
	}
	for {
		// Take before parking: only a writer that found the outbox empty
		// is armed, and only an armed writer is woken.
		if batch = p.out.swap(batch); len(batch) > 0 {
			if !send() {
				return
			}
			continue
		}
		select {
		case <-p.out.wake:
		case <-nd.quit:
			// Write what was queued before shutdown (a forwarded
			// termination announcement, trailing acks).
			batch = p.out.swap(batch)
			send()
			return
		}
	}
}

// post queues a message for one peer and returns at once: the protocol
// the node goroutine runs assumes asynchronous sends, and a rank blocked
// sending is a rank not draining — two such ranks facing each other are
// a deadlock. What is in flight is bounded by the workloads' closed
// loops and by TCP flow control on the writers, and shown by
// TransportStats.OutboxPeak. A link whose writer has exited takes no
// more messages; those posts are dropped and counted in DroppedOut.
func (nd *Node) post(to int, m Message) {
	p := nd.peers[to]
	if p == nil {
		nd.logf("net: rank %d send to unconnected rank %d", nd.rank, to)
		return
	}
	if !p.out.put(m) && !nd.closing.Load() {
		nd.droppedOut.Add(1)
	}
}

// nodeCtx adapts the node to core.Context. Only the node goroutine uses
// it.
type nodeCtx struct{ nd *Node }

func (c nodeCtx) Rank() int    { return c.nd.rank }
func (c nodeCtx) N() int       { return c.nd.n }
func (c nodeCtx) Now() float64 { return time.Since(c.nd.start).Seconds() }

func (c nodeCtx) Send(to int, kind int, payload any, bytes float64) {
	if to == c.nd.rank {
		// Mechanisms never self-send; deliver locally just in case.
		c.nd.in.putState(inMsg{from: to, kind: kind, payload: payload})
		return
	}
	// Tally what the core constants claim this message weighs; the
	// writer goroutine tallies what the codec actually emits. The codec
	// tests assert the two never drift apart.
	c.nd.est.AddState(kind, bytes)
	// One send-only trace event per state message: `loadex validate`
	// checks every one travels a topology edge.
	c.nd.opts.Rec.Record(chaos.Event{Ev: chaos.EvState, Rank: c.nd.rank, Peer: to, Kind: int32(kind)})
	m, err := StateMessage(c.nd.rank, kind, payload)
	if err != nil {
		panic(err) // a core payload the codec cannot carry is a programming error
	}
	c.nd.post(to, m)
}

func (c nodeCtx) Broadcast(kind int, payload any, bytes float64) {
	for to := 0; to < c.nd.n; to++ {
		if to != c.nd.rank {
			c.Send(to, kind, payload, bytes)
		}
	}
}

// run is the node main loop — Algorithm 1: treat the next state
// message if there is one, a work item only when there is none and no
// snapshot is in progress, and park when there is nothing to treat.
func (nd *Node) run() {
	defer close(nd.done)
	defer nd.busy.EndSpan() // a snapshot round in flight at shutdown
	for {
		select {
		case <-nd.quit:
			return
		default:
		}
		switch cl, _, m, w := nd.in.take(!nd.exch.Busy()); cl {
		case workload.ClassState:
			nd.handle(m)
		case workload.ClassData:
			nd.execute(w)
		case workload.ClassNone:
			select {
			case <-nd.in.wake:
			case <-nd.quit:
				return
			}
		}
	}
}

// handle treats one state-channel item. Both branches can flip the
// mechanism's Busy state (control closures run Acquire and Commit), so
// both are followed by a busy-time check.
func (nd *Node) handle(m inMsg) {
	if m.ctl != nil {
		m.ctl()
		nd.busy.Observe(nd.exch.Busy())
		return
	}
	nd.exch.HandleMessage(nodeCtx{nd}, m.from, m.kind, m.payload)
	nd.busy.Observe(nd.exch.Busy())
}

// execute performs one work item (spin scaled by this node's speed
// factor) and acknowledges it to the assigner.
func (nd *Node) execute(w dataMsg) {
	if rec := nd.opts.Rec; rec != nil {
		now := nodeCtx{nd}.Now()
		rec.Record(chaos.Event{Ev: chaos.EvRecv, Rank: nd.rank, Peer: w.from,
			Kind: int32(TypeWork), Work: w.load[core.Workload], Spin: w.spin.Seconds(), T: now})
		rec.Record(chaos.Event{Ev: chaos.EvStart, Rank: nd.rank, T: now})
	}
	c := nodeCtx{nd}
	nd.exch.LocalChange(c, w.load, true)
	if w.spin > 0 {
		spin := w.spin
		if nd.speed != 1 {
			spin = time.Duration(float64(spin) * nd.speed)
		}
		time.Sleep(spin)
	}
	neg := w.load
	for i := range neg {
		neg[i] = -neg[i]
	}
	nd.exch.LocalChange(c, neg, true)
	nd.executed.Add(1)
	if rec := nd.opts.Rec; rec != nil {
		rec.Record(chaos.Event{Ev: chaos.EvDone, Rank: nd.rank, T: nodeCtx{nd}.Now()})
	}
	nd.post(w.from, Message{Type: TypeWorkDone, From: int32(nd.rank)})
}

// Invoke runs fn on the node goroutine (where the mechanism may be
// touched) and waits for it to finish.
func (nd *Node) Invoke(fn func(ctx core.Context, exch core.Exchanger)) {
	select {
	case <-nd.done:
		return // node already stopped
	default:
	}
	done := make(chan struct{})
	nd.in.putState(inMsg{ctl: func() {
		fn(nodeCtx{nd}, nd.exch)
		close(done)
	}})
	select {
	case <-done:
	case <-nd.done:
	}
}

// AssignWork ships one work item to rank `to` and counts it
// outstanding until the execution acknowledgment returns. Must be
// called from the node goroutine (inside Invoke).
func (nd *Node) AssignWork(to int, load core.Load, spin time.Duration) {
	nd.outstanding.Add(1)
	nd.est.AddData(core.BytesWorkItem)
	if rec := nd.opts.Rec; rec != nil {
		rec.Record(chaos.Event{Ev: chaos.EvSend, Rank: nd.rank, Peer: to,
			Kind: int32(TypeWork), Work: load[core.Workload], Spin: spin.Seconds(), T: nodeCtx{nd}.Now()})
	}
	nd.post(to, Message{Type: TypeWork, From: int32(nd.rank), Load: load, Spin: int64(spin)})
}

// Decide performs one dynamic decision on this node: acquire a coherent
// view, select the `slaves` least-loaded peers per that view (on the
// node's topology), commit the reservation and, when ship is non-nil,
// hand it each assignment on the node goroutine. It blocks until the
// decision completed (for the snapshot mechanism, until the snapshot
// finished) and returns the record the equivalence tests check with its
// acquire latency in seconds. Decisions on one node must not overlap;
// concurrent decisions on different nodes are the point.
func (nd *Node) Decide(totalWork float64, slaves int, ship func(to int, delta core.Load)) (core.Decision, float64, error) {
	dec := core.Decision{Master: nd.rank}
	done := make(chan float64, 1) // the acquire latency
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		rec := nd.opts.Rec
		beginT := nodeCtx{nd}.Now()
		sidDec := rec.SpanBegin(nd.rank, "decision", beginT)
		sidAcq := rec.SpanBegin(nd.rank, "decision.acquire", beginT)
		acquireAt := time.Now()
		exch.Acquire(ctx, func() {
			lat := time.Since(acquireAt).Seconds()
			nd.decisions.Add(1)
			nd.decLatencyBits.Store(floatBits(floatFromBits(nd.decLatencyBits.Load()) + lat))
			// The acquire span closes at exactly beginT+lat: its traced
			// duration IS the latency added to the counter, so summed
			// decision.acquire spans reconcile with decision_latency to
			// float rounding (the `loadex report` acceptance check).
			acqEnd := beginT + lat
			rec.SpanEnd(nd.rank, "decision.acquire", sidAcq, acqEnd)
			sidPlan := rec.SpanBegin(nd.rank, "decision.plan", acqEnd)
			dec = core.PlanDecisionOn(nd.topo, exch.View(), nd.rank, slaves, totalWork)
			if rec != nil {
				ev := chaos.Event{Ev: chaos.EvDecide, Rank: nd.rank,
					Work: totalWork, Slaves: slaves}
				for _, l := range dec.View {
					ev.View = append(ev.View, l[core.Workload])
				}
				for _, a := range dec.Assignments {
					ev.Sel = append(ev.Sel, int(a.Proc))
				}
				rec.Record(ev)
			}
			// The cumulative counter leads Commit: any snapshot cut that
			// observed this decision's credits is covered by a later
			// read of Assigned() (the conservation tests rely on it).
			nd.assigned.Add(int64(len(dec.Assignments)))
			exch.Commit(ctx, dec.Assignments)
			planEnd := nodeCtx{nd}.Now()
			if planEnd < acqEnd {
				planEnd = acqEnd
			}
			rec.SpanEnd(nd.rank, "decision.plan", sidPlan, planEnd)
			sidXfer := rec.SpanBegin(nd.rank, "decision.transfer", planEnd)
			if ship != nil {
				for _, a := range dec.Assignments {
					ship(int(a.Proc), a.Delta)
				}
			}
			endT := nodeCtx{nd}.Now()
			if endT < planEnd {
				endT = planEnd
			}
			rec.SpanEnd(nd.rank, "decision.transfer", sidXfer, endT)
			rec.SpanEnd(nd.rank, "decision", sidDec, endT)
			done <- lat
		})
	})
	select {
	case lat := <-done:
		return dec, lat, nil
	case <-nd.done:
		return dec, 0, fmt.Errorf("net: node %d stopped during decision", nd.rank)
	}
}

// AcquireView runs one full view acquisition — a snapshot, for the
// snapshot mechanism — committing no assignment, and returns the
// coherent view.
func (nd *Node) AcquireView() ([]core.Load, error) {
	var view []core.Load
	done := make(chan struct{})
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		exch.Acquire(ctx, func() {
			view = exch.View().Snapshot()
			exch.Commit(ctx, nil)
			close(done)
		})
	})
	select {
	case <-done:
	case <-nd.done:
		return nil, fmt.Errorf("net: node %d stopped during acquire", nd.rank)
	}
	return view, nil
}

// LocalChange applies a spontaneous local load variation (not slave
// work) on the node goroutine and returns once it is applied.
func (nd *Node) LocalChange(delta core.Load) {
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		exch.LocalChange(ctx, delta, false)
	})
}

// NoMoreMaster announces this node will never take a dynamic decision
// again (§2.3), on the node goroutine.
func (nd *Node) NoMoreMaster() {
	nd.Invoke(func(ctx core.Context, exch core.Exchanger) {
		exch.NoMoreMaster(ctx)
	})
}

// awaitDrained blocks until the node's outstanding count is zero,
// reporting false if expired fires first. A wake-up left over from an
// earlier drain only costs one more check.
func (nd *Node) awaitDrained(expired <-chan time.Time) bool {
	for nd.outstanding.Load() > 0 {
		select {
		case <-nd.drained:
		case <-expired:
			return false
		}
	}
	return true
}

// Executed returns how many work items this node completed.
func (nd *Node) Executed() int64 { return nd.executed.Load() }

// Assigned returns how many work items this node ever assigned.
func (nd *Node) Assigned() int64 { return nd.assigned.Load() }

// Outstanding returns how many work items assigned by this node are
// still unacknowledged.
func (nd *Node) Outstanding() int64 { return nd.outstanding.Load() }

// ViewSnapshot returns a copy of the node's current estimates, obtained
// on the node goroutine (safe at any time after Start).
func (nd *Node) ViewSnapshot() []core.Load {
	var out []core.Load
	nd.Invoke(func(_ core.Context, exch core.Exchanger) {
		out = exch.View().Snapshot()
	})
	return out
}

// MechStats returns the mechanism counters (on the node goroutine).
func (nd *Node) MechStats() core.Stats {
	var st core.Stats
	nd.Invoke(func(_ core.Context, exch core.Exchanger) {
		st = exch.Stats()
	})
	return st
}

// sampleCounters builds the canonical counters from the real wire
// tallies plus the node-goroutine measurement state. Callers must be on
// the node goroutine, or the node must be stopped.
func (nd *Node) sampleCounters() core.Counters {
	c := core.Counters{
		Decisions:       nd.decisions.Load(),
		DecisionLatency: floatFromBits(nd.decLatencyBits.Load()),
		BusyTime:        nd.busySeconds(),
		SnapshotRounds:  core.SnapshotRoundsOf(nd.exch.Stats()),
		DataMsgs:        nd.workMsgsOut.Load(),
		DataBytes:       float64(nd.workBytesOut.Load()),
		CtrlMsgs:        nd.ctrlMsgsOut.Load(),
		CtrlBytes:       float64(nd.ctrlBytesOut.Load()),
	}
	for k := core.KindUpdate; k <= core.KindMax; k++ {
		t := core.KindTally{Msgs: nd.stateKindMsgs[k].Load(), Bytes: float64(nd.stateKindBytes[k].Load())}
		c.PerKind[k] = t
		c.StateMsgs += t.Msgs
		c.StateBytes += t.Bytes
	}
	return c
}

// busySeconds is the node's snapshot-blocked time: its built-in loop's
// plus, on a node hosting an App rank, that rank's.
func (nd *Node) busySeconds() float64 {
	s := nd.busy.Seconds()
	if nd.port0 != nil {
		s += nd.port0.busy.Seconds()
	}
	return s
}

// Counters returns the node's measurement accumulator. State and data
// tallies are real encoded frame-body sizes (add FrameHeaderBytes per
// message for on-wire volume); decision latency and busy time are wall
// clock. While the node runs the sample is taken on the node goroutine;
// after Close everything is quiesced and read directly.
func (nd *Node) Counters() core.Counters {
	var c core.Counters
	nd.sample(func() { c = nd.sampleCounters() })
	return c
}

// EstimatedCounters returns the state/data tallies accumulated from the
// core.Bytes* hints at send time — what a runtime without a real wire
// charges for the same traffic. The codec coherence test asserts these
// match Counters' wire-derived tallies exactly.
func (nd *Node) EstimatedCounters() core.Counters {
	var c core.Counters
	nd.sample(func() { c = nd.est })
	return c
}

// sample runs fn on the node goroutine while the node runs, and
// directly once it has stopped and its goroutines are quiesced.
func (nd *Node) sample(fn func()) {
	ran := false
	nd.Invoke(func(core.Context, core.Exchanger) {
		fn()
		ran = true
	})
	if !ran {
		fn()
	}
}

// Transport returns the wire-level counters.
func (nd *Node) Transport() TransportStats {
	_, inPeak := nd.inboxDepth()
	_, outPeak := nd.outboxDepth()
	return TransportStats{
		MsgsIn:   nd.msgsIn.Load(),
		MsgsOut:  nd.msgsOut.Load(),
		BytesIn:  nd.bytesIn.Load(),
		BytesOut: nd.bytesOut.Load(),

		InboxPeak:  int64(inPeak),
		OutboxPeak: int64(outPeak),
		DroppedOut: nd.droppedOut.Load(),
	}
}

// inboxDepth returns the current and the deepest backlog of the node's
// mailbox or, on a node hosting an App rank, of that rank's.
func (nd *Node) inboxDepth() (now, peak int) {
	if nd.port0 != nil {
		return nd.port0.in.depth()
	}
	return nd.in.depth()
}

// outboxDepth returns the deepest current and the deepest ever backlog
// over the node's links.
func (nd *Node) outboxDepth() (now, peak int) {
	for _, p := range nd.peers {
		if p != nil {
			d, pk := p.out.depth()
			now, peak = max(now, d), max(peak, pk)
		}
	}
	return now, peak
}

// Close shuts the node down gracefully: the main loop stops, writers
// flush everything queued (including a forwarded termination
// announcement), the
// write side of every connection is half-closed (FIN), and readers
// drain until the peer's own FIN — so nothing this node sent can be
// destroyed by a reset. A peer that never half-closes is forced shut
// after CloseGrace. Nodes of a cluster must close concurrently, not
// sequentially: each waits for the others' FINs.
func (nd *Node) Close() error {
	if !nd.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(nd.quit)
	// Wait for an in-flight Start to finish (it aborts at its final gate
	// once closing is set), so started, peers and done are settled
	// before teardown — without this, Close racing Start could close
	// done twice or close connections Start is still installing.
	nd.lifeMu.Lock()
	defer nd.lifeMu.Unlock()
	if nd.started.Load() {
		<-nd.done
	} else {
		// The run loop never started, so nothing else will close done;
		// close it here so a late Invoke returns instead of blocking.
		close(nd.done)
	}
	if nd.ln != nil {
		nd.ln.Close()
	}
	nd.wgWriters.Wait() // writers have drained their queues and flushed
	for _, p := range nd.peers {
		if p != nil {
			if tc, ok := p.conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}
	}
	drained := make(chan struct{})
	go func() { nd.wgReaders.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(nd.opts.CloseGrace):
		nd.logf("net: rank %d forcing connections shut after %s", nd.rank, nd.opts.CloseGrace)
	}
	for _, p := range nd.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	nd.wgReaders.Wait()
	return nil
}

func (nd *Node) logf(format string, args ...any) {
	if nd.opts.Logf != nil {
		nd.opts.Logf(format, args...)
	}
}
