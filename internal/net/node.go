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
	// Initial is the per-rank initial load vector of a Cluster's
	// resident ranks (nil means all zero). Every process knows the full
	// vector — the paper's static-mapping convention — so each resident
	// rank seeds every peer's entry into its view at Init time instead of
	// broadcasting. The view keeps the slice as its read-only seed
	// (core.SeedView), which the ranks of a Cluster share: the caller
	// must not write it after NewCluster.
	Initial []core.Load
	// Speed is the per-rank execution-time multiplier of a Cluster's
	// resident ranks (nil or 0 entries mean nominal speed): each scales
	// the spin of work items it executes by its own factor.
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

// inMsg is one item of a mailbox's state class: a decoded state
// message, or a closure posted to a resident rank (kindCall).
type inMsg struct {
	from    int
	kind    int
	payload any
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
	// InboxPeak is the deepest the hosted rank's mailbox ever was (all
	// classes), OutboxPeak the deepest any one link's outbox was: the queue
	// lengths a load-balancing study should report, and the first place
	// to look when memory grows — the queues are unbounded on purpose.
	InboxPeak, OutboxPeak int64
	// DroppedOut counts messages posted to a link whose writer had
	// exited (peer gone, link severed): dropped, not queued.
	DroppedOut int64
}

// Node is one process of a TCP cluster, and transport only: the mesh
// (one connection per peer, a reader and a writer goroutine each), the
// routing of inbound frames to job ports, and the wire tallies. It runs
// no mechanism and no loop of its own. The rank it hosts — a resident
// rank of a Cluster (resident.go) or a workload.App rank (AppRunner,
// AppNode) — runs the shared rank loop over the node's job-0 port,
// which receives the untagged state, data and control frames; the
// service's jobs run on tagged ports (jobmux.go). A reader never waits
// for any rank: every route is a mailbox put or a counter.
type Node struct {
	rank, n int
	opts    Options
	start   time.Time

	ln        net.Listener
	peers     []*peer
	job0      *JobPort // the hosted rank's port; nil until hostRank
	quit      chan struct{}
	wgReaders sync.WaitGroup
	wgWriters sync.WaitGroup
	closing   atomic.Bool
	// lifeMu serializes Start against Close's teardown: Close sets
	// closing, then waits for an in-flight Start to finish (Start aborts
	// at its final gate when it observes closing), so no reader or
	// writer outlives a Close that saw no mesh.
	lifeMu sync.Mutex

	// executed counts the hosted rank's completed computes; outstanding
	// counts TypeWork frames it sent that no TypeWorkDone has
	// acknowledged yet (a reader that brings it to zero signals
	// drained).
	executed    atomic.Int64
	outstanding atomic.Int64
	drained     chan struct{} // capacity 1

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

	// decisions and the float-bits decLatency mirror are written by the
	// hosted rank and read by the obs scrape path at any time, so they
	// live in atomics.
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

// NewNode creates the node of rank within n processes. The node is
// inert until Listen and Start are called.
func NewNode(rank, n int, opts Options) (*Node, error) {
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("net: rank %d out of range [0,%d)", rank, n)
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.CloseGrace <= 0 {
		opts.CloseGrace = 5 * time.Second
	}
	return &Node{
		rank: rank, n: n,
		opts:    opts,
		start:   time.Now(),
		peers:   make([]*peer, n),
		quit:    make(chan struct{}),
		drained: make(chan struct{}, 1),
	}, nil
}

// Rank returns the node's rank.
func (nd *Node) Rank() int { return nd.rank }

// Links counts the node's live peer connections — n-1 once Start has
// built the mesh.
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

// Start connects the mesh and launches the link goroutines. addrs lists
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
	// This node dials every lower rank and accepts every higher one.
	expect := nd.n - 1 - nd.rank
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

	// Dial every lower rank, retrying with jittered exponential
	// backoff: with the loadex stdio handshake everyone is already
	// listening, but a raw deployment may start ranks in any order. Each
	// peer gets a fair share of the remaining budget — its share of the
	// overall deadline divided by the dials still to make — so one dead
	// address cannot starve every later dial, and the jitter keeps a
	// large cluster's retries from herding onto a recovering listener.
	for s := 0; s < nd.rank; s++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fail(fmt.Errorf("net: rank %d dialing rank %d: mesh dial budget exhausted", nd.rank, s))
		}
		peerDeadline := time.Now().Add(remaining / time.Duration(nd.rank-s))
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
		if a.rank <= nd.rank || a.rank >= nd.n || nd.peers[a.rank] != nil {
			a.conn.Close()
			return fail(fmt.Errorf("net: rank %d got hello from unexpected rank %d", nd.rank, a.rank))
		}
		nd.peers[a.rank] = &peer{rank: a.rank, conn: a.conn, out: newOutbox()}
	}

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
	// blocked on lifeMu; report the mesh as not started. The readers and
	// writers just launched exit through the closed conns and quit.
	if nd.closing.Load() {
		return fail(fmt.Errorf("net: rank %d: node closed during start", nd.rank))
	}
	return nil
}

// readLoop decodes inbound frames from one peer and routes them: a
// tagged frame to its job's port, an acknowledgment to the outstanding
// count, every other frame to the hosted rank's port. It never waits
// for a consumer — every route is a mailbox put or a counter — so a
// rank always drains its sockets, whatever its driver or any one job's
// is doing: a state message is never stuck behind data the rank may not
// treat yet. After Close begins it keeps draining (and discarding)
// until the peer's EOF: closing the socket with unread inbound data
// would RST the connection and could destroy our own final frames — a
// termination announcement — in the peer's receive buffer.
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
		case m.Type == TypeWorkDone:
			// Counted here, an acknowledgment wakes no rank.
			if nd.outstanding.Add(-1) == 0 {
				select {
				case nd.drained <- struct{}{}:
				default: // a wake-up is already pending
				}
			}
		case m.Type == TypeHello || nd.job0 == nil:
			nd.logf("net: rank %d unexpected %s from %d", nd.rank, m.Type, p.rank)
		default:
			nd.job0.put(&m)
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

// post queues a message for one peer and returns at once: the protocols
// the ranks run assume asynchronous sends, and a rank blocked sending
// is a rank not draining — two such ranks facing each other are a
// deadlock. What is in flight is bounded by the workloads' closed
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

// Executed returns how many computes this node's rank completed: work
// items of a resident rank, tasks of a hosted App.
func (nd *Node) Executed() int64 { return nd.executed.Load() }

// now is the node's clock: seconds since NewNode.
func (nd *Node) now() float64 { return time.Since(nd.start).Seconds() }

// Counters returns the node's measurement accumulator: real encoded
// frame-body sizes tallied by the writers (add FrameHeaderBytes per
// message for on-wire volume), plus the decisions, acquire latency and
// snapshot-blocked time of the rank it hosts, all wall clock. Every
// field is an atomic, so it may be read at any time; the final tallies
// are the ones read after Close.
func (nd *Node) Counters() core.Counters {
	c := core.Counters{
		Decisions:       nd.decisions.Load(),
		DecisionLatency: floatFromBits(nd.decLatencyBits.Load()),
		BusyTime:        nd.busySeconds(),
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

// busySeconds is the snapshot-blocked time of the rank the node hosts.
func (nd *Node) busySeconds() float64 {
	if nd.job0 == nil {
		return 0
	}
	return nd.job0.busy.Seconds()
}

// EstimatedCounters returns the tallies the node's rank charged from the
// core.Bytes* hints at send time — what a runtime without a real wire
// charges for the same traffic. The codec coherence test asserts these
// match Counters' wire-derived state and data tallies exactly.
func (nd *Node) EstimatedCounters() core.Counters {
	if nd.job0 == nil {
		return core.Counters{}
	}
	return nd.job0.Counters()
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

// inboxDepth returns the current and the deepest backlog of the hosted
// rank's mailbox.
func (nd *Node) inboxDepth() (now, peak int) {
	if nd.job0 == nil {
		return 0, 0
	}
	return nd.job0.in.depth()
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

// Close shuts the node down gracefully: writers flush everything
// queued (including a forwarded termination announcement), the write
// side of every connection is half-closed (FIN), and readers
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
	// once closing is set), so peers are settled before teardown —
	// without this, Close racing Start could close connections Start is
	// still installing.
	nd.lifeMu.Lock()
	defer nd.lifeMu.Unlock()
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
