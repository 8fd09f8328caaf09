// Package termdet implements distributed termination detection — the
// quiescence subsystem behind the paper's Algorithm 1, which runs
// "while global termination not detected". MUMPS relies on a real
// termination detector to know when the last task and the last
// in-flight message are gone; the hosts of the application port
// (sim.AppRunner, net.AppRunner) use the protocols here instead of
// host-side outstanding-work counters, so the same quiescence decision
// is taken whether the ranks share a process, a machine, or only a
// network.
//
// Like the load-exchange mechanisms in internal/core, detection
// protocols are transport-agnostic state machines selectable by name:
// they interact with the world only through the Context interface
// (small control frames: engagement acknowledgments, probe tokens, the
// termination announcement) and never block, so one implementation runs
// unchanged over the deterministic simulator and real TCP sockets.
//
// Two protocols ship:
//
//   - "ds" (Dijkstra–Scholten, default): an engagement tree rooted at
//     rank 0. Every application message carries an implicit engagement
//     and must eventually be acknowledged; a process detaches (acks its
//     parent) only when passive with no unacknowledged sends. One ack
//     per application message.
//   - "safra": Safra's probe (EWD 998): a token visits every process
//     accumulating per-process send/receive counters and a
//     white/black color; rank 0 concludes termination from a clean
//     white round with a zero global count. O(n) control messages per
//     probe round, none per application message.
//
// Both support computations that start active on every rank (the
// port's Attach seeds work everywhere): DS engages all ranks under the
// root from the start, Safra is insensitive to the initial activity
// pattern. On detection the detecting rank (always rank 0) broadcasts a
// CtrlTerm frame so every process — in particular forked `loadex node`
// processes that share nothing but sockets — observes termination
// locally through Terminated.
package termdet

import (
	"fmt"
	"strings"
)

// Control-frame kinds. They travel a dedicated control channel (a
// third channel class beside state and data) so they bypass the
// application's Blocked gating: a snapshot-blocked process still
// acknowledges and forwards.
const (
	// CtrlAck is a Dijkstra–Scholten acknowledgment: one per
	// application message (deferred on the engagement edge).
	CtrlAck = 1 + iota
	// CtrlToken is Safra's probe token (Count accumulates the
	// send/receive balance, Black the round's taint).
	CtrlToken
	// CtrlTerm announces global termination, broadcast by the
	// detecting rank so every process unblocks locally.
	CtrlTerm
)

// CtrlName returns a short name for a control-frame kind.
func CtrlName(kind int32) string {
	switch kind {
	case CtrlAck:
		return "ack"
	case CtrlToken:
		return "token"
	case CtrlTerm:
		return "term"
	}
	return fmt.Sprintf("ctrl(%d)", kind)
}

// Ctrl is one flattened control frame, codec-encodable like
// workload.DataMsg: a kind tag plus the token fields (zero for acks and
// the termination announcement).
type Ctrl struct {
	// Kind is the control-frame kind (CtrlAck, CtrlToken, CtrlTerm).
	Kind int32
	// Count is the Safra token's accumulated message-count balance.
	Count int32
	// Black is the Safra token's color (a receive happened since the
	// holder was last whitened).
	Black bool
}

// Context is the protocol's window on the transport: SendCtrl must
// deliver a control frame to the peer's protocol instance,
// asynchronously and (per ordered pair) in FIFO order. Implementations
// exist in every runtime host.
type Context interface {
	// Rank is the owning process.
	Rank() int
	// N is the cluster size.
	N() int
	// SendCtrl ships one control frame to rank `to`.
	SendCtrl(to int, c Ctrl)
}

// Protocol is a per-process termination-detection state machine. All
// methods must be called from the owning process only (its hosting
// goroutine or event context); protocols never block.
//
// The host's obligations:
//
//   - call OnSend for every application (data-channel) message sent,
//     before it can be received, and OnReceive for every one received,
//     before processing it — including self-sends (tracked internally,
//     no control traffic);
//   - call OnCtrl for every inbound control frame, even while the
//     application is Blocked;
//   - call Passive exactly when the process has nothing left to do: no
//     task running or pending, no queued messages, not blocked on a
//     snapshot, and the application's TryStart declined. Passive may be
//     called repeatedly while nothing changes (idempotent), and a later
//     OnReceive makes the process active again;
//   - stop the rank loop once Terminated reports true.
type Protocol interface {
	// Name identifies the protocol on the command line.
	Name() string
	// OnSend records one application message sent to `to`.
	OnSend(ctx Context, to int)
	// OnReceive records one application message received from `from`,
	// marking the process active.
	OnReceive(ctx Context, from int)
	// OnCtrl processes one inbound control frame.
	OnCtrl(ctx Context, from int, c Ctrl)
	// Passive declares local quiescence (see the host obligations).
	Passive(ctx Context)
	// Terminated reports whether global termination is known at this
	// process: detected here (rank 0) or announced by a CtrlTerm frame.
	Terminated() bool
}

// The registered protocol names.
const (
	// ProtocolDS is the Dijkstra–Scholten engagement tree (default).
	ProtocolDS = "ds"
	// ProtocolSafra is Safra's token probe.
	ProtocolSafra = "safra"
)

// Default is the protocol used when none is named.
const Default = ProtocolDS

// Names lists the registered protocol names for usage messages and
// sweeps, detection-cost order (per-message ack protocol first).
func Names() []string { return []string{ProtocolDS, ProtocolSafra} }

// Describe returns a one-line description of a registered protocol for
// catalogues (`loadex list` prints every name through this, so a new
// protocol is discoverable the moment it is registered).
func Describe(name string) string {
	switch name {
	case ProtocolDS:
		return "Dijkstra–Scholten engagement tree: one ack per data message, fastest detection (default)"
	case ProtocolSafra:
		return "Safra's probe: a counting token circles the ring, nothing per message"
	}
	return ""
}

// Valid reports whether name is a registered protocol name (or empty,
// selecting Default) — flag validation without instantiating a
// protocol.
func Valid(name string) bool {
	if name == "" {
		return true
	}
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// New constructs the named protocol for a process of rank within n. An
// empty name selects Default.
func New(name string, n, rank int) (Protocol, error) {
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("termdet: rank %d out of range [0,%d)", rank, n)
	}
	switch name {
	case "", ProtocolDS:
		return newDS(n, rank), nil
	case ProtocolSafra:
		return newSafra(n, rank), nil
	}
	return nil, fmt.Errorf("termdet: unknown protocol %q (available: %s)",
		name, strings.Join(Names(), ", "))
}
