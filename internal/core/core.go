// Package core implements the paper's contribution: mechanisms giving
// every process of a distributed asynchronous message-passing application
// a coherent view of the load (workload, memory) of all other processes,
// so that dynamic scheduling decisions ("slave selections") can be taken.
//
// Three mechanisms are provided:
//
//   - Naive (§2.1, Algorithm 2): broadcast the absolute load whenever it
//     drifted by more than a threshold since the last broadcast.
//   - Increments (§2.2-2.3, Algorithm 3): broadcast accumulated load
//     deltas above a threshold, announce every slave selection to all
//     processes in a Master_To_All reservation message, and optionally
//     stop informing processes that declared No_more_master.
//   - Snapshot (§3): demand-driven Chandy-Lamport-style snapshot with a
//     distributed leader election that sequentializes concurrent
//     snapshots.
//
// Mechanisms are transport-agnostic state machines: they interact with
// the world only through the Context interface and never block, so the
// same code runs under the deterministic simulator (internal/sim) and the
// TCP runtime (internal/net).
package core

import "fmt"

// Metric indexes the load quantities a view tracks. The paper's
// application exchanges both the remaining floating-point work and the
// active memory (§4).
type Metric int

// The tracked metrics.
const (
	Workload Metric = iota
	Memory
	NumMetrics
)

func (m Metric) String() string {
	switch m {
	case Workload:
		return "workload"
	case Memory:
		return "memory"
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// Load is a vector of load values, one per metric.
type Load [NumMetrics]float64

// Add returns l + d.
func (l Load) Add(d Load) Load {
	for i := range l {
		l[i] += d[i]
	}
	return l
}

// Sub returns l - d.
func (l Load) Sub(d Load) Load {
	for i := range l {
		l[i] -= d[i]
	}
	return l
}

// ExceedsAny reports whether |l[m]| > thr[m] for any metric m with a
// positive threshold, or — when all thresholds are zero — whether any
// component is nonzero.
func (l Load) ExceedsAny(thr Load) bool {
	for i := range l {
		v := l[i]
		if v < 0 {
			v = -v
		}
		if v > thr[i] {
			return true
		}
	}
	return false
}

// Message kinds on the state-information channel. They live in core (not
// the transport) because they are protocol constants shared by all
// mechanisms and counted by the experiments.
const (
	// KindUpdate carries an absolute load (naive) or a load delta
	// (increments).
	KindUpdate = 1 + iota
	// KindMasterToAll is the increments reservation broadcast announcing
	// a slave selection (Algorithm 3).
	KindMasterToAll
	// KindNoMoreMaster announces the sender will never select slaves
	// again (§2.3).
	KindNoMoreMaster
	// KindStartSnp / KindSnp / KindEndSnp are the snapshot protocol (§3).
	KindStartSnp
	KindSnp
	KindEndSnp
	// KindMasterToSlave is the snapshot scheme's state update sent to
	// each selected slave before the snapshot is finalized (Algorithm 4),
	// so the next snapshot observes the decision.
	KindMasterToSlave

	// Kinds 8 and 9 are retired: they carried the gossip rumor and the
	// diffusion view vector of two non-paper mechanisms. They are never
	// reassigned, and a frame carrying one fails to decode.

	// KindMax is the highest state kind; per-kind tally arrays size
	// themselves KindMax+1.
	KindMax = KindMasterToSlave
)

// KindName returns a short name for a state-message kind.
func KindName(kind int) string {
	switch kind {
	case KindUpdate:
		return "update"
	case KindMasterToAll:
		return "master_to_all"
	case KindNoMoreMaster:
		return "no_more_master"
	case KindStartSnp:
		return "start_snp"
	case KindSnp:
		return "snp"
	case KindEndSnp:
		return "end_snp"
	case KindMasterToSlave:
		return "master_to_slave"
	}
	return fmt.Sprintf("kind(%d)", kind)
}

// On-wire sizes in bytes of the state-channel messages, used for
// bandwidth accounting everywhere a real wire is absent (sim) and
// checked against the real wire where one exists. Each constant is the
// exact frame-body length produced by internal/net's BinaryCodec — the
// reference encoding — for that kind; the TCP transport adds a 4-byte
// length prefix per frame (net.FrameHeaderBytes), which is transport
// framing, not message payload, and is therefore excluded here. A
// snapshot reply carries every metric at once (the paper notes snapshot
// messages are larger, §4.5). internal/net's codec tests assert that
// these constants and BinaryCodec.Encode never drift apart.
const (
	// BytesStateHeader is the header every state message carries:
	// type (u8) + sender rank (i32) + state kind (i32).
	BytesStateHeader = 1 + 4 + 4
	// BytesLoad is one Load vector: NumMetrics raw float64s.
	BytesLoad = 8 * float64(NumMetrics)
	// BytesAssignment is one Assignment of a Master_To_All list:
	// processor rank (i32) + reserved load delta.
	BytesAssignment = 4 + BytesLoad

	BytesUpdate        = BytesStateHeader + BytesLoad
	BytesMasterToAll   = BytesStateHeader + 4 // + assignment list, see MasterToAllBytes
	BytesNoMoreMaster  = BytesStateHeader
	BytesStartSnp      = BytesStateHeader + 4 // + request id
	BytesSnp           = BytesStateHeader + 4 + BytesLoad
	BytesEndSnp        = BytesStateHeader
	BytesMasterToSlave = BytesStateHeader + BytesLoad

	// BytesWorkItem is a data-channel work item: type (u8) + sender
	// rank (i32) + load + spin duration (u64). The runtimes without a
	// real wire charge this for each shipped work item so data-channel
	// volume is comparable across runtimes.
	BytesWorkItem = 1 + 4 + BytesLoad + 8

	// BytesCtrl is a termination-detection control frame
	// (internal/termdet): type (u8) + sender rank (i32) + ctrl kind
	// (i32) + token count (i32) + token color (u8). Acks and the
	// termination announcement carry the same fixed frame; the runtimes
	// without a real wire charge this per control frame, and the net
	// codec tests pin it to BinaryCodec's encoding.
	BytesCtrl = 1 + 4 + 4 + 4 + 1
)

// MasterToAllBytes returns the size of a Master_To_All message with k
// assignments.
func MasterToAllBytes(k int) float64 { return BytesMasterToAll + BytesAssignment*float64(k) }

// Assignment is one slave's share in a dynamic decision: the load delta
// the master reserves on processor Proc.
type Assignment struct {
	Proc  int32
	Delta Load
}

// Payload types for the state-channel messages.
type (
	// UpdatePayload carries an absolute load (naive) or delta
	// (increments).
	UpdatePayload struct{ Load Load }
	// MasterToAllPayload announces a selection to everyone.
	MasterToAllPayload struct{ Assignments []Assignment }
	// StartSnpPayload opens a snapshot round.
	StartSnpPayload struct{ Req int32 }
	// SnpPayload answers a snapshot round with the sender's state.
	SnpPayload struct {
		Req  int32
		Load Load
	}
	// MasterToSlavePayload updates a selected slave's state (snapshot
	// scheme).
	MasterToSlavePayload struct{ Delta Load }
)

// Context is the mechanism's window on the transport. Send and Broadcast
// are asynchronous and must deliver on the prioritized state channel;
// Now returns virtual (or wall-clock) seconds for statistics.
type Context interface {
	Rank() int
	N() int
	Now() float64
	Send(to int, kind int, payload any, bytes float64)
	Broadcast(kind int, payload any, bytes float64)
}

// Exchanger is a load-information exchange mechanism. Implementations
// must be used from a single goroutine (the owning process); they never
// block — waiting states are exposed through Busy.
type Exchanger interface {
	// Init sets the initial local load (e.g. the cost of the subtrees
	// mapped to this process) and prepares the view.
	Init(ctx Context, initial Load)
	// LocalChange records a local load variation. asSlave must be true
	// when the variation concerns a task this process received as a
	// slave: positive such variations were already accounted by the
	// master's reservation and are skipped (Algorithm 3, step (1)).
	LocalChange(ctx Context, delta Load, asSlave bool)
	// View returns the current estimates of everyone's load. The entry
	// for the local rank is always exact: it is the process's own load.
	View() *View
	// Acquire prepares a coherent view for a dynamic decision and calls
	// ready when it is usable. Maintained mechanisms call ready
	// synchronously; the snapshot mechanism calls it after the snapshot
	// completes.
	Acquire(ctx Context, ready func())
	// Commit publishes the decision taken after Acquire: the load the
	// master assigned to each selected slave. For the snapshot mechanism
	// this also finalizes the snapshot.
	Commit(ctx Context, assignments []Assignment)
	// NoMoreMaster announces that this process will never take a dynamic
	// decision again (§2.3); peers may stop sending it load information.
	NoMoreMaster(ctx Context)
	// HandleMessage processes one state-channel message addressed to
	// this process.
	HandleMessage(ctx Context, from int, kind int, payload any)
	// Busy reports whether the process must pause application work
	// because a snapshot involving it is in progress.
	Busy() bool
	// Stats returns mechanism counters.
	Stats() Stats
}

// Stats aggregates mechanism-level counters (network-level message counts
// live in the transport).
type Stats struct {
	// UpdatesSent counts Update unicasts (after No_more_master pruning).
	UpdatesSent int64
	// ReservationsSent counts Master_To_All broadcasts.
	ReservationsSent int64
	// SnapshotsInitiated counts Acquire calls that ran a snapshot.
	SnapshotsInitiated int64
	// SnapshotRestarts counts re-broadcast rounds forced by losing a
	// leader election.
	SnapshotRestarts int64
	// SnapshotTime is the total time from Acquire to view-ready over all
	// snapshots initiated by this process (the paper's "time spent to
	// perform the snapshot operations").
	SnapshotTime float64
	// MaxConcurrentSnapshots is the largest number of simultaneously
	// active snapshots observed by this process (paper: "at most 5").
	MaxConcurrentSnapshots int
}

// View stores per-process load estimates.
//
// Every mechanism of the paper keeps, on every process, an estimate of
// every other process, and the static mapping is global knowledge, so
// all ranks of a run start from the same n estimates. The view stores
// that once: base is a read-only slice shared by every rank of a run
// (nil reads as all-zero), and what a rank has been told since lives in
// copy-on-write pages of viewPageSize entries that materialize on the
// first Set/AddTo that changes an entry of the page. A run's view
// memory therefore follows what its ranks write, not n². Nothing ever
// writes through to base — neither to a seed (SeedView) nor to a
// caller's slice (ViewOf).
//
// The view tracks the minimum of each metric incrementally: minCache[m]
// holds 1+rank of the current minimum (lowest rank among ties), or 0
// when unknown. The cache starts unknown and is filled lazily by the
// first k=1 selection, after which Set keeps it fresh in O(1) except
// when the minimum itself worsens (then it goes unknown again until the
// next query's scan). This makes the common PlanDecision case — pick
// the single least-loaded slave — O(1) on views that mostly receive
// updates for non-minimal ranks.
type View struct {
	n        int
	base     []Load      // nil or len n; shared, never written
	pages    []*viewPage // pages[p>>viewPageShift] is nil until written
	minCache [NumMetrics]int32
}

const (
	viewPageShift = 6
	viewPageSize  = 1 << viewPageShift
	viewPageMask  = viewPageSize - 1
)

// A viewPage is the copy-on-write unit of a View: 64 entries, 1 KB —
// small enough that a rank told about a few peers pays for a few
// pages, large enough that the page table of a 4096-rank view is 64
// pointers and a full scan is 64 inner loops.
type viewPage [viewPageSize]Load

// zeroPage is what a view without a base reads; never written.
var zeroPage viewPage

// NewView returns a view over n processes with zero estimates.
func NewView(n int) *View {
	return &View{n: n, pages: make([]*viewPage, (n+viewPageMask)>>viewPageShift)}
}

// ViewOf wraps a load slice in a read-only View, so selection helpers
// can run over a recorded snapshot. The slice becomes the view's base:
// it is never written, and writes to the view land in its own pages.
func ViewOf(loads []Load) *View {
	v := NewView(len(loads))
	v.base = loads
	return v
}

// N returns the number of processes.
func (v *View) N() int { return v.n }

// Load returns the estimate for process p.
func (v *View) Load(p int) Load {
	if uint(p) >= uint(v.n) {
		v.outOfRange(p)
	}
	return v.at(p)
}

// Metric returns the estimate of one metric for process p.
func (v *View) Metric(p int, m Metric) float64 {
	if uint(p) >= uint(v.n) {
		v.outOfRange(p)
	}
	return v.at(p)[m]
}

// at is Load without the rank check: past the last rank it reads a
// written last page's zero padding.
func (v *View) at(p int) Load {
	if pg := v.pages[p>>viewPageShift]; pg != nil {
		return pg[p&viewPageMask]
	}
	if v.base != nil {
		return v.base[p]
	}
	return Load{}
}

//go:noinline
func (v *View) outOfRange(p int) {
	panic(fmt.Sprintf("core: rank %d out of range of a %d-process view", p, v.n))
}

// segment returns the current estimates of page pi's ranks, first rank
// pi<<viewPageShift: the page if it was written, else that stretch of
// the base. Scans walk segments instead of calling Load per rank. The
// result is read-only.
func (v *View) segment(pi int) []Load {
	lo := pi << viewPageShift
	hi := min(lo+viewPageSize, v.n)
	if pg := v.pages[pi]; pg != nil {
		return pg[:hi-lo]
	}
	if v.base != nil {
		return v.base[lo:hi]
	}
	return zeroPage[:hi-lo]
}

// Set overwrites the estimate for p. Restating what the base already
// says about an unwritten page changes nothing and materializes
// nothing.
func (v *View) Set(p int, l Load) {
	if uint(p) >= uint(v.n) {
		v.outOfRange(p)
	}
	pi := p >> viewPageShift
	pg := v.pages[pi]
	if pg == nil {
		if l == v.at(p) {
			return
		}
		pg = new(viewPage)
		copy(pg[:], v.segment(pi))
		v.pages[pi] = pg
	}
	old := pg[p&viewPageMask]
	pg[p&viewPageMask] = l
	for m := range v.minCache {
		c := v.minCache[m]
		if c == 0 {
			continue
		}
		cr := int(c) - 1
		if p == cr {
			if l[m] > old[m] {
				// The minimum worsened; some other rank may now hold it.
				v.minCache[m] = 0
			}
		} else if (cand{cr, v.at(cr)[m]}).worse(cand{p, l[m]}) {
			v.minCache[m] = int32(p) + 1
		}
	}
}

// AddTo adds a delta to the estimate for p; Set checks the rank.
func (v *View) AddTo(p int, d Load) { v.Set(p, v.at(p).Add(d)) }

// minRank returns the rank with the smallest estimate of metric m,
// excluding rank exclude (-1 excludes nobody), lowest rank among ties;
// -1 when no rank qualifies. It answers from the incremental cache when
// possible and refreshes it on the scan path whenever the result is
// also the unexcluded minimum.
func (v *View) minRank(m Metric, exclude int) int {
	if c := v.minCache[m]; c != 0 && int(c)-1 != exclude {
		return int(c) - 1
	}
	best, bl := -1, 0.0
	for pi := range v.pages {
		lo := pi << viewPageShift
		for i, e := range v.segment(pi) {
			if lo+i == exclude {
				continue
			}
			if l := e[m]; best < 0 || l < bl {
				best, bl = lo+i, l
			}
		}
	}
	if best >= 0 && (exclude < 0 || exclude >= v.n ||
		(cand{exclude, v.at(exclude)[m]}).worse(cand{best, bl})) {
		v.minCache[m] = int32(best) + 1
	}
	return best
}

// SeedView installs the statically-known initial loads of every peer
// into a freshly initialized mechanism's view — the paper's convention
// that the static mapping, and hence everyone's starting load, is known
// to all processes, so nothing needs to be broadcast. The owning rank's
// entry is Init's job and is left untouched. Every runtime seeds
// through this one helper so they cannot diverge.
//
// A full seed (one load per process) is adopted, not copied: the view
// keeps initial as its shared read-only base, whatever it held for the
// peers is dropped, and seeding costs no per-entry work. The caller
// must not write to initial afterwards; it may hand the same slice to
// every rank of the run. A seed of any other length (the service's
// mesh passes none) sets the entries given and touches nothing else.
func SeedView(exch Exchanger, rank int, initial []Load) {
	v := exch.View()
	if len(initial) != v.n {
		for p, l := range initial {
			if p != rank {
				v.Set(p, l)
			}
		}
		return
	}
	own := v.Load(rank)
	v.base, v.minCache = initial, [NumMetrics]int32{}
	clear(v.pages)
	v.Set(rank, own)
}

// Snapshot returns a dense copy of all estimates.
func (v *View) Snapshot() []Load {
	out := make([]Load, v.n)
	copy(out, v.base)
	for pi, pg := range v.pages {
		if pg != nil {
			copy(out[pi<<viewPageShift:], pg[:])
		}
	}
	return out
}

// ScopedExchanger is implemented by mechanisms that can restrict a
// demand-driven view acquisition to a subset of processes — the paper's
// §5 perspective of partial snapshots, with the "double objective of
// reducing the amount of messages and having a weaker synchronization".
type ScopedExchanger interface {
	Exchanger
	// AcquireScoped behaves like Acquire but consults only the listed
	// peers; everyone else is neither messaged nor blocked.
	AcquireScoped(ctx Context, scope []int32, ready func())
}

// Mech names a mechanism for construction and reporting.
type Mech string

// The available mechanisms.
const (
	MechNaive      Mech = "naive"
	MechIncrements Mech = "increments"
	MechSnapshot   Mech = "snapshot"
)

// Mechanisms lists every registered mechanism — the paper's three — in
// the order its tables use. The goldens, the cross-runtime equivalence
// suite and CLI "-mech all" sweeps iterate this set.
func Mechanisms() []Mech { return []Mech{MechIncrements, MechSnapshot, MechNaive} }

// Config tunes mechanism construction.
type Config struct {
	// Threshold is the per-metric broadcast threshold of the maintained
	// mechanisms (Algorithm 2 line 3, Algorithm 3 line 8). The paper
	// recommends "a threshold of the same order as the granularity of
	// the tasks appearing in the slave selections" (§2.3).
	Threshold Load
	// NoMoreMasterOpt enables the §2.3 optimization (the paper's
	// experiments use it).
	NoMoreMasterOpt bool
	// Elect is the snapshot leader-election criterion; nil means lowest
	// rank (the paper's choice).
	Elect Elector
	// Topo is the neighbor graph state exchange is restricted to; nil
	// means the complete graph (the paper's implicit assumption).
	Topo *Topology
}

// New constructs a mechanism for a process of rank within n processes.
// A non-nil cfg.Topo must have been generated for exactly n ranks.
func New(m Mech, n, rank int, cfg Config) (Exchanger, error) {
	if cfg.Topo != nil && cfg.Topo.N() != n {
		return nil, fmt.Errorf("core: topology %q generated for %d ranks, mechanism built for %d",
			cfg.Topo.Name(), cfg.Topo.N(), n)
	}
	switch m {
	case MechNaive:
		return NewNaive(n, rank, cfg), nil
	case MechIncrements:
		return NewIncrements(n, rank, cfg), nil
	case MechSnapshot:
		return NewSnapshot(n, rank, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown mechanism %q", m)
}
