package core

// KindTally counts the messages and payload bytes of one state-message
// kind.
type KindTally struct {
	Msgs  int64   `json:"msgs"`
	Bytes float64 `json:"bytes"`
}

// Counters is the uniform measurement accumulator every runtime fills
// while executing a workload: how many state and data messages were
// sent, how many bytes each message kind moved, how long dynamic
// decisions waited for a coherent view, how long processes were blocked
// by snapshots, and how many snapshot broadcast rounds ran. The paper's
// tables — messages sent, volume exchanged, time spent acquiring
// coherent views — are all derivable from one Counters value.
//
// Byte totals follow the core.Bytes* convention (frame-body sizes,
// excluding transport framing). The sim runtime charges the constants
// at send time; the net runtime counts real encoded frame
// sizes, so a drift between the constants and the codec shows up as a
// cross-runtime byte disagreement (and is separately pinned by the
// codec tests).
//
// Counters is a flat value: a copy is independent of the original (it
// can cross goroutines while the original keeps accumulating), two
// values compare with ==, and counting into it never allocates.
type Counters struct {
	// StateMsgs / StateBytes total the state-channel traffic.
	StateMsgs  int64   `json:"state_msgs"`
	StateBytes float64 `json:"state_bytes"`
	// DataMsgs / DataBytes total the data-channel traffic (work items;
	// transport-level acknowledgments are not counted here).
	DataMsgs  int64   `json:"data_msgs"`
	DataBytes float64 `json:"data_bytes"`
	// CtrlMsgs / CtrlBytes total the termination-detection control
	// traffic (internal/termdet engagement acks, probe tokens and the
	// termination announcement) — the price of knowing the run is over,
	// reported beside the price of knowing the load (state traffic).
	CtrlMsgs  int64   `json:"ctrl_msgs,omitempty"`
	CtrlBytes float64 `json:"ctrl_bytes,omitempty"`
	// PerKind breaks the state traffic down by kind, indexed by the
	// Kind* constants (entry 0 is unused).
	PerKind [KindMax + 1]KindTally `json:"per_kind,omitzero"`
	// Decisions counts completed dynamic decisions; DecisionLatency is
	// the total seconds from Acquire to view-ready over all of them —
	// zero for the maintained mechanisms (the view is always ready),
	// the paper's "time spent to perform the snapshot operations" for
	// the snapshot mechanism.
	Decisions       int64   `json:"decisions"`
	DecisionLatency float64 `json:"decision_latency"`
	// BusyTime is the total seconds processes spent Busy (application
	// work suspended because a snapshot involving them was open).
	BusyTime float64 `json:"busy_time"`
	// SnapshotRounds counts start_snp broadcast rounds: one per
	// initiated snapshot plus one per election-loss restart.
	SnapshotRounds int64 `json:"snapshot_rounds"`
}

// AddState records one sent state message of the given kind. A kind
// outside 1..KindMax counts in the totals only.
func (c *Counters) AddState(kind int, bytes float64) {
	c.StateMsgs++
	c.StateBytes += bytes
	if kind >= KindUpdate && kind <= KindMax {
		c.PerKind[kind].Msgs++
		c.PerKind[kind].Bytes += bytes
	}
}

// AddData records one sent data-channel work item.
func (c *Counters) AddData(bytes float64) {
	c.DataMsgs++
	c.DataBytes += bytes
}

// AddCtrl records one sent termination-detection control frame.
func (c *Counters) AddCtrl(bytes float64) {
	c.CtrlMsgs++
	c.CtrlBytes += bytes
}

// AddDecision records one completed dynamic decision and its
// acquire-to-ready latency in seconds.
func (c *Counters) AddDecision(latency float64) {
	c.Decisions++
	c.DecisionLatency += latency
}

// Merge folds other into c (used to aggregate per-rank counters into a
// cluster total).
func (c *Counters) Merge(other Counters) {
	c.StateMsgs += other.StateMsgs
	c.StateBytes += other.StateBytes
	c.DataMsgs += other.DataMsgs
	c.DataBytes += other.DataBytes
	c.CtrlMsgs += other.CtrlMsgs
	c.CtrlBytes += other.CtrlBytes
	c.Decisions += other.Decisions
	c.DecisionLatency += other.DecisionLatency
	c.BusyTime += other.BusyTime
	c.SnapshotRounds += other.SnapshotRounds
	for k, t := range other.PerKind {
		c.PerKind[k].Msgs += t.Msgs
		c.PerKind[k].Bytes += t.Bytes
	}
}

// Kind returns the tally for one state-message kind.
func (c *Counters) Kind(kind int) KindTally {
	return c.PerKind[kind]
}

// SnapshotRoundsOf derives the start_snp round count from mechanism
// stats: every initiated snapshot opens one round and every
// election-loss restart re-opens it.
func SnapshotRoundsOf(st Stats) int64 {
	return st.SnapshotsInitiated + st.SnapshotRestarts
}
