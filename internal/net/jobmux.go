package net

// Job ports: every workload.App rank hosted on the TCP mesh runs the
// shared rank loop (workload.Driver) over one JobPort, its endpoint of
// one job on one node. A port posts its frames through the node's
// existing writer goroutines (preserving the per-pair FIFO order the
// detectors rely on) and receives the frames readLoop routes to it.
//
// Job 0 is the port of the one rank a node hosts: an App rank
// (AppRunner, AppNode) or a Cluster's resident rank (resident.go). It
// sends and receives the untagged frames — TypeState, TypeData and
// TypeCtrl, and a resident rank's TypeWork — so such a mesh speaks
// exactly the one-shot protocol. The service layer (internal/service)
// keeps one resident mesh up across many jobs, so several
// termination-detection scopes and data streams share each per-peer
// TCP connection: its jobs take ids from 1, their frames carry the id
// (Message.Job), and readLoop routes them by it.
//
// Each port keeps its own mutex-guarded core.Counters of the byte hints
// it charged, so concurrent jobs stay accountable in isolation; the
// job-0 port's are the node's EstimatedCounters.

import (
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// jobData is one inbound application data message of a job: a compact
// element, as every port allocates its own queues.
type jobData struct {
	from int
	m    workload.DataMsg
}

// JobPort is one rank's endpoint of one job. Its receive side is the
// same never-blocking mailbox a Node has: the socket readers put, and
// the job's per-rank driver goroutine — the one consumer — calls Take
// and, finding nothing, parks on Ready beside its own stop cases. One
// tenant's backlog therefore costs that tenant memory, never another
// tenant's frames a place in the socket. Any goroutine may send.
type JobPort struct {
	nd *Node
	id int32
	in *mailbox[ctrlMsg, inMsg, jobData]
	// busy meters the hosted rank's snapshot-blocked time; the driver
	// running the port observes it.
	busy workload.BusyMeter

	mu  sync.Mutex
	cnt core.Counters
}

func newPort(nd *Node, id int32) *JobPort {
	return &JobPort{
		nd: nd, id: id,
		in:   newMailbox[ctrlMsg, inMsg, jobData](),
		busy: workload.BusyMeter{Rec: nd.opts.Rec, Rank: nd.rank},
	}
}

// Rank returns the hosting node's rank.
func (jp *JobPort) Rank() int { return jp.nd.rank }

// N returns the mesh size.
func (jp *JobPort) N() int { return jp.nd.n }

// ID returns the job id this port serves.
func (jp *JobPort) ID() int32 { return jp.id }

// hostRank registers the node's job-0 port, which receives every
// untagged frame but acknowledgments. Call it before Start: readLoop
// reads the field without a lock.
func (nd *Node) hostRank() *JobPort {
	nd.job0 = newPort(nd, 0)
	return nd.job0
}

// RegisterJob creates this rank's port for job id. The port's queues
// grow with what the job has in flight and need no sizing. Registering
// an id twice is an error — job ids are service-global and start at 1.
func (nd *Node) RegisterJob(id int32) (*JobPort, error) {
	if id <= 0 {
		return nil, fmt.Errorf("net: job id %d out of range (ids start at 1)", id)
	}
	jp := newPort(nd, id)
	nd.jobMu.Lock()
	defer nd.jobMu.Unlock()
	if nd.jobs == nil {
		nd.jobs = make(map[int32]*JobPort)
	}
	if nd.jobs[id] != nil {
		return nil, fmt.Errorf("net: rank %d job %d already registered", nd.rank, id)
	}
	nd.jobs[id] = jp
	return jp, nil
}

// UnregisterJob removes this rank's port for job id. Frames still in
// flight for the id are dropped by readLoop from then on — by the time
// a job's termination detector has fired, no peer has more of its
// frames to send but termination announcements and stragglers of
// canceled jobs.
func (nd *Node) UnregisterJob(id int32) {
	nd.jobMu.Lock()
	delete(nd.jobs, id)
	nd.jobMu.Unlock()
}

// routeJob delivers one inbound job-tagged frame to its registered
// port. It reports false when no port holds the id.
func (nd *Node) routeJob(m *Message) bool {
	nd.jobMu.RLock()
	jp := nd.jobs[m.Job]
	nd.jobMu.RUnlock()
	if jp == nil {
		return false
	}
	jp.put(m)
	return true
}

// put delivers one inbound frame of the port's job to its mailbox (a
// put: the socket reader never waits for a job's driver).
func (jp *JobPort) put(m *Message) {
	switch m.Type {
	case TypeState:
		jp.in.putState(inMsg{from: int(m.From), kind: int(m.Kind), payload: m.StatePayload()})
	case TypeData:
		jp.in.putData(jobData{from: int(m.From), m: m.Data})
	case TypeWork:
		jp.in.putData(jobData{from: int(m.From), m: workData(m)})
	case TypeCtrl:
		jp.in.putCtrl(ctrlMsg{from: int(m.From), c: m.Ctrl})
	}
}

// Take moves the port's next inbound message in Algorithm 1's order
// among the classes the driver may treat now — control frames, then
// state messages, then, only when data is set, application data — into
// m. When nothing qualified it returns false and the port is armed:
// park on Ready, then Take again. Take before the first park: a driver
// that waits first is never armed.
func (jp *JobPort) Take(data bool, m *workload.Msg) bool {
	switch cl, c, s, d := jp.in.take(data); cl {
	case workload.ClassCtrl:
		*m = workload.Msg{Class: cl, From: c.from, Ctrl: c.c}
	case workload.ClassState:
		*m = workload.Msg{Class: cl, From: s.from, Kind: s.kind, Payload: s.payload}
	case workload.ClassData:
		*m = workload.Msg{Class: cl, From: d.from, Data: d.m}
	default:
		return false
	}
	return true
}

// Ready is the channel a driver parks on after Take returned false; a
// receive means "Take again", not that a message is certain.
func (jp *JobPort) Ready() <-chan struct{} { return jp.in.wake }

// Now is the node's clock: a JobPort is its rank's core.Context (a
// hosted App's rankCtx keeps its host's clock instead).
func (jp *JobPort) Now() float64 { return jp.nd.now() }

// Send ships one state message of the job's own mechanisms to rank `to`
// (or delivers locally for the own rank) and charges the job's counters
// with the core byte hint for the kind.
func (jp *JobPort) Send(to, kind int, payload any, bytes float64) {
	jp.mu.Lock()
	jp.cnt.AddState(kind, bytes)
	jp.mu.Unlock()
	if to == jp.nd.rank {
		jp.in.putState(inMsg{from: to, kind: kind, payload: payload})
		return
	}
	// One send-only trace event per state message: `loadex validate`
	// counts them.
	jp.nd.opts.Rec.Record(chaos.Event{Ev: chaos.EvState, Rank: jp.nd.rank, Peer: to, Kind: int32(kind)})
	m, err := JobStateMessage(jp.id, jp.nd.rank, kind, payload)
	if err != nil {
		panic(err) // a core payload the codec cannot carry is a programming error
	}
	jp.nd.post(to, m)
}

// SendData ships one application data message, charging the
// application's modeled byte size (the writer goroutine tallies the
// real encoded frame into the node's wire stats).
func (jp *JobPort) SendData(to int, m workload.DataMsg) {
	jp.mu.Lock()
	jp.cnt.AddData(m.Bytes)
	jp.mu.Unlock()
	if to == jp.nd.rank {
		jp.in.putData(jobData{from: to, m: m})
		return
	}
	jp.nd.post(to, JobDataMessage(jp.id, jp.nd.rank, m))
}

// SendCtrl ships one detector control frame.
func (jp *JobPort) SendCtrl(to int, c termdet.Ctrl) {
	jp.mu.Lock()
	jp.cnt.AddCtrl(core.BytesCtrl)
	jp.mu.Unlock()
	if to == jp.nd.rank {
		jp.in.putCtrl(ctrlMsg{from: to, c: c})
		return
	}
	jp.nd.post(to, JobCtrlMessage(jp.id, jp.nd.rank, c))
}

// Wake makes the driver's next park on Ready return at once (local
// only, no payload); a Wake while the driver is running is kept.
func (jp *JobPort) Wake() { jp.in.nudge() }

// Counters returns a snapshot of the job's per-rank counters.
func (jp *JobPort) Counters() core.Counters {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.cnt
}
