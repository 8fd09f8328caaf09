// Package net runs the load-exchange mechanisms over real TCP sockets:
// the same transport-agnostic state machines that the deterministic
// simulator (internal/sim) drives, now facing a genuine wire —
// serialization, per-pair FIFO connections and cross-process quiescence
// detection. There is no separate state channel: state and data share
// one connection per peer, and a rank treats state first because its
// mailbox hands out messages in class order (see mailbox.go), never
// because a sender was held back.
//
// The package has three layers:
//
//   - a length-prefixed wire codec (BinaryCodec),
//   - Node, one OS process of the cluster: a TCP listener, one
//     connection per peer and one never-blocking mailbox consumed in
//     Algorithm 1's order (ctrl, then state, then data),
//   - Cluster, an in-process harness that runs N Nodes over localhost
//     TCP (used by tests and the benchmarks), and AppRunner, which
//     hosts a workload.App on the same kind of mesh (the examples,
//     `loadex run -runtime net -inproc`).
//
// Multi-process clusters are assembled by `loadex run -runtime net`,
// which forks one `loadex node` per rank; the stdio handshake lives in
// cmd/loadex.
package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// MsgType tags a wire message. Hello identifies a connection; State
// carries a core state-channel message; Work/WorkDone are the built-in
// loop's data channel (a work item and its execution acknowledgment);
// Data carries one application-port data-channel message
// (workload.DataMsg: program scenarios' work items, the solver's
// subtasks, contribution-block pieces and ship requests travel as these
// frames); Ctrl carries one termination-detection control frame
// (termdet.Ctrl: engagement acks, probe tokens, the termination
// announcement of the quiescence subsystem). Type byte 5 is retired:
// it carried the Done announcements of the quiescence protocol the
// detectors replaced, and stays unassigned so every later type keeps
// its byte.
type MsgType uint8

// The wire message types.
const (
	TypeHello MsgType = 1 + iota
	TypeState
	TypeWork
	TypeWorkDone
	_ // retired: Done announcement
	TypeData
	TypeCtrl
	// The job-tagged variants multiplex many concurrent jobs over one
	// resident mesh (internal/service): same payloads as their base
	// types plus a job id the receiving node routes on. Legacy frames
	// stay byte-identical — a mesh serving jobs still speaks the exact
	// one-shot protocol for its own state channel.
	TypeJobState
	TypeJobData
	TypeJobCtrl
)

// String returns a short name for the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeState:
		return "state"
	case TypeWork:
		return "work"
	case TypeWorkDone:
		return "work_done"
	case TypeData:
		return "data"
	case TypeCtrl:
		return "ctrl"
	case TypeJobState:
		return "job_state"
	case TypeJobData:
		return "job_data"
	case TypeJobCtrl:
		return "job_ctrl"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Message is the flattened wire representation of everything that
// travels between nodes. Only the fields relevant to Type (and, for
// TypeState, Kind) are encoded; the rest stay zero. A flattened struct —
// rather than an `any` payload — keeps the codec trivial and makes
// decode(encode(m)) == m a meaningful property to fuzz.
type Message struct {
	Type MsgType
	From int32
	// Job identifies the multiplexed job of a TypeJob* frame (zero for
	// every legacy type: job ids start at 1).
	Job int32
	// Kind is the core state-message kind (TypeState/TypeJobState only).
	Kind int32
	// Req is the snapshot request id (start_snp, snp).
	Req int32
	// Load carries the update/snp/master_to_slave load vector, or the
	// work item's load (TypeWork).
	Load core.Load
	// Assignments is the master_to_all reservation list.
	Assignments []core.Assignment
	// Origin, Seq and TTL identify a gossip rumor (kind gossip only):
	// the originating rank, its per-origin sequence number and the
	// remaining hop budget.
	Origin int32
	Seq    int32
	TTL    int32
	// Loads is the diffusion view vector (kind diffuse only), one entry
	// per rank.
	Loads []core.Load
	// Spin is the work item's execution duration in nanoseconds
	// (TypeWork only).
	Spin int64
	// Data is the application-port payload (TypeData only); its Kind
	// tag lives inside the struct, the transport does not interpret it.
	Data workload.DataMsg
	// Ctrl is the termination-detection payload (TypeCtrl only).
	Ctrl termdet.Ctrl
}

// DataMessage builds the wire message for one application data-channel
// send.
func DataMessage(from int, m workload.DataMsg) Message {
	return Message{Type: TypeData, From: int32(from), Data: m}
}

// CtrlMessage builds the wire message for one termination-detection
// control frame.
func CtrlMessage(from int, c termdet.Ctrl) Message {
	return Message{Type: TypeCtrl, From: int32(from), Ctrl: c}
}

// JobDataMessage builds the job-tagged wire message for one data-channel
// send of a multiplexed job.
func JobDataMessage(job int32, from int, m workload.DataMsg) Message {
	return Message{Type: TypeJobData, Job: job, From: int32(from), Data: m}
}

// JobCtrlMessage builds the job-tagged wire message for one
// termination-detection control frame of a multiplexed job.
func JobCtrlMessage(job int32, from int, c termdet.Ctrl) Message {
	return Message{Type: TypeJobCtrl, Job: job, From: int32(from), Ctrl: c}
}

// JobStateMessage builds the job-tagged wire message for one
// state-channel send of a multiplexed job (a hosted application's own
// mechanism traffic, isolated from the mesh's shared state channel).
func JobStateMessage(job int32, from int, kind int, payload any) (Message, error) {
	m, err := StateMessage(from, kind, payload)
	if err != nil {
		return m, err
	}
	m.Type, m.Job = TypeJobState, job
	return m, nil
}

// jobBase maps a job-tagged type onto the base type whose payload
// layout it shares (and returns the input unchanged for non-job types).
func jobBase(t MsgType) MsgType {
	switch t {
	case TypeJobState:
		return TypeState
	case TypeJobData:
		return TypeData
	case TypeJobCtrl:
		return TypeCtrl
	}
	return t
}

// StateMessage builds the wire message for one core state-channel send.
// It returns an error for payloads no core mechanism emits, so an
// incompatible future payload fails loudly rather than silently dropping
// fields.
func StateMessage(from int, kind int, payload any) (Message, error) {
	m := Message{Type: TypeState, From: int32(from), Kind: int32(kind)}
	switch kind {
	case core.KindUpdate:
		p, ok := payload.(core.UpdatePayload)
		if !ok {
			return m, fmt.Errorf("net: update payload %T", payload)
		}
		m.Load = p.Load
	case core.KindMasterToAll:
		p, ok := payload.(core.MasterToAllPayload)
		if !ok {
			return m, fmt.Errorf("net: master_to_all payload %T", payload)
		}
		m.Assignments = p.Assignments
	case core.KindNoMoreMaster, core.KindEndSnp:
		if payload != nil {
			return m, fmt.Errorf("net: %s payload %T", core.KindName(kind), payload)
		}
	case core.KindStartSnp:
		p, ok := payload.(core.StartSnpPayload)
		if !ok {
			return m, fmt.Errorf("net: start_snp payload %T", payload)
		}
		m.Req = p.Req
	case core.KindSnp:
		p, ok := payload.(core.SnpPayload)
		if !ok {
			return m, fmt.Errorf("net: snp payload %T", payload)
		}
		m.Req, m.Load = p.Req, p.Load
	case core.KindMasterToSlave:
		p, ok := payload.(core.MasterToSlavePayload)
		if !ok {
			return m, fmt.Errorf("net: master_to_slave payload %T", payload)
		}
		m.Load = p.Delta
	case core.KindGossip:
		p, ok := payload.(core.GossipPayload)
		if !ok {
			return m, fmt.Errorf("net: gossip payload %T", payload)
		}
		m.Origin, m.Seq, m.TTL, m.Load = p.Origin, p.Seq, p.TTL, p.Load
	case core.KindDiffuse:
		p, ok := payload.(core.DiffusePayload)
		if !ok {
			return m, fmt.Errorf("net: diffuse payload %T", payload)
		}
		m.Loads = p.Loads
	default:
		return m, fmt.Errorf("net: unknown state kind %d", kind)
	}
	return m, nil
}

// StatePayload reconstructs the core payload value HandleMessage expects
// (the mechanisms type-assert concrete payload structs).
func (m *Message) StatePayload() any {
	switch int(m.Kind) {
	case core.KindUpdate:
		return core.UpdatePayload{Load: m.Load}
	case core.KindMasterToAll:
		return core.MasterToAllPayload{Assignments: m.Assignments}
	case core.KindStartSnp:
		return core.StartSnpPayload{Req: m.Req}
	case core.KindSnp:
		return core.SnpPayload{Req: m.Req, Load: m.Load}
	case core.KindMasterToSlave:
		return core.MasterToSlavePayload{Delta: m.Load}
	case core.KindGossip:
		return core.GossipPayload{Origin: m.Origin, Seq: m.Seq, TTL: m.TTL, Load: m.Load}
	case core.KindDiffuse:
		return core.DiffusePayload{Loads: m.Loads}
	}
	return nil // no_more_master, end_snp
}

// ---- binary codec --------------------------------------------------------

// BinaryCodec is the compact big-endian wire encoding. Layout:
//
//	type:u8 from:i32 [per-type fields]
//
// with loads as core.NumMetrics raw float64 bit patterns and the
// master_to_all assignment list length-prefixed by a u32.
type BinaryCodec struct{}

// Name identifies the codec in reports.
func (BinaryCodec) Name() string { return "binary" }

// assignmentSize is the encoded size of one core.Assignment.
const assignmentSize = 4 + 8*int(core.NumMetrics)

// Encode appends the wire form of m to dst and returns the extended slice.
func (BinaryCodec) Encode(dst []byte, m Message) ([]byte, error) {
	dst = append(dst, byte(m.Type))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
	t := m.Type
	if base := jobBase(t); base != t {
		// Job-tagged frames carry the job id right after the sender,
		// then the exact payload layout of their base type.
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Job))
		t = base
	}
	switch t {
	case TypeHello, TypeWorkDone:
		// header only
	case TypeWork:
		dst = appendLoad(dst, m.Load)
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Spin))
	case TypeData:
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Data.Kind))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Data.Node))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Data.Peer))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Data.Count))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Data.Work))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Data.Size))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Data.Bytes))
	case TypeCtrl:
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Ctrl.Kind))
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Ctrl.Count))
		black := byte(0)
		if m.Ctrl.Black {
			black = 1
		}
		dst = append(dst, black)
	case TypeState:
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Kind))
		switch int(m.Kind) {
		case core.KindUpdate, core.KindMasterToSlave:
			dst = appendLoad(dst, m.Load)
		case core.KindNoMoreMaster, core.KindEndSnp:
		case core.KindStartSnp:
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.Req))
		case core.KindSnp:
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.Req))
			dst = appendLoad(dst, m.Load)
		case core.KindMasterToAll:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Assignments)))
			for _, a := range m.Assignments {
				dst = binary.BigEndian.AppendUint32(dst, uint32(a.Proc))
				dst = appendLoad(dst, a.Delta)
			}
		case core.KindGossip:
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.Origin))
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.Seq))
			dst = binary.BigEndian.AppendUint32(dst, uint32(m.TTL))
			dst = appendLoad(dst, m.Load)
		case core.KindDiffuse:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Loads)))
			for _, l := range m.Loads {
				dst = appendLoad(dst, l)
			}
		default:
			return nil, fmt.Errorf("net: encode: unknown state kind %d", m.Kind)
		}
	default:
		return nil, fmt.Errorf("net: encode: unknown message type %d", m.Type)
	}
	return dst, nil
}

// Decode parses exactly b. It is strict: unknown types/kinds, short
// buffers and trailing bytes are errors, and no input panics.
func (c BinaryCodec) Decode(b []byte) (Message, error) {
	var m Message
	err := c.DecodeInto(b, &m)
	return m, err
}

// DecodeInto is Decode into m. Reusing one Message across calls makes
// the steady-state decode path allocation-free: the assignment and load
// vectors of master_to_all / diffuse frames land in the slices m
// already carries whenever their capacity suffices.
func (BinaryCodec) DecodeInto(b []byte, m *Message) error {
	*m = Message{Assignments: m.Assignments[:0], Loads: m.Loads[:0]}
	r := reader{buf: b}
	t, err := r.u8()
	if err != nil {
		return err
	}
	m.Type = MsgType(t)
	if m.From, err = r.i32(); err != nil {
		return err
	}
	base := m.Type
	if b := jobBase(base); b != base {
		if m.Job, err = r.i32(); err != nil {
			return err
		}
		base = b
	}
	switch base {
	case TypeHello, TypeWorkDone:
	case TypeWork:
		if m.Load, err = r.load(); err != nil {
			return err
		}
		var u uint64
		if u, err = r.u64(); err != nil {
			return err
		}
		m.Spin = int64(u)
	case TypeData:
		if m.Data.Kind, err = r.i32(); err != nil {
			return err
		}
		if m.Data.Node, err = r.i32(); err != nil {
			return err
		}
		if m.Data.Peer, err = r.i32(); err != nil {
			return err
		}
		if m.Data.Count, err = r.i32(); err != nil {
			return err
		}
		if m.Data.Work, err = r.f64(); err != nil {
			return err
		}
		if m.Data.Size, err = r.f64(); err != nil {
			return err
		}
		if m.Data.Bytes, err = r.f64(); err != nil {
			return err
		}
	case TypeCtrl:
		if m.Ctrl.Kind, err = r.i32(); err != nil {
			return err
		}
		if m.Ctrl.Count, err = r.i32(); err != nil {
			return err
		}
		var black byte
		if black, err = r.u8(); err != nil {
			return err
		}
		if black > 1 {
			return fmt.Errorf("net: decode: ctrl color byte %d", black)
		}
		m.Ctrl.Black = black == 1
	case TypeState:
		if m.Kind, err = r.i32(); err != nil {
			return err
		}
		switch int(m.Kind) {
		case core.KindUpdate, core.KindMasterToSlave:
			if m.Load, err = r.load(); err != nil {
				return err
			}
		case core.KindNoMoreMaster, core.KindEndSnp:
		case core.KindStartSnp:
			if m.Req, err = r.i32(); err != nil {
				return err
			}
		case core.KindSnp:
			if m.Req, err = r.i32(); err != nil {
				return err
			}
			if m.Load, err = r.load(); err != nil {
				return err
			}
		case core.KindMasterToAll:
			n, err := r.i32()
			if err != nil {
				return err
			}
			// Bound the allocation by what the buffer can actually
			// hold, so a hostile length prefix cannot balloon memory
			// (divide rather than multiply: n*assignmentSize could
			// overflow int on 32-bit platforms).
			if n < 0 || int(n) > (len(r.buf)-r.off)/assignmentSize {
				return fmt.Errorf("net: decode: assignment count %d exceeds frame", n)
			}
			if n > 0 {
				if cap(m.Assignments) >= int(n) {
					m.Assignments = m.Assignments[:n]
				} else {
					m.Assignments = make([]core.Assignment, n)
				}
				for i := range m.Assignments {
					if m.Assignments[i].Proc, err = r.i32(); err != nil {
						return err
					}
					if m.Assignments[i].Delta, err = r.load(); err != nil {
						return err
					}
				}
			}
		case core.KindGossip:
			if m.Origin, err = r.i32(); err != nil {
				return err
			}
			if m.Seq, err = r.i32(); err != nil {
				return err
			}
			if m.TTL, err = r.i32(); err != nil {
				return err
			}
			if m.Load, err = r.load(); err != nil {
				return err
			}
		case core.KindDiffuse:
			n, err := r.i32()
			if err != nil {
				return err
			}
			// Same hostile-length bound as master_to_all: the count must
			// fit the remaining frame bytes.
			if n < 0 || int(n) > (len(r.buf)-r.off)/(8*int(core.NumMetrics)) {
				return fmt.Errorf("net: decode: load vector count %d exceeds frame", n)
			}
			if n > 0 {
				if cap(m.Loads) >= int(n) {
					m.Loads = m.Loads[:n]
				} else {
					m.Loads = make([]core.Load, n)
				}
				for i := range m.Loads {
					if m.Loads[i], err = r.load(); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("net: decode: unknown state kind %d", m.Kind)
		}
	default:
		return fmt.Errorf("net: decode: unknown message type %d", t)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("net: decode: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func appendLoad(dst []byte, l core.Load) []byte {
	for _, v := range l {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// reader is a bounds-checked cursor over a frame body.
type reader struct {
	buf []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if len(r.buf)-r.off < n {
		return nil, fmt.Errorf("net: decode: truncated frame (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) i32() (int32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(b)), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) f64() (float64, error) {
	u, err := r.u64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(u), nil
}

func (r *reader) load() (core.Load, error) {
	var l core.Load
	for i := range l {
		u, err := r.u64()
		if err != nil {
			return l, err
		}
		l[i] = math.Float64frombits(u)
	}
	return l, nil
}

// ---- framing -------------------------------------------------------------

// MaxFrame bounds a frame body; anything larger is a protocol error
// (the biggest legitimate message is a master_to_all over every rank).
const MaxFrame = 1 << 20

// FrameHeaderBytes is the length prefix WriteFrame puts before every
// frame body. The core.Bytes* constants measure frame bodies only; add
// this per message to get true on-wire volume.
const FrameHeaderBytes = 4

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("net: frame of %d bytes exceeds MaxFrame", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed frame body into buf (growing it as
// needed) and returns the body slice.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("net: incoming frame of %d bytes exceeds MaxFrame", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
