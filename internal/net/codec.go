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
)

// jobBit marks a job-tagged frame in the type byte. Job tags multiplex
// many concurrent jobs over one resident mesh (internal/service): a
// state, data or ctrl frame of job id ≠ 0 sets the bit and carries the
// id right after the sender. The untagged frames are job 0's: a node
// hosting one App rank, and a mesh node's own state channel, speak the
// one-shot protocol unchanged.
const jobBit = 0x80

var typeNames = [...]string{
	TypeHello:    "hello",
	TypeState:    "state",
	TypeWork:     "work",
	TypeWorkDone: "work_done",
	TypeData:     "data",
	TypeCtrl:     "ctrl",
}

// String returns a short name for the message type.
func (t MsgType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Message is the flattened wire representation of everything that
// travels between nodes. Only the fields relevant to Type (and, for
// TypeState, Kind) are encoded; the rest stay zero. A flattened struct —
// rather than an `any` payload — keeps the codec trivial and makes
// decode(encode(m)) == m a meaningful property to fuzz.
type Message struct {
	// Type is the payload type; a job tag never changes it.
	Type MsgType
	From int32
	// Job identifies the multiplexed job of a state, data or ctrl frame
	// (zero on an untagged frame: job 0's).
	Job int32
	// Kind is the core state-message kind (TypeState only).
	Kind int32
	// Req is the snapshot request id (start_snp, snp).
	Req int32
	// Load carries the update/snp/master_to_slave load vector, or the
	// work item's load (TypeWork).
	Load core.Load
	// Assignments is the master_to_all reservation list.
	Assignments []core.Assignment
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

// JobDataMessage builds the wire message for one data-channel send of
// job (an untagged frame for job 0).
func JobDataMessage(job int32, from int, m workload.DataMsg) Message {
	d := DataMessage(from, m)
	d.Job = job
	return d
}

// JobCtrlMessage builds the wire message for one termination-detection
// control frame of job (an untagged frame for job 0).
func JobCtrlMessage(job int32, from int, c termdet.Ctrl) Message {
	m := CtrlMessage(from, c)
	m.Job = job
	return m
}

// JobStateMessage builds the wire message for one state-channel send of
// job (an untagged frame for job 0): a hosted application's own
// mechanism traffic, which on a shared mesh stays isolated from the
// mesh's own state channel.
func JobStateMessage(job int32, from int, kind int, payload any) (Message, error) {
	m, err := StateMessage(from, kind, payload)
	m.Job = job
	return m, err
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
	}
	return nil // no_more_master, end_snp
}

// ---- binary codec --------------------------------------------------------

// BinaryCodec is the compact big-endian wire encoding. Layout:
//
//	type:u8 from:i32 [job:i32 if type&0x80] [per-type fields]
//
// with loads as core.NumMetrics raw float64 bit patterns and the
// master_to_all assignment list length-prefixed by a u32. Message.walk
// states the layout once; encoding and decoding both run it.
type BinaryCodec struct{}

// Name identifies the codec in reports.
func (BinaryCodec) Name() string { return "binary" }

// assignmentSize and loadSize are the encoded sizes of one
// core.Assignment and one core.Load.
const (
	loadSize       = 8 * int(core.NumMetrics)
	assignmentSize = 4 + loadSize
)

// Encode appends the wire form of m to dst and returns the extended slice.
func (BinaryCodec) Encode(dst []byte, m Message) ([]byte, error) {
	c := coder{buf: dst}
	m.walk(&c)
	if c.err != nil {
		return nil, c.err
	}
	return c.buf, nil
}

// Decode parses exactly b. It is strict: unknown types/kinds, short
// buffers and trailing bytes are errors, and no input panics.
func (c BinaryCodec) Decode(b []byte) (Message, error) {
	var m Message
	err := c.DecodeInto(b, &m)
	return m, err
}

// DecodeInto is Decode into m. Reusing one Message across calls makes
// the steady-state decode path allocation-free: the assignments of a
// master_to_all frame land in the slice m already carries whenever its
// capacity suffices.
func (BinaryCodec) DecodeInto(b []byte, m *Message) error {
	*m = Message{Assignments: m.Assignments[:0]}
	c := coder{buf: b, decode: true}
	m.walk(&c)
	if c.err == nil && c.off != len(b) {
		c.fail("%d trailing bytes", len(b)-c.off)
	}
	return c.err
}

// walk visits m's fields in wire order: the one statement of the frame
// layout. Every check that makes a frame malformed lives here or in
// coder, so the decoder accepts exactly what the encoder produces and
// the encoder refuses what the decoder would reject.
func (m *Message) walk(c *coder) {
	t := uint8(m.Type)
	if m.Job != 0 {
		t |= jobBit
	}
	c.u8(&t)
	m.Type = MsgType(t &^ jobBit)
	c.i32(&m.From)
	if t&jobBit != 0 {
		c.i32(&m.Job)
		switch {
		case m.Type != TypeState && m.Type != TypeData && m.Type != TypeCtrl:
			c.fail("job id on a %s frame", m.Type)
		case m.Job == 0:
			c.fail("job-tagged frame with job id 0")
		}
	}
	switch m.Type {
	case TypeHello, TypeWorkDone:
		// header only
	case TypeWork:
		c.load(&m.Load)
		c.i64(&m.Spin)
	case TypeData:
		c.i32(&m.Data.Kind)
		c.i32(&m.Data.Node)
		c.i32(&m.Data.Peer)
		c.i32(&m.Data.Count)
		c.f64(&m.Data.Work)
		c.f64(&m.Data.Size)
		c.f64(&m.Data.Bytes)
	case TypeCtrl:
		c.i32(&m.Ctrl.Kind)
		c.i32(&m.Ctrl.Count)
		black := uint8(0)
		if m.Ctrl.Black {
			black = 1
		}
		c.u8(&black)
		if black > 1 {
			c.fail("ctrl color byte %d", black)
		}
		m.Ctrl.Black = black == 1
	case TypeState:
		c.i32(&m.Kind)
		switch int(m.Kind) {
		case core.KindUpdate, core.KindMasterToSlave:
			c.load(&m.Load)
		case core.KindNoMoreMaster, core.KindEndSnp:
		case core.KindStartSnp:
			c.i32(&m.Req)
		case core.KindSnp:
			c.i32(&m.Req)
			c.load(&m.Load)
		case core.KindMasterToAll:
			m.Assignments = resize(m.Assignments, c.count(len(m.Assignments), assignmentSize, "assignment"))
			for i := range m.Assignments {
				c.i32(&m.Assignments[i].Proc)
				c.load(&m.Assignments[i].Delta)
			}
		default:
			c.fail("unknown state kind %d", m.Kind)
		}
	default:
		c.fail("unknown message type %d", t)
	}
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices (always, when encoding: n is len(s) then).
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// coder runs Message.walk in one direction: it appends each field to
// buf when encoding, and reads it from buf[off:] into the field when
// decoding. The first failure sticks in err; from then on every field
// reads as zero, so walk needs no error check of its own and a failed
// count never drives a loop.
type coder struct {
	buf    []byte
	off    int
	decode bool
	err    error
}

// next reads the next n (1, 4 or 8) bytes of the frame being decoded
// as a big-endian integer: 0 once the decode has failed. It stays out
// of line so the field methods below fit the inliner's budget.
//
//go:noinline
func (c *coder) next(n int) uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.buf)-c.off < n {
		c.fail("truncated frame (need %d bytes at offset %d of %d)", n, c.off, len(c.buf))
		return 0
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	switch n {
	case 1:
		return uint64(b[0])
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	}
	return binary.BigEndian.Uint64(b)
}

// fail records the walk's first error.
func (c *coder) fail(format string, args ...any) {
	if c.err != nil {
		return
	}
	dir := "encode"
	if c.decode {
		dir = "decode"
	}
	c.err = fmt.Errorf("net: "+dir+": "+format, args...)
}

func (c *coder) u8(v *uint8) {
	if c.decode {
		*v = uint8(c.next(1))
		return
	}
	c.buf = append(c.buf, *v)
}

func (c *coder) i32(v *int32) {
	if c.decode {
		*v = int32(c.next(4))
		return
	}
	c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(*v))
}

func (c *coder) i64(v *int64) {
	if c.decode {
		*v = int64(c.next(8))
		return
	}
	c.buf = binary.BigEndian.AppendUint64(c.buf, uint64(*v))
}

func (c *coder) f64(v *float64) {
	if c.decode {
		*v = math.Float64frombits(c.next(8))
		return
	}
	c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(*v))
}

func (c *coder) load(l *core.Load) {
	if c.decode {
		for i := range l {
			l[i] = math.Float64frombits(c.next(8))
		}
		return
	}
	for _, v := range l {
		c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(v))
	}
}

// count walks a u32 list length: n when encoding, the decoded length
// when decoding. A decoded length must fit the frame's remaining bytes
// at size bytes per entry, so a hostile prefix cannot balloon memory
// (divide rather than multiply: n*size could overflow int on 32-bit
// platforms).
func (c *coder) count(n, size int, what string) int {
	v := int32(n)
	c.i32(&v)
	if c.decode && (v < 0 || int(v) > (len(c.buf)-c.off)/size) {
		c.fail("%s count %d exceeds frame", what, v)
		return 0
	}
	return int(v)
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
