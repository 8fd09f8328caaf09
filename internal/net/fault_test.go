package net

import (
	"bytes"
	"encoding/binary"
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/chaos"
)

// sinkConn is a net.Conn stub collecting everything written to it; the
// fault writer only ever calls Write and Close.
type sinkConn struct {
	net.Conn
	buf    bytes.Buffer
	closed bool
}

func (c *sinkConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *sinkConn) Close() error                { c.closed = true; return nil }

// frame builds one length-prefixed wire frame whose body leads with the
// type tag (the binary codec's layout) followed by payload.
func frame(t MsgType, payload ...byte) []byte {
	body := append([]byte{byte(t)}, payload...)
	f := make([]byte, FrameHeaderBytes+len(body))
	binary.BigEndian.PutUint32(f, uint32(len(body)))
	copy(f[FrameHeaderBytes:], body)
	return f
}

// splitFrames re-parses a raw byte stream into frames.
func splitFrames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(raw) > 0 {
		if len(raw) < FrameHeaderBytes {
			t.Fatalf("trailing partial header: % x", raw)
		}
		total := FrameHeaderBytes + int(binary.BigEndian.Uint32(raw))
		if len(raw) < total {
			t.Fatalf("trailing partial frame: % x", raw)
		}
		frames = append(frames, raw[:total])
		raw = raw[total:]
	}
	return frames
}

// quietPlan is a non-nil plan injecting nothing (selectors disabled),
// so the writer's framing machinery runs without faults.
func quietPlan() *chaos.Plan {
	return &chaos.Plan{Name: "quiet", Seed: 1, SlowRank: -1, CrashRank: -1}
}

func newTestWriter(conn net.Conn, plan *chaos.Plan) *faultWriter {
	return newFaultWriter(conn, plan, 0, 1, time.Now(), make(chan struct{}))
}

// TestFaultWriterReframesSplitWrites: frames batched together or split
// across Write calls (bufio flushes at arbitrary boundaries) must come
// out whole and in order.
func TestFaultWriterReframesSplitWrites(t *testing.T) {
	conn := &sinkConn{}
	fw := newTestWriter(conn, quietPlan())
	f1 := frame(TypeState, 'a')
	f2 := frame(TypeData, 'b', 'c')
	f3 := frame(TypeCtrl, 'd')
	batch := append(append(append([]byte{}, f1...), f2...), f3...)
	// First write ends mid-f3 (inside its header, even).
	cut := len(f1) + len(f2) + 2
	for _, chunk := range [][]byte{batch[:cut], batch[cut:]} {
		if n, err := fw.Write(chunk); err != nil || n != len(chunk) {
			t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(chunk))
		}
	}
	got := splitFrames(t, conn.buf.Bytes())
	want := [][]byte{f1, f2, f3}
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d = % x, want % x", i, got[i], want[i])
		}
	}
}

// TestFaultWriterLossClasses: loss applies to state frames (and data
// only with LossData); control, handshake and quiescence bookkeeping
// always pass.
func TestFaultWriterLossClasses(t *testing.T) {
	plan := quietPlan()
	plan.Loss = 1 // drop every droppable frame
	conn := &sinkConn{}
	fw := newTestWriter(conn, plan)
	var in []byte
	for _, f := range [][]byte{
		frame(TypeState, 1), frame(TypeWork, 2), frame(TypeData, 3),
		frame(TypeCtrl, 4), frame(TypeDone, 5), frame(TypeWorkDone, 6),
	} {
		in = append(in, f...)
	}
	if _, err := fw.Write(in); err != nil {
		t.Fatal(err)
	}
	var kinds []MsgType
	for _, f := range splitFrames(t, conn.buf.Bytes()) {
		kinds = append(kinds, MsgType(f[FrameHeaderBytes]))
	}
	want := []MsgType{TypeWork, TypeData, TypeCtrl, TypeDone, TypeWorkDone}
	if len(kinds) != len(want) {
		t.Fatalf("survivors = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", kinds, want)
		}
	}

	// LossData extends the drop set to work/data frames.
	plan.LossData = true
	conn2 := &sinkConn{}
	fw2 := newTestWriter(conn2, plan)
	if _, err := fw2.Write(in); err != nil {
		t.Fatal(err)
	}
	for _, f := range splitFrames(t, conn2.buf.Bytes()) {
		switch k := MsgType(f[FrameHeaderBytes]); k {
		case TypeState, TypeWork, TypeData:
			t.Fatalf("droppable frame %s survived Loss=1", k)
		}
	}
}

// TestFaultWriterReorderPermutes: a Reorder plan may swap adjacent
// frames within a batch but must forward exactly the frames it was
// given — reordering is a permutation, never loss or duplication.
func TestFaultWriterReorderPermutes(t *testing.T) {
	plan := quietPlan()
	plan.Reorder = true
	conn := &sinkConn{}
	fw := newTestWriter(conn, plan)
	var in []byte
	var payloads []byte
	for i := byte(0); i < 16; i++ {
		in = append(in, frame(TypeData, i)...)
		payloads = append(payloads, i)
	}
	if _, err := fw.Write(in); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, f := range splitFrames(t, conn.buf.Bytes()) {
		got = append(got, f[FrameHeaderBytes+1])
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(got), len(payloads))
	}
	sorted := append([]byte(nil), got...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if !bytes.Equal(sorted, payloads) {
		t.Fatalf("reorder changed the frame multiset: %v", got)
	}
	if bytes.Equal(got, payloads) {
		t.Fatalf("16 frames through a seeded reorder plan came out untouched")
	}
}

// TestFaultWriterSever: once the crash time passes, the writer closes
// the connection and every subsequent write fails — a dead rank's links
// stay dead.
func TestFaultWriterSever(t *testing.T) {
	plan := quietPlan()
	plan.CrashRank = 1
	plan.CrashAfter = 0.001
	conn := &sinkConn{}
	fw := newFaultWriter(conn, plan, 0, 1, time.Now().Add(-time.Second), make(chan struct{}))
	if _, err := fw.Write(frame(TypeData, 1)); err == nil {
		t.Fatalf("write on a crashed link succeeded")
	}
	if !conn.closed {
		t.Fatalf("severed link left the connection open")
	}
	if _, err := fw.Write(frame(TypeData, 2)); err == nil {
		t.Fatalf("severed link accepted a later write")
	}
}

// TestFrameClass covers the faulted classes plus the never-faulted rest.
func TestFrameClass(t *testing.T) {
	cases := []struct {
		body []byte
		want chaos.Class
	}{
		{[]byte{byte(TypeState), 9}, chaos.ClassState},
		{[]byte{byte(TypeWork)}, chaos.ClassData},
		{[]byte{byte(TypeData)}, chaos.ClassData},
		{[]byte{byte(TypeCtrl)}, chaos.ClassCtrl},
		{[]byte{byte(TypeHello)}, chaos.ClassOther},
		{[]byte{byte(TypeDone)}, chaos.ClassOther},
		{[]byte{byte(TypeWorkDone)}, chaos.ClassOther},
		{nil, chaos.ClassOther},
	}
	for _, tc := range cases {
		if got := frameClass(tc.body); got != tc.want {
			t.Errorf("frameClass(%q) = %v, want %v", tc.body, got, tc.want)
		}
	}
}
