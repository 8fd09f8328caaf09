package net

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// sampleMessages covers every wire type and every state kind, including
// edge values (empty assignment lists, negative loads, zero spin).
func sampleMessages() []Message {
	return []Message{
		{Type: TypeHello, From: 3},
		{Type: TypeWorkDone, From: 7},
		// A program scenario's work item.
		{Type: TypeData, From: 0, Data: workload.DataMsg{Work: 40, Bytes: core.BytesWorkItem}},
		{Type: TypeWork, From: 2, Load: core.Load{12.5, -3}, Spin: 1500000},
		{Type: TypeWork, From: 0, Load: core.Load{}, Spin: 0},
		{Type: TypeState, From: 1, Kind: int32(core.KindUpdate), Load: core.Load{100, 2048}},
		{Type: TypeState, From: 5, Kind: int32(core.KindNoMoreMaster)},
		{Type: TypeState, From: 4, Kind: int32(core.KindStartSnp), Req: 42},
		{Type: TypeState, From: 4, Kind: int32(core.KindSnp), Req: 42, Load: core.Load{-1.25, 7}},
		{Type: TypeState, From: 6, Kind: int32(core.KindEndSnp)},
		{Type: TypeState, From: 2, Kind: int32(core.KindMasterToSlave), Load: core.Load{30}},
		{Type: TypeState, From: 0, Kind: int32(core.KindMasterToAll), Assignments: []core.Assignment{
			{Proc: 1, Delta: core.Load{10, 1}},
			{Proc: 3, Delta: core.Load{20, 2}},
		}},
		{Type: TypeState, From: 0, Kind: int32(core.KindMasterToAll)},
		{Type: TypeState, From: 3, Kind: int32(core.KindGossip), Origin: 6, Seq: 12, TTL: 4, Load: core.Load{55, -1}},
		{Type: TypeState, From: 5, Kind: int32(core.KindDiffuse), Loads: []core.Load{{1, 2}, {}, {-3.5, 4}}},
		{Type: TypeState, From: 5, Kind: int32(core.KindDiffuse)},
		{Type: TypeData, From: 3, Data: workload.DataMsg{
			Kind: 101, Node: 17, Peer: 2, Count: 48, Work: 1.5e6, Size: 2304, Bytes: 18432,
		}},
		{Type: TypeData, From: 1, Data: workload.DataMsg{Kind: 105, Bytes: 32}},
		{Type: TypeData, From: 0, Data: workload.DataMsg{
			Kind: 102, Node: 5, Peer: -1, Count: 1, Size: -2.5,
		}},
		{Type: TypeCtrl, From: 2, Ctrl: termdet.Ctrl{Kind: termdet.CtrlAck}},
		{Type: TypeCtrl, From: 4, Ctrl: termdet.Ctrl{Kind: termdet.CtrlToken, Count: -3, Black: true}},
		{Type: TypeCtrl, From: 0, Ctrl: termdet.Ctrl{Kind: termdet.CtrlTerm}},
	}
}

// TestCtrlFrameSizeMatchesConstant pins core.BytesCtrl — what the
// runtimes without a real wire charge per control frame — to the
// binary codec's actual encoding.
func TestCtrlFrameSizeMatchesConstant(t *testing.T) {
	b, err := (BinaryCodec{}).Encode(nil, CtrlMessage(3, termdet.Ctrl{Kind: termdet.CtrlToken, Count: 9, Black: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != int(core.BytesCtrl) {
		t.Fatalf("encoded ctrl frame is %d bytes, core.BytesCtrl = %v", len(b), core.BytesCtrl)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, codec := range []BinaryCodec{{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			for _, m := range sampleMessages() {
				b, err := codec.Encode(nil, m)
				if err != nil {
					t.Fatalf("encode %+v: %v", m, err)
				}
				got, err := codec.Decode(b)
				if err != nil {
					t.Fatalf("decode %+v: %v", m, err)
				}
				// Empty assignment/load lists may round-trip as nil.
				if len(got.Assignments) == 0 {
					got.Assignments = nil
				}
				if len(got.Loads) == 0 {
					got.Loads = nil
				}
				want := m
				if len(want.Assignments) == 0 {
					want.Assignments = nil
				}
				if len(want.Loads) == 0 {
					want.Loads = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
				}
			}
		})
	}
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	codec := BinaryCodec{}
	valid, err := codec.Encode(nil, sampleMessages()[8]) // snp with load
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, not panic.
	for i := 0; i < len(valid); i++ {
		if _, err := codec.Decode(valid[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
	}
	// Trailing garbage is rejected.
	if _, err := codec.Decode(append(append([]byte{}, valid...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Unknown type / kind.
	if _, err := codec.Decode([]byte{0xff, 0, 0, 0, 1}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := codec.Decode([]byte{byte(TypeState), 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBinaryDecodeBoundsAssignmentCount(t *testing.T) {
	// A master_to_all frame claiming 2^31 assignments but carrying none
	// must error without allocating.
	b := []byte{byte(TypeState), 0, 0, 0, 0, 0, 0, 0, byte(core.KindMasterToAll), 0x7f, 0xff, 0xff, 0xff}
	if _, err := (BinaryCodec{}).Decode(b); err == nil {
		t.Fatal("hostile assignment count accepted")
	}
	// Same for a diffuse frame's load-vector count.
	b = []byte{byte(TypeState), 0, 0, 0, 0, 0, 0, 0, byte(core.KindDiffuse), 0x7f, 0xff, 0xff, 0xff}
	if _, err := (BinaryCodec{}).Decode(b); err == nil {
		t.Fatal("hostile load vector count accepted")
	}
}

func TestStateMessageRoundTrip(t *testing.T) {
	cases := []struct {
		kind    int
		payload any
	}{
		{core.KindUpdate, core.UpdatePayload{Load: core.Load{5, 6}}},
		{core.KindMasterToAll, core.MasterToAllPayload{Assignments: []core.Assignment{{Proc: 2, Delta: core.Load{9}}}}},
		{core.KindNoMoreMaster, nil},
		{core.KindStartSnp, core.StartSnpPayload{Req: 9}},
		{core.KindSnp, core.SnpPayload{Req: 9, Load: core.Load{1, 2}}},
		{core.KindEndSnp, nil},
		{core.KindMasterToSlave, core.MasterToSlavePayload{Delta: core.Load{4}}},
		{core.KindGossip, core.GossipPayload{Origin: 2, Seq: 7, TTL: 3, Load: core.Load{11, -0.5}}},
		{core.KindDiffuse, core.DiffusePayload{Loads: []core.Load{{1}, {2, 3}}}},
	}
	for _, c := range cases {
		m, err := StateMessage(3, c.kind, c.payload)
		if err != nil {
			t.Fatalf("%s: %v", core.KindName(c.kind), err)
		}
		got := m.StatePayload()
		if !reflect.DeepEqual(got, c.payload) {
			t.Fatalf("%s: payload %#v, want %#v", core.KindName(c.kind), got, c.payload)
		}
	}
	// A payload type the wire cannot carry fails loudly.
	if _, err := StateMessage(0, core.KindUpdate, "bogus"); err == nil {
		t.Fatal("bogus payload accepted")
	}
	if _, err := StateMessage(0, 999, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-frame")}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range bodies {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %q, want %q", got, want)
		}
		scratch = got
	}
	// Oversized inbound frame header is rejected before allocation.
	var huge bytes.Buffer
	huge.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&huge, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
