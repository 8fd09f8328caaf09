package net

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/termdet"
	"repro/internal/workload"
)

// FuzzDecode drives the binary decoder with arbitrary bytes. Properties:
//
//  1. Decode never panics, whatever the input.
//  2. Anything that decodes re-encodes, and the re-encoding is a fixed
//     point: decode(encode(decode(b))) produces identical bytes
//     (canonical form), which subsumes decode(encode(m)) == m for every
//     well-formed message — the seed corpus checks in one encoding of
//     every message kind.
//
// Run with `go test -fuzz=FuzzDecode ./internal/net`.
func FuzzDecode(f *testing.F) {
	codec := BinaryCodec{}
	for _, m := range sampleMessages() {
		b, err := codec.Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A few malformed seeds steer the fuzzer toward the error paths.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{byte(TypeState), 0, 0, 0, 1, 0, 0, 0, byte(2), 0x7f, 0xff, 0xff, 0xff})
	// Job-tagged frames exercise the tag bit and the job id field.
	for _, m := range []Message{
		JobDataMessage(4, 1, workload.DataMsg{Kind: 2, Work: 3}),
		JobCtrlMessage(9, 2, termdet.Ctrl{Kind: termdet.CtrlAck}),
	} {
		b, err := codec.Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// So do frames of the retired state kinds.
	for _, frame := range retiredFrames {
		b, err := hex.DecodeString(frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := codec.Decode(b)
		if err != nil {
			return
		}
		enc, err := codec.Encode(nil, m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %+v: %v", m, err)
		}
		m2, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %x: %v", enc, err)
		}
		enc2, err := codec.Encode(nil, m2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		// Byte-level comparison sidesteps NaN != NaN in struct equality
		// while still proving the codec is a bijection on its image.
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical:\n first %x\nsecond %x", enc, enc2)
		}
		// The binary codec is strict, so a successful decode consumes
		// exactly the canonical encoding.
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", b, enc)
		}
	})
}
