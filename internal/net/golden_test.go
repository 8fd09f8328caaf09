package net

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/termdet"
	"repro/internal/workload"
)

// wireGolden is the binary encoding of every sampleMessages() frame, in
// order, followed by one job-tagged state, data and ctrl frame. A change
// to any byte here is a wire-format change: peers built from different
// trees would stop understanding each other.
var wireGolden = []string{
	"0100000003",
	"0400000007",
	"06000000000000000000000000000000000000000040440000000000000000000000000000403d000000000000",
	"03000000024029000000000000c008000000000000000000000016e360",
	"0300000000000000000000000000000000000000000000000000000000",
	"020000000100000001405900000000000040a0000000000000",
	"020000000500000003",
	"0200000004000000040000002a",
	"0200000004000000050000002abff4000000000000401c000000000000",
	"020000000600000006",
	"020000000200000007403e0000000000000000000000000000",
	"020000000000000002000000020000000140240000000000003ff00000000000000000000340340000000000004000000000000000",
	"02000000000000000200000000",
	"0600000003000000650000001100000002000000304136e3600000000040a200000000000040d2000000000000",
	"060000000100000069000000000000000000000000000000000000000000000000000000004040000000000000",
	"06000000000000006600000005ffffffff000000010000000000000000c0040000000000000000000000000000",
	"0700000002000000010000000000",
	"070000000400000002fffffffd01",
	"0700000000000000030000000000",
	// Job-tagged frames: type byte 0x80|base, the job id after the
	// sender.
	"820000000200000007000000014045000000000000bff0000000000000",
	"86000000030000000100000002000000090000000100000004402900000000000040540000000000004084000000000000",
	"87000000000000012c00000002fffffffd01",
}

// TestWireFormatGolden pins the wire format byte for byte, and checks
// that every committed FuzzDecode corpus file is still a canonical frame
// (FuzzDecode itself skips inputs that fail to decode, so a seed the
// decoder stopped accepting would otherwise pass unnoticed).
func TestWireFormatGolden(t *testing.T) {
	codec := BinaryCodec{}
	st, err := JobStateMessage(7, 2, core.KindUpdate, core.UpdatePayload{Load: core.Load{42, -1}})
	if err != nil {
		t.Fatal(err)
	}
	msgs := append(sampleMessages(),
		st,
		JobDataMessage(1, 3, workload.DataMsg{Kind: 2, Node: 9, Peer: 1, Count: 4, Work: 12.5, Size: 80, Bytes: 640}),
		JobCtrlMessage(300, 0, termdet.Ctrl{Kind: termdet.CtrlToken, Count: -3, Black: true}))
	if len(msgs) != len(wireGolden) {
		t.Fatalf("%d messages, %d golden frames", len(msgs), len(wireGolden))
	}
	for i, m := range msgs {
		b, err := codec.Encode(nil, m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		if got := hex.EncodeToString(b); got != wireGolden[i] {
			t.Errorf("frame %d (%s):\n got %s\nwant %s", i, m.Type, got, wireGolden[i])
		}
	}

	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "seed_*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzDecode corpus (%v)", err)
	}
	for _, f := range files {
		b := readCorpusBytes(t, f)
		m, err := codec.Decode(b)
		if filepath.Base(f) == "seed_done" {
			// Type byte 5 stays retired.
			if err == nil {
				t.Errorf("%s: retired type decoded as %+v", f, m)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		enc, err := codec.Encode(nil, m)
		if err != nil {
			t.Errorf("%s: re-encode: %v", f, err)
			continue
		}
		if got, want := hex.EncodeToString(enc), hex.EncodeToString(b); got != want {
			t.Errorf("%s: not canonical:\n got %s\nwant %s", f, got, want)
		}
	}
}

// readCorpusBytes parses a one-value `go test fuzz v1` corpus file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if !ok || !ok2 {
		t.Fatalf("%s: not a []byte value", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
