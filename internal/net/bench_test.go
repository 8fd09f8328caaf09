package net

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// benchMessages is a representative traffic mix: a threshold update, a
// reservation broadcast with three assignments, a snapshot reply and a
// work item.
func benchMessages() []Message {
	return []Message{
		{Type: TypeState, From: 3, Kind: int32(core.KindUpdate),
			Load: core.Load{core.Workload: 42.5, core.Memory: 7}},
		{Type: TypeState, From: 1, Kind: int32(core.KindMasterToAll),
			Assignments: []core.Assignment{
				{Proc: 2, Delta: core.Load{core.Workload: 30}},
				{Proc: 4, Delta: core.Load{core.Workload: 30}},
				{Proc: 5, Delta: core.Load{core.Workload: 30}},
			}},
		{Type: TypeState, From: 6, Kind: int32(core.KindSnp), Req: 9,
			Load: core.Load{core.Workload: 13.25, core.Memory: 2}},
		{Type: TypeWork, From: 0, Load: core.Load{core.Workload: 30}, Spin: 1_000_000},
	}
}

func benchCodecs(b *testing.B) []BinaryCodec {
	b.Helper()
	return []BinaryCodec{{}}
}

func BenchmarkEncode(b *testing.B) {
	msgs := benchMessages()
	for _, codec := range benchCodecs(b) {
		// Report throughput as the average encoded size of the mix, a
		// constant per iteration.
		var mixBytes int64
		for _, m := range msgs {
			body, err := codec.Encode(nil, m)
			if err != nil {
				b.Fatal(err)
			}
			mixBytes += int64(len(body))
		}
		b.Run(codec.Name(), func(b *testing.B) {
			var buf []byte
			var err error
			b.ReportAllocs()
			b.SetBytes(mixBytes / int64(len(msgs)))
			for i := 0; i < b.N; i++ {
				m := msgs[i%len(msgs)]
				buf, err = codec.Encode(buf[:0], m)
				if err != nil {
					b.Fatal(err)
				}
			}
			_ = buf
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	msgs := benchMessages()
	for _, codec := range benchCodecs(b) {
		encoded := make([][]byte, len(msgs))
		for i, m := range msgs {
			body, err := codec.Encode(nil, m)
			if err != nil {
				b.Fatal(err)
			}
			encoded[i] = body
		}
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(encoded[i%len(encoded)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeInto measures the reused-Message decode path the node
// reader actually runs: payload slice capacity is recycled across
// frames, so the binary codec's steady state is allocation-free.
func BenchmarkDecodeInto(b *testing.B) {
	msgs := benchMessages()
	for _, codec := range benchCodecs(b) {
		encoded := make([][]byte, len(msgs))
		for i, m := range msgs {
			body, err := codec.Encode(nil, m)
			if err != nil {
				b.Fatal(err)
			}
			encoded[i] = body
		}
		b.Run(codec.Name(), func(b *testing.B) {
			var m Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := codec.DecodeInto(encoded[i%len(encoded)], &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundTrip measures one full encode+decode of the whole mix,
// the per-message cost a node's reader/writer pair pays. The plain
// variant goes through value-returning Decode; the into variant reuses
// one Message the way the reader loop does.
func BenchmarkRoundTrip(b *testing.B) {
	msgs := benchMessages()
	for _, codec := range benchCodecs(b) {
		b.Run(fmt.Sprintf("%s/mix=%d", codec.Name(), len(msgs)), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					body, err := codec.Encode(buf[:0], m)
					if err != nil {
						b.Fatal(err)
					}
					buf = body
					if _, err := codec.Decode(body); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("%s/mix=%d/into", codec.Name(), len(msgs)), func(b *testing.B) {
			var buf []byte
			var dec Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					body, err := codec.Encode(buf[:0], m)
					if err != nil {
						b.Fatal(err)
					}
					buf = body
					if err := codec.DecodeInto(body, &dec); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMailbox times put + take of one data item through the
// mailbox against a buffered channel of the same element type — the
// transport's inbound queue and what it replaced — with 1 and 3
// producers feeding one consumer (a 4-rank mesh has 3 readers per
// rank). A mailbox slower than the channel would show here first.
func BenchmarkMailbox(b *testing.B) {
	feed := func(b *testing.B, producers int, put func(jobData)) {
		for p := 0; p < producers; p++ {
			share := b.N / producers
			if p == 0 {
				share += b.N % producers
			}
			go func(p, share int) {
				for i := 0; i < share; i++ {
					put(jobData{from: p})
				}
			}(p, share)
		}
	}
	for _, producers := range []int{1, 3} {
		b.Run(fmt.Sprintf("mailbox/producers=%d", producers), func(b *testing.B) {
			mb := newMailbox[ctrlMsg, inMsg, jobData]()
			b.ReportAllocs()
			feed(b, producers, mb.putData)
			for taken := 0; taken < b.N; {
				if cl, _, _, _ := mb.take(true); cl == workload.ClassNone {
					<-mb.wake
					continue
				}
				taken++
			}
		})
		b.Run(fmt.Sprintf("chan/producers=%d", producers), func(b *testing.B) {
			// The parent's dataCh size; the element type is what the
			// mailbox carries now.
			ch := make(chan jobData, 1<<12)
			b.ReportAllocs()
			feed(b, producers, func(d jobData) { ch <- d })
			for taken := 0; taken < b.N; taken++ {
				<-ch
			}
		})
	}
}
