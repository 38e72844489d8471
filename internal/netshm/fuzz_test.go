package netshm

import (
	"bytes"
	"reflect"
	"testing"

	"hemlock/internal/wire/wiretest"
)

// Datagrams arrive from any machine on the network. Both decoders return
// an error, or a value that encodes and decodes back to an equal value.
// They never panic.

// FuzzDecodeMsg also decodes each input into a message that last held a
// page-carrying update, as a receiver's reused message does, and requires
// the same outcome as a fresh decode: nothing of one datagram may leak
// into the next.
func FuzzDecodeMsg(f *testing.F) {
	for _, b := range wiretest.Corpus(f, "FuzzDecodeMsg", "enc-") {
		for _, c := range wiretest.Mutations(b, 13, 100) {
			f.Add(c)
		}
	}
	prev := (&msg{typ: msgUpdate, path: "/lib/whod", base: 0x30007000, size: 9000, gen: 3,
		origin: "vaxa", pages: []page{
			{idx: 0, gen: 3, full: bytes.Repeat([]byte{0xEE}, 300)},
			{idx: 1, gen: 3, deltas: []rng{{off: 1, data: []byte{1}}, {off: 9, data: []byte{2, 3}}}},
			{idx: 2, gen: 2, deltas: []rng{{off: 5, data: []byte{4}}}},
		}, payload: []byte("left over")}).encode()
	segs := map[string]*seg{"/lib/whod": {path: "/lib/whod"}}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg(b)
		var reused msg
		if err := reused.decode(prev, "vaxa", segs); err != nil {
			t.Fatal(err)
		}
		reused.release()
		rerr := reused.decode(b, "vaxa", segs)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("decoding into a reused message: %v; into a fresh one: %v", rerr, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(reused.encode(), m.encode()) {
			t.Fatalf("a reused message decoded differently:\n%+v\n%+v", &reused, m)
		}
		again, err := decodeMsg(m.encode())
		if err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message: %v\n%+v\n%+v", err, m, again)
		}
	})
}

func FuzzDecodeTxnPayload(f *testing.F) {
	for _, b := range wiretest.Corpus(f, "FuzzDecodeTxnPayload", "enc-") {
		for _, c := range wiretest.Mutations(b, 17, 100) {
			f.Add(c)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		reads, writes, err := decodeTxnPayload(b)
		if err != nil {
			return
		}
		r2, w2, err := decodeTxnPayload(encodeTxnPayload(reads, writes))
		if err != nil || !reflect.DeepEqual(reads, r2) || !reflect.DeepEqual(writes, w2) {
			t.Fatalf("round trip changed the payload: %v", err)
		}
	})
}

// TestSeedsReencodeByteForByte: the enc-* seeds are a two-page delta
// update, a full sync and a txn forward recorded from a fleet run before
// the formats moved onto internal/wire; they must decode and re-encode to
// the same bytes.
func TestSeedsReencodeByteForByte(t *testing.T) {
	for name, b := range wiretest.Corpus(t, "FuzzDecodeMsg", "enc-") {
		m, err := decodeMsg(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(m.encode(), b) {
			t.Errorf("%s: re-encoding differs", name)
		}
	}
	for name, b := range wiretest.Corpus(t, "FuzzDecodeTxnPayload", "enc-") {
		reads, writes, err := decodeTxnPayload(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(encodeTxnPayload(reads, writes), b) {
			t.Errorf("%s: re-encoding differs", name)
		}
	}
}

// BenchmarkDecodeMsg decodes each recorded datagram into one reused
// message, as a receiver that holds the segment and hears from the
// sender does; every delivered fleet datagram pays this once.
func BenchmarkDecodeMsg(b *testing.B) {
	for name, enc := range wiretest.Corpus(b, "FuzzDecodeMsg", "enc-") {
		b.Run(name, func(b *testing.B) {
			first, err := decodeMsg(enc)
			if err != nil {
				b.Fatal(err)
			}
			segs := map[string]*seg{first.path: {path: first.path}}
			var m msg
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.decode(enc, first.origin, segs); err != nil {
					b.Fatal(err)
				}
				m.release()
			}
		})
	}
}
