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

func FuzzDecodeMsg(f *testing.F) {
	for _, b := range wiretest.Corpus(f, "FuzzDecodeMsg", "enc-") {
		for _, c := range wiretest.Mutations(b, 13, 100) {
			f.Add(c)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg(b)
		if err != nil {
			return
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

// BenchmarkDecodeMsg decodes each recorded datagram; every delivered
// fleet datagram pays this once.
func BenchmarkDecodeMsg(b *testing.B) {
	for name, enc := range wiretest.Corpus(b, "FuzzDecodeMsg", "enc-") {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeMsg(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
