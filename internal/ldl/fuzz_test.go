package ldl

import (
	"bytes"
	"reflect"
	"testing"

	"hemlock/internal/wire/wiretest"
)

// FuzzDecodeCache: link-cache entries live in the guest-writable shared
// file system. The decoder returns an error, or an entry that encodes and
// decodes back to an equal entry. It never panics.
func FuzzDecodeCache(f *testing.F) {
	for _, b := range wiretest.Corpus(f, "FuzzDecodeCache", "enc-") {
		for _, c := range wiretest.Mutations(b, 11, 100) {
			f.Add(c)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeCache(b)
		if err != nil {
			return
		}
		re, err := encodeCache(e)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := decodeCache(re)
		if err != nil || !reflect.DeepEqual(e, again) {
			t.Fatalf("round trip changed the entry: %v", err)
		}
	})
}

// TestCacheSeedsReencodeByteForByte: the enc-* seeds are entries recorded
// before the format moved onto internal/wire; they must decode and
// re-encode to the same bytes.
func TestCacheSeedsReencodeByteForByte(t *testing.T) {
	for name, b := range wiretest.Corpus(t, "FuzzDecodeCache", "enc-") {
		e, err := decodeCache(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re, err := encodeCache(e); err != nil || !bytes.Equal(re, b) {
			t.Errorf("%s: re-encoding differs (err %v)", name, err)
		}
	}
}
