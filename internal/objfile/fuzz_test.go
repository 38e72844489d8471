package objfile

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"

	"hemlock/internal/wire/wiretest"
)

// Decoders face bytes from the simulated file system that any process may
// have scribbled on. The invariant of both targets: the decoder returns
// an error, or a value that encodes and decodes back to an equal value.
// It never panics.

func FuzzDecodeObject(f *testing.F) {
	o := NewBuilder("fuzz.o").
		Word("w", 1, true).
		String("s", "payload", true).
		Bss("b", 64, false).
		Pointer("p", "w", 0, true).
		Dep("other.o", DynamicPublic).
		SearchPath("/lib").
		MustBuild()
	enc, err := o.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range wiretest.Mutations(enc, 99, 500) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		obj, err := DecodeBytes(b)
		if err != nil {
			return
		}
		// A surviving decode must be self-consistent.
		if verr := obj.Validate(); verr != nil {
			t.Fatalf("decode accepted invalid object: %v", verr)
		}
		re, err := obj.Bytes()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeBytes(re)
		if err != nil || !reflect.DeepEqual(obj, again) {
			t.Fatalf("round trip changed the object: %v\n%+v\n%+v", err, obj, again)
		}
	})
}

func FuzzDecodeImage(f *testing.F) {
	im := &Image{
		Name: "a.out", Entry: 0x400000, TextBase: 0x400000,
		Text: make([]byte, 64), DataBase: 0x500000, Data: make([]byte, 32),
		Symbols: []ImageSym{{Name: "main", Addr: 0x400000}},
		Relocs:  []ImageReloc{{Addr: 0x400010, Name: "x", Type: RelWord32}},
		PLT:     []ImageSym{{Name: "fn", Addr: 0x400040, Size: 12}},
		Dyn: DynInfo{
			DynModules:  []ModuleRef{{Name: "m.o", Class: DynamicPublic}},
			DefaultPath: []string{"/lib"},
		},
	}
	enc, err := im.ImageBytes()
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range wiretest.Mutations(enc, 7, 500) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeImageBytes(b)
		if err != nil {
			return
		}
		re, err := got.ImageBytes()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		// The codec is canonical: LinkHash of a decoded image is the hash
		// of the bytes it came from, so they must be its encoding.
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encoding differs from the decoded bytes:\n%x\n%x", b, re)
		}
		again, err := DecodeImageBytes(re)
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the image: %v\n%+v\n%+v", err, got, again)
		}
	})
}

// TestSeedsReencodeByteForByte: the enc-* seeds are objects and images
// that as and lds wrote before the formats moved onto internal/wire. They
// must decode and re-encode to the same bytes, so the move changed no
// format, and a decoded image's LinkHash is the FNV-1a hash of those
// bytes.
func TestSeedsReencodeByteForByte(t *testing.T) {
	for name, b := range wiretest.Corpus(t, "FuzzDecodeObject", "enc-") {
		o, err := DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re, err := o.Bytes(); err != nil || !bytes.Equal(re, b) {
			t.Errorf("%s: re-encoding differs (err %v)", name, err)
		}
	}
	for name, b := range wiretest.Corpus(t, "FuzzDecodeImage", "enc-") {
		im, err := DecodeImageBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		re, err := im.ImageBytes()
		if err != nil || !bytes.Equal(re, b) {
			t.Errorf("%s: re-encoding differs (err %v)", name, err)
		}
		h := fnv.New64a()
		h.Write(re)
		if got, err := im.LinkHash(); err != nil || got != h.Sum64() {
			t.Errorf("%s: LinkHash %x, want %x (%v)", name, got, h.Sum64(), err)
		}
	}
}

// BenchmarkDecodeImage decodes the demo executable lds wrote, as
// LoadExecutable does once per launch.
func BenchmarkDecodeImage(b *testing.B) {
	enc := wiretest.Corpus(b, "FuzzDecodeImage", "enc-demo")["enc-demo"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeImageBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}
