package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.Raw([]byte("MAGI"))
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.Bool(true)
	e.Bool(false)
	e.Str("hemlock")
	e.Str("")
	e.Blob([]byte{1, 2, 3})
	e.Blob(nil)
	e.Strs([]string{"/lib", "/usr/lib"})
	e.Strs(nil)
	e.Count16(3)
	e.Count32(1)
	b, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(b)
	if got := string(d.Raw(4)); got != "MAGI" {
		t.Fatalf("raw %q", got)
	}
	got := []any{d.U8(), d.U16(), d.U32(), d.U64(), d.Bool(), d.Bool(), d.Str(), d.Str(),
		d.Blob(), d.Blob(), d.Strs(), d.Strs()}
	want := []any{uint8(0xAB), uint16(0xBEEF), uint32(0xDEADBEEF), uint64(0x0123456789ABCDEF), true, false,
		"hemlock", "", []byte{1, 2, 3}, []byte(nil), []string{"/lib", "/usr/lib"}, []string(nil)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	// Three one-byte elements fit in the four bytes of the u32 count
	// behind; one element after that has no bytes left.
	if n := d.Count16(1); n != 3 || d.Err() != nil {
		t.Fatalf("Count16 = %d, err %v", n, d.Err())
	}
	if n := d.Count32(1); n != 0 || d.Err() == nil {
		t.Fatalf("Count32 = %d, err %v: want an overrun error", n, d.Err())
	}
}

// TestBigEndian pins the byte order every format relies on.
func TestBigEndian(t *testing.T) {
	e := NewEncoder(nil)
	e.U32(0x01020304)
	e.Str("ab")
	e.Blob([]byte{9})
	b, _ := e.Bytes()
	if want := []byte{1, 2, 3, 4, 0, 2, 'a', 'b', 0, 0, 0, 1, 9}; !bytes.Equal(b, want) {
		t.Fatalf("% x, want % x", b, want)
	}
}

func TestEncoderFailsOnOversize(t *testing.T) {
	e := NewEncoder(nil)
	e.Str(strings.Repeat("x", MaxString))
	if _, err := e.Bytes(); err != nil {
		t.Fatalf("MaxString bytes: %v", err)
	}
	e.Str(strings.Repeat("x", MaxString+1))
	e.U8(1)
	if b, err := e.Bytes(); err == nil || b != nil {
		t.Fatalf("oversize string: %d bytes, err %v", len(b), err)
	}
	e = NewEncoder(nil)
	e.Count16(0x10000)
	if _, err := e.Bytes(); err == nil {
		t.Fatal("u16 count overflow accepted")
	}
}

func TestDecoderKeepsFirstError(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 7, 1})
	if v := d.U64(); v != 0 {
		t.Fatalf("short U64 = %d", v)
	}
	first := d.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("err %v", first)
	}
	// Later reads fit the input but return zero values.
	if v := d.U32(); v != 0 || d.Err() != first {
		t.Fatalf("read after error = %d, err %v", v, d.Err())
	}
	if d.Finish() != first {
		t.Fatal("Finish replaced the first error")
	}
}

func TestDecoderRejects(t *testing.T) {
	cases := map[string]struct {
		in   []byte
		read func(d *Decoder)
	}{
		"trailing":        {[]byte{1, 2}, func(d *Decoder) { d.U8() }},
		"bool 2":          {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"short string":    {[]byte{0, 5, 'a'}, func(d *Decoder) { d.Str() }},
		"huge blob":       {[]byte{0xFF, 0xFF, 0xFF, 0xFF}, func(d *Decoder) { d.Blob() }},
		"huge strings":    {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}, func(d *Decoder) { d.Strs() }},
		"count overrun":   {[]byte{0, 0, 0, 3, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Count32(4) }},
		"negative length": {nil, func(d *Decoder) { d.Raw(-1) }},
	}
	for name, c := range cases {
		d := NewDecoder(c.in)
		c.read(d)
		if d.Finish() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A count whose elements fit exactly is accepted.
	d := NewDecoder([]byte{0, 2, 0, 0, 0, 0})
	if n := d.Count16(2); n != 2 || d.Err() != nil {
		t.Fatalf("exact count = %d, err %v", n, d.Err())
	}
}

// TestBlobCopies: decoded blobs must not alias the input, which callers
// recycle (netshm datagram buffers) or keep mutating (file frames).
func TestBlobCopies(t *testing.T) {
	in := []byte{0, 0, 0, 2, 7, 8}
	b := NewDecoder(in).Blob()
	in[4] = 0
	if b[0] != 7 {
		t.Fatal("Blob aliases its input")
	}
}
