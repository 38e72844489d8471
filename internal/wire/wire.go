// Package wire is the one binary codec under Hemlock's non-text formats:
// HEMO objects and HEMX images (objfile), netshm datagrams and transaction
// payloads (netshm), and HSFS disk images (shmfs). Each format documents
// its own layout; this package supplies the primitives they share, all
// big-endian like the simulated machine:
//
//	U8 U16 U32 U64    fixed-width integers
//	Bool              one byte, 0 or 1
//	Str               u16 length + bytes (at most MaxString bytes)
//	Blob              u32 length + bytes
//	Strs              u32 count + that many Str
//	Count16 Count32   an element count ahead of the elements
//	Raw               bytes with no prefix (magics, page contents)
//
// An Encoder appends to a byte slice and keeps its first error. A Decoder
// reads bytes the system does not control — guest-writable files,
// datagrams, disk images — so it never panics and never allocates more
// than the input can back: it checks every length and element count
// against the bytes left before the caller allocates. It keeps its first
// error and returns zero values after it, and Finish rejects trailing
// bytes.
//
// A Decoder reads its input in place, at an offset: the fixed-width reads
// and Raw inline and allocate nothing, and Raw's slices alias the input.
// Str and Blob copy. A format that must not allocate per input, such as
// netshm's datagrams, reads strings and blobs with Raw behind U16 and U32
// lengths and keeps those slices only as long as the input lives.
package wire

import (
	"encoding/binary"
	"fmt"
)

// MaxString is the longest string a u16 length prefix can carry.
const MaxString = 0xFFFF

// Encoder appends fields to a byte slice.
type Encoder struct {
	buf []byte
	err error
}

// NewEncoder returns an Encoder appending to buf, which may be nil or
// carry capacity sized ahead of time.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoding, or the first error.
func (e *Encoder) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

func (e *Encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

func (e *Encoder) U8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Raw appends b with no length prefix.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Str appends s behind a u16 length. A string longer than MaxString
// fails the encoding.
func (e *Encoder) Str(s string) {
	if len(s) > MaxString {
		e.fail("wire: string of %d bytes exceeds %d", len(s), MaxString)
	}
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends b behind a u32 length.
func (e *Encoder) Blob(b []byte) {
	e.Count32(len(b))
	e.Raw(b)
}

// Strs appends a u32 count and then each string.
func (e *Encoder) Strs(ss []string) {
	e.Count32(len(ss))
	for _, s := range ss {
		e.Str(s)
	}
}

// Count16 appends an element count as a u16; more than 65535 fails.
func (e *Encoder) Count16(n int) {
	if n > 0xFFFF {
		e.fail("wire: %d elements overflow a u16 count", n)
	}
	e.U16(uint16(n))
}

// Count32 appends an element count as a u32; more than 2³²−1 fails.
func (e *Encoder) Count32(n int) {
	if uint64(n) > 0xFFFFFFFF {
		e.fail("wire: %d elements overflow a u32 count", n)
	}
	e.U32(uint32(n))
}

// Decoder reads fields from a byte slice. It advances an offset rather
// than re-slicing its input, so a read writes no pointer.
type Decoder struct {
	buf []byte // the whole input
	off int    // bytes read so far; buf[off:] is unread
	err error
}

// NewDecoder returns a Decoder reading b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an earlier error is kept. Formats use it for
// their own checks (an unknown tag, a bad magic), so that every later
// read returns a zero value.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish returns the first error, or an error if bytes remain unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

// Raw returns the next n bytes. The slice aliases the input: copy it to
// keep it past the input's lifetime.
func (d *Decoder) Raw(n int) []byte {
	if !d.take(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// take reports whether n more bytes can be read, recording a truncation
// when they cannot and no earlier error is kept. Building the error here
// instead of calling out keeps take, Raw and U8–U64 within the inlining
// budget.
func (d *Decoder) take(n int) bool {
	if uint(n) <= uint(len(d.buf)-d.off) && d.err == nil {
		return true
	}
	if d.err == nil {
		d.err = &truncatedError{want: n, off: d.off, size: len(d.buf)}
	}
	return false
}

// truncatedError is a read past the end of the input.
type truncatedError struct{ want, off, size int }

func (e *truncatedError) Error() string {
	return fmt.Sprintf("wire: truncated: want %d bytes at offset %d of %d", e.want, e.off, e.size)
}

func (d *Decoder) U8() uint8 {
	if !d.take(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *Decoder) U16() uint16 {
	if !d.take(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *Decoder) U32() uint32 {
	if !d.take(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *Decoder) U64() uint64 {
	if !d.take(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail(fmt.Errorf("wire: bool byte %d", v))
	}
	return v == 1
}

// Str reads a u16 length and that many bytes.
func (d *Decoder) Str() string { return string(d.Raw(int(d.U16()))) }

// Blob reads a u32 length and returns a copy of that many bytes, nil when
// the length is zero.
func (d *Decoder) Blob() []byte {
	b := d.Raw(int(d.U32()))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Strs reads a u32 count and that many strings, nil when the count is
// zero.
func (d *Decoder) Strs() []string {
	n := d.Count32(2)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// Count16 reads a u16 element count and fails unless that many elements,
// each at least min bytes long (min ≥ 1), fit in the bytes left. Callers
// may then allocate for the count.
func (d *Decoder) Count16(min int) int { return d.count(uint64(d.U16()), min) }

// Count32 is Count16 for a u32 count.
func (d *Decoder) Count32(min int) int { return d.count(uint64(d.U32()), min) }

func (d *Decoder) count(n uint64, min int) int {
	if d.err != nil {
		return 0
	}
	if left := len(d.buf) - d.off; n*uint64(min) > uint64(left) {
		d.Fail(fmt.Errorf("wire: %d elements of %d+ bytes overrun the %d bytes left", n, min, left))
		return 0
	}
	return int(n)
}
