package server

// The daemon's JSON codec, written for the API's own types. Decoding a
// call's body with encoding/json's reflection cost more than the call's
// whole world-lock section, so request bodies and the hot replies go
// through the code below instead.
//
// decodeRequest accepts exactly what json.Unmarshal accepts into the same
// type, and produces the same value (FuzzDecodeRequest holds it to that);
// each appendJSON writes exactly what json.Encoder writes for the value,
// json.Marshal's bytes and a newline (TestRepliesMatchEncodingJSON). Two
// cold cases hand one literal to encoding/json, so that its escape, UTF-8
// and nesting rules stay its own: a string holding an escape or a byte
// outside printable ASCII, and the value of a key no field takes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// maxDepth is encoding/json's nesting limit: a document may open at most
// this many objects and arrays inside one another.
const maxDepth = 10000

// replyBody is a reply the codec appends.
type replyBody interface{ appendJSON(b []byte) []byte }

// decodeRequest fills v, a pointer to one of the four request types, from
// body as json.Unmarshal(body, v) would, and fails where it would fail.
// It calls each type's decode directly, not through an interface, so that
// neither the request nor the decoder escapes to the heap.
func decodeRequest(body []byte, v any) error {
	d := decoder{b: body}
	var err error
	switch v := v.(type) {
	case *LaunchRequest:
		err = v.decode(&d)
	case *CallRequest:
		err = v.decode(&d)
	case *VarWriteRequest:
		err = v.decode(&d)
	case *TxnRequest:
		err = v.decode(&d)
	default:
		panic("server: decodeRequest takes a pointer to a request type")
	}
	if err != nil {
		return err
	}
	if d.next(); d.i < len(d.b) {
		return d.fail("want the end of the body")
	}
	return nil
}

// decoder reads JSON values from a request body.
type decoder struct {
	b     []byte
	i     int // the next byte to read
	depth int // objects and arrays open around the reader
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("%s at offset %d", what, d.i)
}

// next skips whitespace and returns the byte it stops at, or 0 at the end.
func (d *decoder) next() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// word consumes the literal w if it comes next.
func (d *decoder) word(w string) bool {
	if d.next() == w[0] && len(d.b)-d.i >= len(w) && string(d.b[d.i:d.i+len(w)]) == w {
		d.i += len(w)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.word("null") }

// keyIs reports whether key names the field name: exactly, or by
// bytes.EqualFold, which is encoding/json's rule.
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// object reads an object, calling field with each key and the reader at
// its value. A null leaves the value the fields belong to as it is.
func (d *decoder) object(field func(key []byte) error) error {
	if d.null() {
		return nil
	}
	if d.next() != '{' {
		return d.fail("want an object")
	}
	d.i++
	d.depth++
	if d.next() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if d.next() != '"' {
			return d.fail("want a key")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.fail("want a colon")
		}
		d.i++
		if err := field(key); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.fail("want a comma or }")
		}
	}
}

// array reads an array, calling elem with the reader at each element, and
// reports whether the value was null instead.
func (d *decoder) array(elem func() error) (null bool, err error) {
	if d.null() {
		return true, nil
	}
	if d.next() != '[' {
		return false, d.fail("want an array")
	}
	d.i++
	d.depth++
	if d.next() == ']' {
		d.i++
		d.depth--
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		switch d.next() {
		case ',':
			d.i++
		case ']':
			d.i++
			d.depth--
			return false, nil
		default:
			return false, d.fail("want a comma or ]")
		}
	}
}

// slice reads an array into *p as encoding/json does: element i decodes
// over the old element i while the old capacity lasts, and the slice ends
// as long as the array. An empty array gives a new empty slice, and null
// gives nil.
func slice[T any](d *decoder, p *[]T, elem func(*T) error) error {
	s := (*p)[:0]
	null, err := d.array(func() error {
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		return elem(&s[len(s)-1])
	})
	switch {
	case err != nil:
		return err
	case null:
		*p = nil
	case len(s) == 0:
		*p = []T{}
	default:
		*p = s
	}
	return nil
}

// literal reads a string literal, quotes included, and reports whether it
// is plain: printable ASCII with no escape, so that its bytes between the
// quotes are its value.
func (d *decoder) literal() (lit []byte, plain bool, err error) {
	start := d.i
	plain = true
	for i := start + 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.b[start:d.i], plain, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the literal
		case c < 0x20 || c > 0x7e:
			plain = false
		}
	}
	return nil, false, d.fail("unterminated string")
}

// key reads an object key.
func (d *decoder) key() ([]byte, error) {
	lit, plain, err := d.literal()
	if err != nil {
		return nil, err
	}
	if plain {
		return lit[1 : len(lit)-1], nil
	}
	var k string
	if err := json.Unmarshal(lit, &k); err != nil {
		return nil, err
	}
	return []byte(k), nil
}

// str reads a string into *p. The string owns its bytes.
func (d *decoder) str(p *string) error {
	if d.null() {
		return nil
	}
	if d.next() != '"' {
		return d.fail("want a string")
	}
	lit, plain, err := d.literal()
	if err != nil {
		return err
	}
	if plain {
		*p = string(lit[1 : len(lit)-1])
		return nil
	}
	var s string // not p itself: that would move every request to the heap
	if err := json.Unmarshal(lit, &s); err != nil {
		return err
	}
	*p = s
	return nil
}

func (d *decoder) bool(p *bool) error {
	switch {
	case d.null():
	case d.word("true"):
		*p = true
	case d.word("false"):
		*p = false
	default:
		return d.fail("want a boolean")
	}
	return nil
}

// integer reads an integer literal, which JSON spells -?(0|[1-9][0-9]*),
// as its sign and magnitude. A fraction or an exponent makes a valid
// number that no integer field takes, so it is an error here as it is in
// json.Unmarshal.
func (d *decoder) integer() (neg bool, mag uint64, err error) {
	if d.next() == '-' {
		neg = true
		d.i++
	}
	start := d.i
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if mag > (math.MaxUint64-c)/10 {
			return false, 0, d.fail("integer out of range")
		}
		mag = mag*10 + c
	}
	switch n := d.i - start; {
	case n == 0 || n > 1 && d.b[start] == '0':
		return false, 0, d.fail("want an integer")
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		return false, 0, d.fail("want an integer, not a fraction or an exponent")
	}
	return neg, mag, nil
}

// uint reads an unsigned integer of at most bits bits; ok is false for a
// null, which leaves the field as it is.
func (d *decoder) uint(bits int) (v uint64, ok bool, err error) {
	if d.null() {
		return 0, false, nil
	}
	neg, mag, err := d.integer()
	if err == nil && (neg || bits < 64 && mag>>bits != 0) {
		err = d.fail("unsigned integer out of range")
	}
	return mag, err == nil, err
}

func (d *decoder) u32(p *uint32) error {
	v, ok, err := d.uint(32)
	if ok {
		*p = uint32(v)
	}
	return err
}

func (d *decoder) u64(p *uint64) error {
	v, ok, err := d.uint(64)
	if ok {
		*p = v
	}
	return err
}

func (d *decoder) int(p *int) error {
	if d.null() {
		return nil
	}
	neg, mag, err := d.integer()
	if err != nil {
		return err
	}
	limit := uint64(1) << (strconv.IntSize - 1) // -limit is the least int
	if !neg && mag >= limit || neg && mag > limit {
		return d.fail("integer out of range")
	}
	v := int(mag)
	if neg {
		v = -v
	}
	*p = v
	return nil
}

// stringMap reads an object of strings into *p as encoding/json does: into
// the map already there, or a new one. A null gives nil.
func (d *decoder) stringMap(p *map[string]string) error {
	if d.null() {
		*p = nil
		return nil
	}
	if d.next() == '{' && *p == nil {
		*p = map[string]string{}
	}
	m := *p
	return d.object(func(key []byte) error {
		var v string
		if err := d.str(&v); err != nil {
			return err
		}
		m[string(key)] = v
		return nil
	})
}

// skip steps over the value of a key no field takes. The value's end is
// found by counting brackets outside strings, without recursing, and
// json.Valid checks what lies before it. The count, with the levels open
// around the value, keeps encoding/json's nesting limit.
func (d *decoder) skip() error {
	c := d.next()
	start := d.i
	switch c {
	case '"':
		if _, _, err := d.literal(); err != nil {
			return err
		}
	case '{', '[':
		for open := 0; open > 0 || d.i == start; {
			if d.i == len(d.b) {
				return d.fail("unexpected end of the body")
			}
			switch d.b[d.i] {
			case '"':
				if _, _, err := d.literal(); err != nil {
					return err
				}
				continue
			case '{', '[':
				if open++; d.depth+open > maxDepth {
					return d.fail("exceeded the nesting limit")
				}
			case '}', ']':
				open--
			}
			d.i++
		}
	default:
		for ; d.i < len(d.b); d.i++ {
			if c := d.b[d.i]; c == ',' || c == '}' || c == ']' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
		}
	}
	if !json.Valid(d.b[start:d.i]) {
		return d.fail("invalid value")
	}
	return nil
}

// ---- request bodies ----------------------------------------------------------

func (r *LaunchRequest) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "name"):
			return d.str(&r.Name)
		case keyIs(k, "exe"):
			return d.str(&r.Exe)
		case keyIs(k, "modules"):
			return slice(d, &r.Modules, func(m *ModuleSpec) error { return m.decode(d) })
		case keyIs(k, "path"):
			return slice(d, &r.Path, d.str)
		case keyIs(k, "jump_tables"):
			return d.bool(&r.JumpTables)
		case keyIs(k, "env"):
			return d.stringMap(&r.Env)
		case keyIs(k, "uid"):
			return d.int(&r.UID)
		case keyIs(k, "run"):
			return d.bool(&r.Run)
		case keyIs(k, "max_steps"):
			return d.u64(&r.MaxSteps)
		}
		return d.skip()
	})
}

func (m *ModuleSpec) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "name"):
			return d.str(&m.Name)
		case keyIs(k, "class"):
			return d.str(&m.Class)
		}
		return d.skip()
	})
}

func (r *CallRequest) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "program"):
			return d.str(&r.Program)
		case keyIs(k, "fn"):
			return d.str(&r.Fn)
		case keyIs(k, "args"):
			return slice(d, &r.Args, d.u32)
		case keyIs(k, "max_steps"):
			return d.u64(&r.MaxSteps)
		}
		return d.skip()
	})
}

func (r *VarWriteRequest) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "program"):
			return d.str(&r.Program)
		case keyIs(k, "name"):
			return d.str(&r.Name)
		case keyIs(k, "off"):
			return d.u32(&r.Off)
		case keyIs(k, "value"):
			return d.u32(&r.Value)
		}
		return d.skip()
	})
}

func (r *TxnRequest) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "reads"):
			return slice(d, &r.Reads, func(t *TxnRead) error { return t.decode(d) })
		case keyIs(k, "writes"):
			return slice(d, &r.Writes, func(t *TxnWrite) error { return t.decode(d) })
		}
		return d.skip()
	})
}

func (t *TxnRead) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "path"):
			return d.str(&t.Path)
		case keyIs(k, "off"):
			return d.u32(&t.Off)
		}
		return d.skip()
	})
}

func (t *TxnWrite) decode(d *decoder) error {
	return d.object(func(k []byte) error {
		switch {
		case keyIs(k, "path"):
			return d.str(&t.Path)
		case keyIs(k, "off"):
			return d.u32(&t.Off)
		case keyIs(k, "value"):
			return d.u32(&t.Value)
		}
		return d.skip()
	})
}

// ---- replies -----------------------------------------------------------------

// appendString appends s as json.Marshal spells it. Printable ASCII other
// than `"`, `\`, `<`, `>` and `&` stands as it is; any other string goes
// through json.Marshal, which escapes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func (r *LaunchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"program":`...)
	b = appendString(b, r.Program)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(r.PID), 10)
	b = append(b, `,"exited":`...)
	b = strconv.AppendBool(b, r.Exited)
	b = append(b, `,"exit_code":`...)
	b = strconv.AppendInt(b, int64(r.ExitCode), 10)
	if r.Output != "" {
		b = append(b, `,"output":`...)
		b = appendString(b, r.Output)
	}
	return append(b, "}\n"...)
}

func (r *CallResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"ret":`...)
	b = strconv.AppendUint(b, uint64(r.Ret), 10)
	b = append(b, `,"steps":`...)
	b = strconv.AppendUint(b, r.Steps, 10)
	return append(b, "}\n"...)
}

func (r *VarResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"program":`...)
	b = appendString(b, r.Program)
	b = append(b, `,"name":`...)
	b = appendString(b, r.Name)
	b = append(b, `,"addr":`...)
	b = strconv.AppendUint(b, uint64(r.Addr), 10)
	b = append(b, `,"off":`...)
	b = strconv.AppendUint(b, uint64(r.Off), 10)
	b = append(b, `,"value":`...)
	b = strconv.AppendUint(b, uint64(r.Value), 10)
	return append(b, "}\n"...)
}

func (r *TxnResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"state":`...)
	b = appendString(b, r.State)
	if r.Txid != 0 {
		b = append(b, `,"txid":`...)
		b = strconv.AppendUint(b, r.Txid, 10)
	}
	if len(r.Values) > 0 {
		b = append(b, `,"values":[`...)
		for i, v := range r.Values {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(v), 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

func (r *errResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"error":`...)
	b = appendString(b, r.Error)
	return append(b, "}\n"...)
}

// appendJSON keeps encoding/json for the info reply, which no hot path
// sends.
func (r *InfoResponse) appendJSON(b []byte) []byte {
	j, _ := json.Marshal(r) // strings, integers and structs of them always marshal
	b = append(b, j...)
	return append(b, '\n')
}
