package netshm

import (
	"bytes"
	"testing"
)

// decodeMsg decodes b into a fresh message, as a receiver that holds no
// segment and knows no sender would: every string is copied out of b.
func decodeMsg(b []byte) (*msg, error) {
	m := new(msg)
	if err := m.decode(b, "", nil); err != nil {
		return nil, err
	}
	return m, nil
}

func TestMsgRoundTrip(t *testing.T) {
	cases := []*msg{
		{typ: msgUpdate, path: "/lib/whod", base: 0x30007000, size: 9000, epoch: 2, gen: 42, tv: 7,
			origin: "vaxa", stick: 99, lease: 64,
			pages: []page{
				{idx: 0, gen: 42, full: bytes.Repeat([]byte{0xAB}, PageSize)},
				{idx: 2, gen: 41, deltas: []rng{{off: 12, data: []byte{1, 2, 3}}, {off: 4000, data: []byte{9}}}},
			}},
		{typ: msgSync, path: "/x", base: 4, size: 0, gen: 1, flag: flagFull},
		{typ: msgAck, path: "/lib/whod", base: 0x30007000, epoch: 1, gen: 7},
		{typ: msgPull, path: "/lib/whod", gen: 0},
		{typ: msgAnnounce, path: "/lib/whod", base: 0x30007000, size: 512, epoch: 3, gen: 3, tv: 2, lease: 64},
		{typ: msgMigrate, path: "/lib/whod", base: 0x30007000, size: 512, epoch: 4, gen: 9, tv: 2,
			home: "vaxb", pages: []page{{idx: 0, gen: 9, full: []byte{1, 2}}}},
		{typ: msgMigrateAck, path: "/lib/whod", epoch: 4},
		{typ: msgLeaseRenew, path: "/lib/whod", epoch: 4, gen: 9},
		{typ: msgLeaseGrant, path: "/lib/whod", epoch: 4, gen: 9, lease: 128},
		{typ: msgWriteFwd, path: "/lib/whod", epoch: 4,
			pages: []page{{idx: 1, deltas: []rng{{off: 0, data: []byte{5, 5}}}}}},
		{typ: msgTxnFwd, path: "/lib/whod", txid: 31, payload: []byte("txn body")},
		{typ: msgTxnResult, path: "/lib/whod", txid: 31, flag: flagCommitted},
		{typ: msgApp, payload: []byte("status packet")},
		{typ: msgApp}, // empty everything
	}
	for _, m := range cases {
		got, err := decodeMsg(m.encode())
		if err != nil {
			t.Fatalf("type %d: decode: %v", m.typ, err)
		}
		if got.typ != m.typ || got.flag != m.flag || got.path != m.path || got.base != m.base ||
			got.size != m.size || got.epoch != m.epoch || got.gen != m.gen || got.tv != m.tv ||
			got.origin != m.origin || got.stick != m.stick || got.home != m.home ||
			got.lease != m.lease || got.txid != m.txid {
			t.Fatalf("type %d: header mismatch: %+v != %+v", m.typ, got, m)
		}
		if len(got.pages) != len(m.pages) {
			t.Fatalf("type %d: %d pages, want %d", m.typ, len(got.pages), len(m.pages))
		}
		for i := range m.pages {
			gp, wp := got.pages[i], m.pages[i]
			if gp.idx != wp.idx || gp.gen != wp.gen {
				t.Fatalf("type %d: page %d header mismatch", m.typ, i)
			}
			if (gp.full == nil) != (wp.full == nil) || !bytes.Equal(gp.full, wp.full) {
				t.Fatalf("type %d: page %d full-content mismatch", m.typ, i)
			}
			if len(gp.deltas) != len(wp.deltas) {
				t.Fatalf("type %d: page %d has %d deltas, want %d", m.typ, i, len(gp.deltas), len(wp.deltas))
			}
			for j := range wp.deltas {
				if gp.deltas[j].off != wp.deltas[j].off || !bytes.Equal(gp.deltas[j].data, wp.deltas[j].data) {
					t.Fatalf("type %d: page %d delta %d mismatch", m.typ, i, j)
				}
			}
		}
		if !bytes.Equal(got.payload, m.payload) {
			t.Fatalf("type %d: payload mismatch", m.typ)
		}
	}
}

// TestMsgEmptyFullPageStaysFull: an empty full page must round-trip as
// full (not degrade into "no content") — apply semantics differ.
func TestMsgEmptyFullPageStaysFull(t *testing.T) {
	m := &msg{typ: msgSync, path: "/p", pages: []page{{idx: 0, full: []byte{}}}}
	got, err := decodeMsg(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.pages[0].full == nil {
		t.Fatal("empty full page decoded as delta page")
	}
}

func TestMsgDecodeRejectsGarbage(t *testing.T) {
	one := &msg{typ: msgUpdate, path: "/p", base: 8, size: 16, gen: 1,
		pages: []page{{idx: 0, gen: 1, full: []byte{9, 9}}}}
	good := one.encode()

	bad := map[string][]byte{
		"empty":        nil,
		"runt":         {wireMagic, wireVersion},
		"wrong magic":  append([]byte{'X'}, good[1:]...),
		"wrong vers":   append([]byte{wireMagic, 99}, good[2:]...),
		"zero type":    {wireMagic, wireVersion, 0, 0},
		"unknown type": {wireMagic, wireVersion, msgTxnResult + 1, 0},
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0),
	}
	// An implausible page count must be rejected before allocating. The
	// page-count field sits where a pageless encoding ends, minus the
	// trailing page-count + payload-length words.
	pageCountOff := len((&msg{typ: one.typ, path: one.path, base: one.base,
		size: one.size, gen: one.gen}).encode()) - 8
	huge := append([]byte{}, good...)
	huge[pageCountOff] = 0xFF
	bad["huge page count"] = huge

	// A delta page with an implausible delta count likewise.
	dm := &msg{typ: msgUpdate, path: "/p", pages: []page{{idx: 0, deltas: []rng{{off: 0, data: []byte{1}}}}}}
	db := dm.encode()
	db[pageCountOff+4+4+8+1] = 0xFF // delta-count hi byte, after idx+gen+kind
	bad["huge delta count"] = db

	// An unknown page kind must error.
	kb := one.encode()
	kb[pageCountOff+4+4+8] = 7
	bad["unknown page kind"] = kb

	for name, b := range bad {
		if _, err := decodeMsg(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Every truncation point must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := decodeMsg(good[:i]); err == nil {
			t.Errorf("truncation at %d decoded without error", i)
		}
	}
}
