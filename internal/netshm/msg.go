package netshm

import (
	"fmt"
	"slices"

	"hemlock/internal/wire"
)

// Wire format: a fixed four-byte header (magic, version, type, flag)
// followed by the same field layout for every message type — path, base,
// size, the (epoch, gen) version pair, the transactional version clock,
// a trace context (origin machine + send tick), a home claim, a lease
// grant, a transaction id, a page list, and an opaque payload. Types
// simply leave unused fields empty. The fields are internal/wire
// primitives: big-endian integers like the simulated machines themselves,
// strings as u16 length + bytes, byte blobs as u32 length + bytes.
//
//	magic 'S' | version u8 | type u8 | flag u8 | path string | base u32 |
//	size u32 | epoch u64 | gen u64 | tv u64 | origin string | stick u64 |
//	home string | lease u64 | txid u64 |
//	pages: u32 count + (idx u32 | gen u64 | kind u8 |
//	                    kind 0: full blob
//	                    kind 1: u16 count + (off u32 | data blob)*)* |
//	payload blob
//
// Version history: v1 had no trace context; v2 inserted origin and stick
// between gen and the page list so fleet runs can draw causal flow arrows
// and measure replication lag without a side channel. v3 is the fleet-
// scale format: an epoch (bumped by home migration, ordered
// lexicographically with gen), a per-segment transactional version clock
// (tv), a home claim (migration target), a read-lease grant in virtual
// ticks, a transaction id, a flag byte, and a page list that carries a
// per-page generation and either full-page content or coalesced dirty
// byte-range deltas.
const (
	wireMagic   = 'S'
	wireVersion = 3
)

// Message types of the coherence protocol.
const (
	msgUpdate     = byte(iota + 1) // home -> replica: in-order page update for one generation
	msgSync                        // home -> replica: catch-up pages (retry or pull response)
	msgAck                         // replica -> home: highest applied generation
	msgPull                        // replica -> home: anti-entropy request from a generation
	msgAnnounce                    // home -> all: segment existence + current generation
	msgApp                         // application payload multiplexed over the same NIC
	msgMigrate                     // old home -> new home: epoch E+1 offer with full snapshot
	msgMigrateAck                  // new home -> old home: promotion confirmed
	msgLeaseRenew                  // replica -> home: re-grant my read lease
	msgLeaseGrant                  // home -> replica: lease granted for msg.lease ticks
	msgWriteFwd                    // any -> home: forwarded write (deltas in pages)
	msgTxnFwd                      // any -> home: forwarded transactional commit (payload)
	msgTxnResult                   // home -> origin: commit result (flagCommitted or abort)
)

// Flag bits.
const (
	flagFull      = 1 // msgSync: carries every page — an epoch resync
	flagCommitted = 1 // msgTxnResult: the transaction committed
)

// rng is one coalesced dirty byte range within a page.
type rng struct {
	off  uint32
	data []byte
}

// page is one page-granularity piece of segment content: either the full
// page bytes or a set of byte-range deltas against the receiver's copy.
// Full pages are not only Config.FullPage's encoding: syncs, full
// resyncs, migration snapshots and pages with no dirty watermark send them
// too.
type page struct {
	idx    uint32
	gen    uint64 // generation at which this page content is current
	full   []byte // whole-page content (deltas ignored when non-nil)
	deltas []rng
}

// msg is the decoded form of every protocol message.
type msg struct {
	typ     byte
	flag    byte
	path    string // segment path
	base    uint32 // globally-agreed virtual address of the segment
	size    uint32 // segment size in bytes at gen
	epoch   uint64 // home epoch; (epoch, gen) orders lexicographically
	gen     uint64 // update/sync/announce: content generation; ack: applied; pull: have
	tv      uint64 // per-segment transactional version clock at gen
	origin  string // trace context: sending machine
	stick   uint64 // trace context: virtual tick at send time
	home    string // home claim (migrate: the target being offered the home)
	lease   uint64 // read-lease grant in virtual ticks (home-originated messages)
	txid    uint64 // transaction id (txn forward/result)
	pages   []page
	payload []byte // msgApp / msgTxnFwd
}

// appendTo appends the datagram for m to b and returns the extended
// slice. Its strings (a segment path, machine names) and delta lists come
// from inside the fleet and fit their u16 limits; one that did not would
// append nothing, and receivers drop an empty datagram as they drop a
// runt.
func (m *msg) appendTo(b []byte) []byte {
	n := 4 + 2 + len(m.path) + 4 + 4 + 8 + 8 + 8 + 2 + len(m.origin) + 8 +
		2 + len(m.home) + 8 + 8 + 4 + 4 + len(m.payload)
	for _, p := range m.pages {
		n += 4 + 8 + 1 + 4 + len(p.full)
		for _, r := range p.deltas {
			n += 4 + 4 + len(r.data)
		}
	}
	e := wire.NewEncoder(slices.Grow(b, n))
	e.U8(wireMagic)
	e.U8(wireVersion)
	e.U8(m.typ)
	e.U8(m.flag)
	e.Str(m.path)
	e.U32(m.base)
	e.U32(m.size)
	e.U64(m.epoch)
	e.U64(m.gen)
	e.U64(m.tv)
	e.Str(m.origin)
	e.U64(m.stick)
	e.Str(m.home)
	e.U64(m.lease)
	e.U64(m.txid)
	e.Count32(len(m.pages))
	for _, p := range m.pages {
		e.U32(p.idx)
		e.U64(p.gen)
		if p.full != nil {
			e.U8(0) // kind: full page
			e.Blob(p.full)
			continue
		}
		e.U8(1) // kind: deltas
		e.Count16(len(p.deltas))
		for _, r := range p.deltas {
			e.U32(r.off)
			e.Blob(r.data)
		}
	}
	e.Blob(m.payload)
	out, err := e.Bytes()
	if err != nil {
		return b
	}
	return out
}

// encode returns the datagram for m in a buffer of its own.
func (m *msg) encode() []byte { return m.appendTo(nil) }

// decode parses datagram b, sent by from, into m, rejecting anything that
// is not a well-formed protocol message (a runt, a foreign payload, a
// truncation). It reuses m's page and delta arrays. Page contents, delta
// data and the payload borrow from b: they are valid only while b is, and
// release drops them. The string fields own their bytes, and the common
// ones cost no allocation: an origin or home that names the sender is
// from itself, and a path the receiver holds is its key in segs. Only a
// name or path the receiver has never seen is copied out of b.
func (m *msg) decode(b []byte, from string, segs map[string]*seg) error {
	if len(b) < 4 || b[0] != wireMagic || b[1] != wireVersion {
		return fmt.Errorf("netshm: not a protocol datagram (%d bytes)", len(b))
	}
	m.typ, m.flag = b[2], b[3]
	if m.typ == 0 || m.typ > msgTxnResult {
		return fmt.Errorf("netshm: unknown message type %d", m.typ)
	}
	d := wire.NewDecoder(b[4:])
	path := d.Raw(int(d.U16()))
	if s := segs[string(path)]; s != nil {
		m.path = s.path
	} else {
		m.path = string(path)
	}
	m.base = d.U32()
	m.size = d.U32()
	m.epoch = d.U64()
	m.gen = d.U64()
	m.tv = d.U64()
	m.origin = sameOr(d.Raw(int(d.U16())), from)
	m.stick = d.U64()
	m.home = sameOr(d.Raw(int(d.U16())), from)
	m.lease = d.U64()
	m.txid = d.U64()
	m.pages = m.pages[:0]
	if n := d.Count32(15); n > 0 { // a page is at least idx, gen, kind and a delta count
		m.pages = slices.Grow(m.pages, n)[:n]
		for i := range m.pages {
			p := &m.pages[i]
			p.idx = d.U32()
			p.gen = d.U64()
			p.full, p.deltas = nil, p.deltas[:0]
			switch kind := d.U8(); kind {
			case 0:
				// Non-nil even when empty: an empty full page stays full.
				p.full = d.Raw(int(d.U32()))
			case 1:
				if nd := d.Count16(8); nd > 0 {
					p.deltas = slices.Grow(p.deltas, nd)[:nd]
					for j := range p.deltas {
						p.deltas[j] = rng{off: d.U32(), data: d.Raw(int(d.U32()))}
					}
				}
			default:
				d.Fail(fmt.Errorf("unknown page kind %d", kind))
			}
		}
	}
	m.payload = d.Raw(int(d.U32()))
	if err := d.Finish(); err != nil {
		return fmt.Errorf("netshm: %w", err)
	}
	return nil
}

// sameOr returns known when raw spells it, else a copy of raw.
func sameOr(raw []byte, known string) string {
	if string(raw) == known {
		return known
	}
	return string(raw)
}

// release drops every reference m holds into the datagram it was decoded
// from, keeping the page and delta arrays for the next decode.
func (m *msg) release() {
	for i := range m.pages {
		m.pages[i].full = nil
		clear(m.pages[i].deltas)
	}
	m.payload = nil
}
