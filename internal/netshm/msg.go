package netshm

import (
	"encoding/binary"
	"fmt"
)

// Wire format: a fixed four-byte header (magic, version, type, flag)
// followed by the same field layout for every message type — path, base,
// size, the (epoch, gen) version pair, the transactional version clock,
// a trace context (origin machine + send tick), a home claim, a lease
// grant, a transaction id, a page list, and an opaque payload. Types
// simply leave unused fields empty. Everything is big-endian, like the
// simulated machines themselves.
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

func (m *msg) encode() []byte {
	n := 4 + 2 + len(m.path) + 4 + 4 + 8 + 8 + 8 + 2 + len(m.origin) + 8 +
		2 + len(m.home) + 8 + 8 + 4 + 4 + len(m.payload)
	for _, p := range m.pages {
		n += 4 + 8 + 1 + 4 + len(p.full)
		for _, r := range p.deltas {
			n += 4 + 4 + len(r.data)
		}
	}
	b := make([]byte, 0, n)
	b = append(b, wireMagic, wireVersion, m.typ, m.flag)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.path)))
	b = append(b, m.path...)
	b = binary.BigEndian.AppendUint32(b, m.base)
	b = binary.BigEndian.AppendUint32(b, m.size)
	b = binary.BigEndian.AppendUint64(b, m.epoch)
	b = binary.BigEndian.AppendUint64(b, m.gen)
	b = binary.BigEndian.AppendUint64(b, m.tv)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.origin)))
	b = append(b, m.origin...)
	b = binary.BigEndian.AppendUint64(b, m.stick)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.home)))
	b = append(b, m.home...)
	b = binary.BigEndian.AppendUint64(b, m.lease)
	b = binary.BigEndian.AppendUint64(b, m.txid)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.pages)))
	for _, p := range m.pages {
		b = binary.BigEndian.AppendUint32(b, p.idx)
		b = binary.BigEndian.AppendUint64(b, p.gen)
		if p.full != nil {
			b = append(b, 0) // kind: full page
			b = binary.BigEndian.AppendUint32(b, uint32(len(p.full)))
			b = append(b, p.full...)
			continue
		}
		b = append(b, 1) // kind: deltas
		b = binary.BigEndian.AppendUint16(b, uint16(len(p.deltas)))
		for _, r := range p.deltas {
			b = binary.BigEndian.AppendUint32(b, r.off)
			b = binary.BigEndian.AppendUint32(b, uint32(len(r.data)))
			b = append(b, r.data...)
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.payload)))
	b = append(b, m.payload...)
	return b
}

// decodeMsg parses a datagram, rejecting anything that is not a
// well-formed protocol message (a runt, a foreign payload, a truncation).
// All returned byte slices are copies: the caller may recycle the
// datagram buffer immediately after decoding.
func decodeMsg(b []byte) (*msg, error) {
	if len(b) < 4 || b[0] != wireMagic || b[1] != wireVersion {
		return nil, fmt.Errorf("netshm: not a protocol datagram (%d bytes)", len(b))
	}
	m := &msg{typ: b[2], flag: b[3]}
	if m.typ == 0 || m.typ > msgTxnResult {
		return nil, fmt.Errorf("netshm: unknown message type %d", m.typ)
	}
	d := decoder{b: b, off: 4}
	m.path = d.str()
	m.base = d.u32()
	m.size = d.u32()
	m.epoch = d.u64()
	m.gen = d.u64()
	m.tv = d.u64()
	m.origin = d.str()
	m.stick = d.u64()
	m.home = d.str()
	m.lease = d.u64()
	m.txid = d.u64()
	npages := d.u32()
	if npages > uint32(len(b)/17+1) { // each page costs >= 17 header bytes
		return nil, fmt.Errorf("netshm: implausible page count %d", npages)
	}
	for i := uint32(0); i < npages && d.err == nil; i++ {
		p := page{idx: d.u32(), gen: d.u64()}
		switch kind := d.u8(); kind {
		case 0:
			p.full = d.bytes()
			if p.full == nil && d.err == nil {
				p.full = []byte{} // keep the full-vs-delta distinction for empty pages
			}
		case 1:
			nd := d.u16()
			if int(nd) > len(b)/8+1 { // each delta costs >= 8 header bytes
				return nil, fmt.Errorf("netshm: implausible delta count %d", nd)
			}
			for j := uint16(0); j < nd && d.err == nil; j++ {
				p.deltas = append(p.deltas, rng{off: d.u32(), data: d.bytes()})
			}
		default:
			if d.err == nil {
				return nil, fmt.Errorf("netshm: unknown page kind %d", kind)
			}
		}
		m.pages = append(m.pages, p)
	}
	m.payload = d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("netshm: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("netshm: truncated message (want %d bytes at %d of %d)", n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0xFF
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) str() string {
	lb := d.take(2)
	if lb == nil {
		return ""
	}
	return string(d.take(int(binary.BigEndian.Uint16(lb))))
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
