// Package netsim is a datagram network connecting simulated machines, the
// substrate under the rwhod scenario: "Running on each machine, rwhod
// periodically broadcasts local status information (load average, current
// users, etc.) to other machines, and receives analogous information from
// its peers." Besides the broadcast bus it provides unicast Send, which
// carries the netshm replication protocol.
//
// Datagrams are copied per receiver (UDP semantics) into buffers drawn
// from two pooled size classes, 512 B and 8 KB, which receivers hand back
// with Recycle; queues are bounded, and a node's queue reuses one array,
// so steady-state delivery allocates nothing. Optional deterministic
// adversary functions model a misbehaving LAN:
// Drop (loss), Dup (duplicate delivery), Reorder (queue overtaking) and
// DelayTicks (datagrams held in flight until enough Advance ticks pass).
// Every knob's effect is accounted separately, network-wide and per node,
// so the experiments — and the netshm fuzzer built on top — stay
// reproducible and inspectable.
package netsim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hemlock/internal/obsv"
)

// ErrDetached is returned after a node leaves the network.
var ErrDetached = errors.New("netsim: node is detached")

// DefaultQueueDepth bounds each node's inbox; excess datagrams are
// dropped, as a real socket buffer would.
const DefaultQueueDepth = 256

// Datagram is one received message.
type Datagram struct {
	From    string
	Payload []byte
}

// Stats is the network-wide datagram accounting. Dropped counts losses
// injected by the Drop function (the lossy LAN); Overflow counts datagrams
// discarded because the receiver's inbox was full. The two are separate
// failure modes: one is the wire, the other is a slow receiver. Duplicated,
// Reordered and Delayed count the adversarial-delivery knobs (Dup, Reorder,
// DelayTicks): extra copies injected, queue-jumping deliveries, and
// datagrams held for later Advance ticks.
type Stats struct {
	Delivered  uint64
	Dropped    uint64
	Overflow   uint64
	Duplicated uint64
	Reordered  uint64
	Delayed    uint64

	// BytesSent counts payload bytes handed to the wire, per receiver copy
	// (dropped copies were on the wire too); BytesDelivered counts payload
	// bytes that reached an inbox. The pair is the bytes-on-wire metric the
	// netshm delta benchmarks gate on. AllocBytes counts bytes of fresh
	// datagram-buffer allocation, a pool miss at its class size and an
	// oversize payload at its own — a pooled steady state keeps it flat.
	BytesSent      uint64
	BytesDelivered uint64
	AllocBytes     uint64
}

// NodeStats is one node's datagram accounting. Sent counts per-receiver
// copies originated by the node; the remaining fields count copies
// addressed to the node (Duplicated/Reordered/Delayed attribute the
// adversarial knobs to the receiver they acted on).
type NodeStats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64
	Overflow   uint64
	Duplicated uint64
	Reordered  uint64
	Delayed    uint64

	BytesSent      uint64
	BytesDelivered uint64
}

// Network is the simulated LAN.
type Network struct {
	mu    sync.Mutex
	nodes map[string]*Node

	// Drop, when non-nil, decides whether the datagram from -> to is
	// lost. It must be deterministic for reproducible experiments — as
	// must Dup, Reorder and DelayTicks below.
	Drop func(from, to string, seq uint64) bool

	// Dup, when non-nil and true, injects one extra copy of the datagram
	// (duplicate delivery, as a retransmitting or confused switch would).
	Dup func(from, to string, seq uint64) bool

	// Reorder, when non-nil and true, makes the datagram overtake the
	// receiver's queue: it is inserted at the front of the inbox instead
	// of appended.
	Reorder func(from, to string, seq uint64) bool

	// DelayTicks, when non-nil and positive, holds the datagram in flight
	// for that many Advance calls before it reaches the receiver's inbox.
	DelayTicks func(from, to string, seq uint64) int

	seq     uint64
	stats   Stats
	delayed []delayedDatagram

	// Bounded free lists of datagram buffers, one per size class
	// (classCap). Every per-receiver copy of a payload that fits a class
	// draws from the smallest class it fits; receivers hand buffers back
	// with Recycle once the payload is consumed. At 1024-node fan-out this
	// turns the per-tick copy storm into reuse of a few hundred buffers
	// instead of a fresh allocation per copy.
	pools [len(classCap)][][]byte

	// inboxTotal is the network-wide queued-datagram count, maintained
	// incrementally (O(changed), not O(nodes)) so the observability gauge
	// never scans the node table.
	inboxTotal atomic.Int64

	// holders maps node names to stable per-name cells the inbox gauges
	// read lock-free; Attach re-points the cell, Detach clears it.
	holders    map[string]*nodeHolder
	gaugeCount int

	// Observability wiring (Observe); nil-safe when unwired.
	reg           *obsv.Registry
	ctrDelivered  *obsv.Counter
	ctrDropped    *obsv.Counter
	ctrOverflow   *obsv.Counter
	ctrDuplicated *obsv.Counter
	ctrReordered  *obsv.Counter
	ctrDelayed    *obsv.Counter
	ctrBytesSent  *obsv.Counter
	ctrBytesDeliv *obsv.Counter
	ctrAllocBytes *obsv.Counter
}

// The pooled datagram buffer classes. Acks, announces, pulls and small
// deltas fit smallBufCap; page-carrying updates and syncs poolBufCap.
// Larger payloads get an exact-size unpooled allocation.
const (
	smallBufCap = 512
	poolBufCap  = 8192
)

var classCap = [...]int{smallBufCap, poolBufCap}

// poolMax bounds each class's free list (poolMax buffers of the class).
const poolMax = 4096

// class returns the index of the smallest buffer class that holds size
// bytes, or -1 when none does.
func class(size int) int {
	for c, cp := range classCap {
		if size <= cp {
			return c
		}
	}
	return -1
}

// maxInboxGauges caps how many per-node inbox gauges are registered. A
// 1024-machine fleet does not want 1024 gauge rows in every snapshot; the
// first nodes keep their named gauges (enough for every hand-built test
// and scenario) and netsim.inbox_total covers the whole fleet.
const maxInboxGauges = 32

// nodeHolder is the stable cell a per-name inbox gauge reads without
// taking the network lock.
type nodeHolder struct {
	p atomic.Pointer[Node]
}

// delayedDatagram is an in-flight datagram held by the DelayTicks knob.
type delayedDatagram struct {
	from, to string
	seq      uint64
	payload  []byte // already copied
	ticks    int
}

// New creates an empty network.
func New() *Network {
	return &Network{nodes: map[string]*Node{}, holders: map[string]*nodeHolder{}}
}

// Observe wires the network into an observability registry: delivered,
// dropped (lossy-LAN) and overflow (full-inbox) counters, plus one
// inbox-depth gauge per attached node ("netsim.inbox.<name>"), sampled at
// snapshot time. Nodes attached before or after Observe are both covered.
func (n *Network) Observe(r *obsv.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg = r
	n.ctrDelivered = r.Counter("netsim.delivered")
	n.ctrDropped = r.Counter("netsim.dropped")
	n.ctrOverflow = r.Counter("netsim.overflow")
	n.ctrDuplicated = r.Counter("netsim.duplicated")
	n.ctrReordered = r.Counter("netsim.reordered")
	n.ctrDelayed = r.Counter("netsim.delayed")
	n.ctrBytesSent = r.Counter("netsim.bytes_sent")
	n.ctrBytesDeliv = r.Counter("netsim.bytes_delivered")
	n.ctrAllocBytes = r.Counter("netsim.alloc_bytes")
	r.GaugeFunc("netsim.inbox_total", func() int64 { return n.inboxTotal.Load() })
	// Deterministic registration order for nodes attached before Observe.
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n.registerInboxGauge(name)
	}
}

// registerInboxGauge publishes the inbox depth of whatever node currently
// holds name; caller holds n.mu. The gauge callback is lock-free: it reads
// a stable per-name cell (re-pointed by Attach, cleared by Detach) and the
// node's atomic depth counter, so a 1024-node snapshot costs 1024 atomic
// loads instead of 1024 mutex round trips over the node table. Only the
// first maxInboxGauges names get individual gauges; netsim.inbox_total
// covers everyone.
func (n *Network) registerInboxGauge(name string) {
	if n.reg == nil || n.gaugeCount >= maxInboxGauges {
		return
	}
	h := n.holders[name]
	if h == nil {
		return
	}
	n.gaugeCount++
	n.reg.GaugeFunc("netsim.inbox."+name, func() int64 {
		if nd := h.p.Load(); nd != nil {
			return nd.depth.Load()
		}
		return 0
	})
}

// Node is one machine's network interface.
type Node struct {
	name string
	net  *Network
	// inbox[head:] is the queue. Recv advances head instead of re-slicing,
	// so the array is reused: head returns to 0 whenever the queue drains.
	inbox    []Datagram
	head     int
	detached bool
	stats    NodeStats

	// depth mirrors the queue length atomically so the inbox gauges can
	// read it without the network lock.
	depth atomic.Int64
}

// Attach joins the network under the given name, replacing any previous
// node with that name. The replaced node is detached: its queued inbox
// stays readable, but it receives nothing further and its sends fail.
func (n *Network) Attach(name string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.nodes[name]; ok {
		old.detached = true
	}
	nd := &Node{name: name, net: n}
	n.nodes[name] = nd
	h, ok := n.holders[name]
	if !ok {
		h = &nodeHolder{}
		n.holders[name] = h
	}
	h.p.Store(nd)
	if !ok {
		n.registerInboxGauge(name)
	}
	return nd
}

// Nodes returns the attached node names, sorted.
func (n *Network) Nodes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats reports the network-wide datagram accounting.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// NodeStats reports the accounting of the node currently attached under
// name (zero stats if no such node).
func (n *Network) NodeStats(name string) NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[name]; ok {
		return nd.stats
	}
	return NodeStats{}
}

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Stats returns this node handle's accounting (valid even after the node
// was detached or replaced).
func (nd *Node) Stats() NodeStats {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return nd.stats
}

// copyBuf returns a copy of payload drawn from the free list of the
// smallest class it fits (exact-size unpooled allocation for oversize
// payloads); caller holds n.mu. Fresh allocations are charged to
// alloc_bytes at their capacity: the class size, or the payload's size.
func (n *Network) copyBuf(payload []byte) []byte {
	size := len(payload)
	var cp []byte
	if c := class(size); c >= 0 {
		size = classCap[c]
		if free := n.pools[c]; len(free) > 0 {
			cp = free[len(free)-1]
			free[len(free)-1] = nil
			n.pools[c] = free[:len(free)-1]
		}
	}
	if cp == nil {
		cp = make([]byte, 0, size)
		n.stats.AllocBytes += uint64(size)
		n.ctrAllocBytes.Add(uint64(size))
	}
	return append(cp[:0], payload...)
}

// reclaim puts a class-size buffer back on its free list unless the list
// is full; caller holds n.mu. Anything else is left to the GC.
func (n *Network) reclaim(p []byte) {
	if c := class(cap(p)); c >= 0 && cap(p) == classCap[c] && len(n.pools[c]) < poolMax {
		n.pools[c] = append(n.pools[c], p[:cap(p)])
	}
}

// Recycle hands a received datagram's payload back to the buffer pool.
// Receivers call it once the payload is fully consumed — the buffer will
// back a future datagram, so keeping any slice of it is a bug. Only
// class-size buffers are kept; anything else is left to the GC.
func (n *Network) Recycle(p []byte) {
	if class(cap(p)) < 0 {
		return
	}
	n.mu.Lock()
	n.reclaim(p)
	n.mu.Unlock()
}

// deliver moves one datagram from nd to peer, applying the adversarial
// knobs in wire order — loss, then duplication, then per-copy delay —
// before the copies reach the inbox via enqueue; caller holds n.mu.
func (n *Network) deliver(nd, peer *Node, payload []byte) {
	nd.stats.Sent++
	nd.stats.BytesSent += uint64(len(payload))
	n.stats.BytesSent += uint64(len(payload))
	n.ctrBytesSent.Add(uint64(len(payload)))
	if n.Drop != nil && n.Drop(nd.name, peer.name, n.seq) {
		n.stats.Dropped++
		peer.stats.Dropped++
		n.ctrDropped.Inc()
		return
	}
	copies := 1
	if n.Dup != nil && n.Dup(nd.name, peer.name, n.seq) {
		copies = 2
		n.stats.Duplicated++
		peer.stats.Duplicated++
		n.ctrDuplicated.Inc()
	}
	for i := 0; i < copies; i++ {
		cp := n.copyBuf(payload)
		if n.DelayTicks != nil {
			if t := n.DelayTicks(nd.name, peer.name, n.seq); t > 0 {
				n.delayed = append(n.delayed, delayedDatagram{
					from: nd.name, to: peer.name, seq: n.seq, payload: cp, ticks: t,
				})
				n.stats.Delayed++
				peer.stats.Delayed++
				n.ctrDelayed.Inc()
				continue
			}
		}
		n.enqueue(nd.name, peer, n.seq, cp)
	}
}

// enqueue places one already-copied datagram into peer's inbox, applying
// the Reorder knob and the inbox bound; caller holds n.mu.
func (n *Network) enqueue(from string, peer *Node, seq uint64, cp []byte) {
	queued := len(peer.inbox) - peer.head
	if queued >= DefaultQueueDepth {
		n.stats.Overflow++
		peer.stats.Overflow++
		n.ctrOverflow.Inc()
		// The copy never reaches a receiver, so no one will Recycle it;
		// reclaim it here.
		n.reclaim(cp)
		return
	}
	d := Datagram{From: from, Payload: cp}
	if n.Reorder != nil && queued > 0 && n.Reorder(from, peer.name, seq) {
		// Overtake everything queued (counted only when something was
		// actually overtaken).
		peer.pushFront(d)
		n.stats.Reordered++
		peer.stats.Reordered++
		n.ctrReordered.Inc()
	} else {
		peer.push(d)
	}
	peer.depth.Add(1)
	n.inboxTotal.Add(1)
	n.stats.Delivered++
	peer.stats.Delivered++
	n.stats.BytesDelivered += uint64(len(cp))
	peer.stats.BytesDelivered += uint64(len(cp))
	n.ctrDelivered.Inc()
	n.ctrBytesDeliv.Add(uint64(len(cp)))
}

// push appends d to the queue. When the array is full but Recv has
// consumed its front, the queue moves down to the front instead of
// growing, so a receiver that never drains cannot grow the array without
// bound: it stays within about twice DefaultQueueDepth.
func (nd *Node) push(d Datagram) {
	if len(nd.inbox) == cap(nd.inbox) && nd.head > 0 {
		k := copy(nd.inbox, nd.inbox[nd.head:])
		clear(nd.inbox[k:])
		nd.inbox, nd.head = nd.inbox[:k], 0
	}
	nd.inbox = append(nd.inbox, d)
}

// pushFront puts d ahead of everything queued, in the slot before the
// head when Recv has freed one.
func (nd *Node) pushFront(d Datagram) {
	if nd.head > 0 {
		nd.head--
		nd.inbox[nd.head] = d
		return
	}
	nd.inbox = slices.Insert(nd.inbox, 0, d)
}

// Advance ages every in-flight (delayed) datagram by one tick and enqueues
// the ones that matured, in send order. A datagram whose receiver detached
// while it was in flight is lost and counted as a drop. Networks that never
// set DelayTicks never need to call Advance.
func (n *Network) Advance() {
	n.mu.Lock()
	defer n.mu.Unlock()
	still := n.delayed[:0]
	for _, d := range n.delayed {
		d.ticks--
		if d.ticks > 0 {
			still = append(still, d)
			continue
		}
		peer, ok := n.nodes[d.to]
		if !ok || peer.detached {
			n.stats.Dropped++
			n.ctrDropped.Inc()
			continue
		}
		n.enqueue(d.from, peer, d.seq, d.payload)
	}
	n.delayed = still
}

// InFlight reports how many delayed datagrams have not yet matured.
func (n *Network) InFlight() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.delayed)
}

// Broadcast sends payload to every other attached node (not to itself),
// copying per receiver. Receivers are visited in map order, which cannot
// change what happens: every copy carries the same seq, each knob decides
// per (from, to, seq), and each receiver gets one copy of its own.
func (nd *Node) Broadcast(payload []byte) error {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd.detached {
		return ErrDetached
	}
	n.seq++
	for _, peer := range n.nodes {
		if peer == nd || peer.detached {
			continue
		}
		n.deliver(nd, peer, payload)
	}
	return nil
}

// Send unicasts payload to the named node. Like UDP it is fire-and-forget:
// a missing or detached destination silently loses the datagram (counted
// as a drop), and only a detached sender gets an error.
func (nd *Node) Send(to string, payload []byte) error {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd.detached {
		return ErrDetached
	}
	if to == nd.name {
		return fmt.Errorf("netsim: %s sending to itself", nd.name)
	}
	n.seq++
	peer, ok := n.nodes[to]
	if !ok || peer.detached {
		nd.stats.Sent++
		n.stats.Dropped++
		n.ctrDropped.Inc()
		return nil
	}
	n.deliver(nd, peer, payload)
	return nil
}

// Recv pops the next datagram, reporting false when the inbox is empty.
// A detached node may still drain datagrams queued before it left.
func (nd *Node) Recv() (Datagram, bool) {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd.head == len(nd.inbox) {
		return Datagram{}, false
	}
	d := nd.inbox[nd.head]
	nd.inbox[nd.head] = Datagram{}
	if nd.head++; nd.head == len(nd.inbox) {
		nd.inbox, nd.head = nd.inbox[:0], 0
	}
	nd.depth.Add(-1)
	n.inboxTotal.Add(-1)
	return d, true
}

// Pending reports queued datagrams.
func (nd *Node) Pending() int {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return len(nd.inbox) - nd.head
}

// Detach removes the node from the network; further Broadcasts fail and
// peers stop delivering to it.
func (nd *Node) Detach() {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	nd.detached = true
	if n.nodes[nd.name] == nd {
		delete(n.nodes, nd.name)
	}
	if h, ok := n.holders[nd.name]; ok && h.p.Load() == nd {
		h.p.Store(nil)
	}
}
