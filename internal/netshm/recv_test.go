package netshm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"hemlock/internal/netsim"
	"hemlock/internal/obsv"
)

// recordedRun is runSeededFleet(t, 200, nil) as the protocol ran when
// every received datagram was decoded into a fresh message with copied
// fields and every send encoded into a buffer of its own. Decoding in
// place and encoding into a reused buffer change no wire byte and no
// protocol decision, so the same seed must still send exactly these
// datagrams. netsim.alloc_bytes is left out: it counts pool misses, which
// move with buffer size classes and with how long a datagram is held.
var recordedRun = struct {
	counters map[string]uint64
	digests  [16][4]uint64 // per machine, per segment
	events   int
	trace    uint64 // traceHash of the events
}{
	counters: map[string]uint64{
		"netshm.acks_recv":           2788,
		"netshm.addr_mismatch":       0,
		"netshm.anti_entropy_rounds": 237,
		"netshm.delta_pages":         201,
		"netshm.epoch_resyncs":       0,
		"netshm.full_pages":          0,
		"netshm.lease_expired_reads": 0,
		"netshm.lease_grants":        0,
		"netshm.lease_renews":        0,
		"netshm.migrate_aborts":      0,
		"netshm.migrations":          0,
		"netshm.pulls_served":        193,
		"netshm.retries":             1125,
		"netshm.retry_updates":       1002,
		"netshm.stale_reads":         0,
		"netshm.txn_aborts":          0,
		"netshm.txn_commits":         38,
		"netshm.updates_applied":     2881,
		"netshm.updates_dup":         512,
		"netshm.updates_sent":        2955,
		"netshm.write_fwd":           31,
		"netsim.bytes_delivered":     2123402,
		"netsim.bytes_sent":          2563832,
		"netsim.delayed":             0,
		"netsim.delivered":           8079,
		"netsim.dropped":             1942,
		"netsim.duplicated":          0,
		"netsim.overflow":            0,
		"netsim.reordered":           0,
	},
	// A forwarded write reaches its home after WriteAny returns, and
	// WaitConverged stops at once while the fleet still agrees on the
	// generation before it, so the run can end with machines behind: five
	// hold the generation before the last one of /lib/det/s2.
	digests: func() (d [16][4]uint64) {
		s0, s1, s3 := uint64(0x2ef1dc22867c560c), uint64(0x432a7247ea87637e), uint64(0x72feaf816f217fa2)
		for i := range d {
			d[i] = [4]uint64{s0, s1, 0x559eeb86ba8c617f, s3}
		}
		for _, i := range []int{6, 10, 11, 14, 15} {
			d[i][2] = 0xf67ff81897ebeb20
		}
		return d
	}(),
	events: 10153,
	trace:  0x397d5a78ade6a715,
}

// traceHash is FNV-1a over every event's fields, one line per event.
func traceHash(events []obsv.Event) uint64 {
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return h.Sum64()
}

// TestSeededFleetMatchesRecordedRun: the seeded 200-op fleet run sends
// exactly the datagrams it sent before receive went in place — every
// counter but alloc_bytes, every machine's digest of every segment and
// the whole trace are as recorded.
func TestSeededFleetMatchesRecordedRun(t *testing.T) {
	r := runSeededFleet(t, 200, nil)
	for name, got := range r.snap.Counters {
		if name == "netsim.alloc_bytes" {
			continue
		}
		if want, ok := recordedRun.counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d, recorded %d (recorded: %v)", name, got, want, ok)
		}
	}
	for name := range recordedRun.counters {
		if _, ok := r.snap.Counters[name]; !ok {
			t.Errorf("counter %s missing", name)
		}
	}
	for i, d := range r.digests {
		if want := recordedRun.digests[i/4][i%4]; d != want {
			t.Errorf("machine %d segment %d: digest %#x, recorded %#x", i/4, i%4, d, want)
		}
	}
	if len(r.events) != recordedRun.events || traceHash(r.events) != recordedRun.trace {
		t.Errorf("trace: %d events hashing to %#x, recorded %d hashing to %#x",
			len(r.events), traceHash(r.events), recordedRun.events, recordedRun.trace)
	}
}

// scribbleTick is Fleet.Tick with each received datagram overwritten as
// soon as it has been handled, before it goes back to the pool: anything
// the protocol kept from a datagram would now read garbage.
func scribbleTick(f *Fleet) {
	f.clk.Add(1)
	f.Net.Advance()
	for _, name := range f.order {
		n := f.nodes[name]
		for {
			d, ok := n.nd.Recv()
			if !ok {
				break
			}
			n.receive(d.From, d.Payload)
			b := d.Payload[:cap(d.Payload)]
			for i := range b {
				b[i] = 0xA5
			}
			n.net.Recycle(d.Payload)
		}
		n.runTimers()
	}
}

// TestScribbledDatagramsChangeNothing: a message borrows from its
// datagram only until it has been handled. Overwriting every datagram
// right after its handler returns leaves the seeded run's counters,
// contents, replica reads and trace exactly as an untouched run's.
func TestScribbledDatagramsChangeNothing(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 80
	}
	clean, scribbled := runSeededFleet(t, ops, nil), runSeededFleet(t, ops, scribbleTick)
	if !reflect.DeepEqual(clean.snap.Counters, scribbled.snap.Counters) {
		t.Errorf("counters differ:\nclean     %v\nscribbled %v", clean.snap.Counters, scribbled.snap.Counters)
	}
	if !reflect.DeepEqual(clean.digests, scribbled.digests) {
		t.Error("per-machine digests differ")
	}
	for i := range clean.reads {
		if !bytes.Equal(clean.reads[i], scribbled.reads[i]) {
			t.Errorf("replica read %d (machine %d, segment %d) differs", i, i/4, i%4)
		}
	}
	if traceHash(clean.events) != traceHash(scribbled.events) {
		t.Error("traces differ")
	}
}

// TestDecodeAckAndAnnounceAllocateNothing: a receiver that holds the
// segment decodes an ack or an announce from a known sender into its
// reused message without allocating, even when the message last held a
// page-carrying update.
func TestDecodeAckAndAnnounceAllocateNothing(t *testing.T) {
	const path = "/lib/seg"
	segs := map[string]*seg{path: {path: path}}
	update := (&msg{typ: msgUpdate, path: path, base: 0x30007000, size: 9000, gen: 8,
		origin: "m0", pages: []page{
			{idx: 0, gen: 8, full: bytes.Repeat([]byte{7}, PageSize)},
			{idx: 1, gen: 8, deltas: []rng{{off: 4, data: []byte{1, 2}}, {off: 90, data: []byte{3}}}},
		}}).encode()
	cases := []struct {
		name, from string
		b          []byte
	}{
		{"ack", "m1", (&msg{typ: msgAck, path: path, base: 0x30007000, epoch: 1, gen: 7,
			origin: "m1", stick: 40}).encode()},
		{"announce", "m0", (&msg{typ: msgAnnounce, path: path, base: 0x30007000, size: 9000,
			epoch: 1, gen: 8, tv: 2, origin: "m0", stick: 40, home: "m0", lease: 64}).encode()},
	}
	var m msg
	for _, c := range cases {
		if err := m.decode(update, "m0", segs); err != nil {
			t.Fatal(err)
		}
		m.release()
		allocs := testing.AllocsPerRun(100, func() {
			if err := m.decode(c.b, c.from, segs); err != nil {
				t.Fatal(err)
			}
			m.release()
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per decode, want 0", c.name, allocs)
		}
	}
}

// TestHomeStepHandlingAnAckAllocatesNothing: a home's Step that receives
// one ack — netsim's queue and buffer pool, the decode, the handler and
// the timers of a tick that sends nothing — allocates nothing.
func TestHomeStepHandlingAnAckAllocatesNothing(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{}, 2)
	home, rep := f.Node("m000"), f.Node("m001")
	if err := home.Publish("/lib/seg", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 100); !ok {
		t.Fatal("no convergence")
	}
	f.Run(8) // let every ack land
	for f.Now()%f.Cfg.AnnounceTicks == 0 {
		f.Tick() // a tick on an announce boundary sends
	}
	si, err := rep.Info("/lib/seg")
	if err != nil {
		t.Fatal(err)
	}
	ack := (&msg{typ: msgAck, path: si.Path, base: si.Base, epoch: si.Epoch, gen: si.Gen,
		origin: rep.Name(), stick: f.Now()}).encode()
	acks := f.Reg.Counter("netshm.acks_recv")
	before := acks.Value()
	allocs := testing.AllocsPerRun(100, func() {
		if err := rep.nd.Send(home.Name(), ack); err != nil {
			t.Fatal(err)
		}
		home.Step()
	})
	if got := acks.Value() - before; got != 101 {
		t.Fatalf("home counted %d acks, want 101", got)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per Step handling one ack, want 0", allocs)
	}
}
