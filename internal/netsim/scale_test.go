package netsim

import (
	"fmt"
	"strings"
	"testing"

	"hemlock/internal/obsv"
)

// TestBufferPoolReuse: once payloads are recycled, further sends stop
// allocating — alloc_bytes is flat in steady state.
func TestBufferPoolReuse(t *testing.T) {
	n := New()
	a := n.Attach("a")
	b := n.Attach("b")

	payload := make([]byte, 100)
	for i := 0; i < 50; i++ {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		d, ok := b.Recv()
		if !ok {
			t.Fatal("datagram missing")
		}
		n.Recycle(d.Payload)
	}
	st := n.Stats()
	if st.AllocBytes != smallBufCap {
		t.Fatalf("alloc_bytes = %d after 50 recycled sends, want one buffer (%d)", st.AllocBytes, smallBufCap)
	}
	if st.BytesSent != 50*100 || st.BytesDelivered != 50*100 {
		t.Fatalf("bytes sent/delivered = %d/%d, want 5000/5000", st.BytesSent, st.BytesDelivered)
	}
}

// TestBufferPoolIsolation: a recycled buffer must not alias a datagram
// still queued — the bytes a receiver reads are the bytes that were sent.
func TestBufferPoolIsolation(t *testing.T) {
	n := New()
	a := n.Attach("a")
	b := n.Attach("b")

	a.Send("b", []byte{1})
	a.Send("b", []byte{2})
	d1, _ := b.Recv()
	n.Recycle(d1.Payload)
	a.Send("b", []byte{3}) // reuses d1's buffer
	d2, _ := b.Recv()
	d3, _ := b.Recv()
	if d2.Payload[0] != 2 || d3.Payload[0] != 3 {
		t.Fatalf("got %d,%d want 2,3 — recycled buffer aliased a queued datagram", d2.Payload[0], d3.Payload[0])
	}
}

// TestOversizePayloadUnpooled: payloads above the pool class still work
// and are charged exactly.
func TestOversizePayloadUnpooled(t *testing.T) {
	n := New()
	a := n.Attach("a")
	b := n.Attach("b")
	big := make([]byte, poolBufCap+1)
	big[poolBufCap] = 7
	a.Send("b", big)
	d, ok := b.Recv()
	if !ok || len(d.Payload) != poolBufCap+1 || d.Payload[poolBufCap] != 7 {
		t.Fatalf("oversize payload mangled: ok=%v len=%d", ok, len(d.Payload))
	}
	n.Recycle(d.Payload) // no-op for unpooled buffers
	if st := n.Stats(); st.AllocBytes != poolBufCap+1 {
		t.Fatalf("alloc_bytes = %d, want %d", st.AllocBytes, poolBufCap+1)
	}
}

// TestInboxTotalGauge: the fleet-wide queued-datagram gauge tracks
// enqueue and drain without scanning nodes.
func TestInboxTotalGauge(t *testing.T) {
	n := New()
	r := obsv.NewRegistry()
	n.Observe(r)
	a := n.Attach("a")
	b := n.Attach("b")
	c := n.Attach("c")

	a.Broadcast([]byte("x")) // b and c each queue one
	if got := r.Snapshot().Gauges["netsim.inbox_total"]; got != 2 {
		t.Fatalf("inbox_total = %d, want 2", got)
	}
	b.Recv()
	c.Recv()
	if got := r.Snapshot().Gauges["netsim.inbox_total"]; got != 0 {
		t.Fatalf("inbox_total after drain = %d, want 0", got)
	}
}

// TestInboxGaugeCap: a big fleet registers at most maxInboxGauges
// per-node gauges; inbox_total still covers everyone.
func TestInboxGaugeCap(t *testing.T) {
	n := New()
	r := obsv.NewRegistry()
	n.Observe(r)
	var first *Node
	for i := 0; i < 100; i++ {
		nd := n.Attach(fmt.Sprintf("m%03d", i))
		if i == 0 {
			first = nd
		}
	}
	for i := 1; i < 100; i++ {
		first.Send(fmt.Sprintf("m%03d", i), []byte("y"))
	}
	s := r.Snapshot()
	perNode := 0
	for name := range s.Gauges {
		if len(name) > len("netsim.inbox.") && name[:len("netsim.inbox.")] == "netsim.inbox." {
			perNode++
		}
	}
	if perNode != maxInboxGauges {
		t.Fatalf("per-node gauges = %d, want cap %d", perNode, maxInboxGauges)
	}
	if got := s.Gauges["netsim.inbox_total"]; got != 99 {
		t.Fatalf("inbox_total = %d, want 99", got)
	}
}

// TestSteadyStateTickAllocationLight: a sustained all-pairs workload with
// recycling settles into zero fresh allocation — the 1024-node fleet tick
// property, scaled down for test time.
func TestSteadyStateTickAllocationLight(t *testing.T) {
	n := New()
	const hosts = 32
	nodes := make([]*Node, hosts)
	for i := range nodes {
		nodes[i] = n.Attach(fmt.Sprintf("h%02d", i))
	}
	tick := func() {
		for _, nd := range nodes {
			nd.Broadcast([]byte("status"))
		}
		for _, nd := range nodes {
			for {
				d, ok := nd.Recv()
				if !ok {
					break
				}
				n.Recycle(d.Payload)
			}
		}
	}
	tick() // warm the pool
	warm := n.Stats().AllocBytes
	for i := 0; i < 10; i++ {
		tick()
	}
	if got := n.Stats().AllocBytes; got != warm {
		t.Fatalf("steady-state ticks allocated %d fresh bytes, want 0", got-warm)
	}
}

// TestReorderIntoFreedSlot: a datagram that overtakes a queue whose front
// Recv has consumed takes the freed slot and still comes out first.
func TestReorderIntoFreedSlot(t *testing.T) {
	n := New()
	a, b := n.Attach("a"), n.Attach("b")
	for _, s := range []string{"1", "2", "3"} {
		a.Send("b", []byte(s))
	}
	if d, _ := b.Recv(); string(d.Payload) != "1" {
		t.Fatalf("first datagram %q", d.Payload)
	}
	n.Reorder = func(from, to string, seq uint64) bool { return true }
	a.Send("b", []byte("x"))
	var got []string
	for _, d := range drain(b) {
		got = append(got, string(d.Payload))
	}
	if strings.Join(got, "") != "x23" {
		t.Fatalf("queue drained as %q, want x, 2, 3", got)
	}
}

// TestInboxReusesItsArray: a receiver that never empties its inbox keeps
// the queue's array within twice the depth bound, and steady sending and
// receiving through the pool, overtaking included, allocates nothing.
func TestInboxReusesItsArray(t *testing.T) {
	n := New()
	n.Reorder = func(from, to string, seq uint64) bool { return seq%3 == 0 }
	a, b := n.Attach("a"), n.Attach("b")
	a.Send("b", []byte{0}) // one datagram stays queued throughout
	payload := make([]byte, 100)
	allocs := testing.AllocsPerRun(10000, func() {
		payload[0]++
		a.Send("b", payload)
		d, _ := b.Recv()
		n.Recycle(d.Payload)
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per send and receive, want 0", allocs)
	}
	if c := cap(b.inbox); c > 2*DefaultQueueDepth {
		t.Errorf("inbox array grew to %d slots for a queue of 1 or 2", c)
	}
	if st := n.Stats(); st.Reordered == 0 {
		t.Fatal("no datagram overtook the queue")
	}
}

// TestBufferClasses: a payload draws from the smallest class it fits, is
// charged to alloc_bytes at that class's size on a miss, and goes back to
// that class's free list.
func TestBufferClasses(t *testing.T) {
	n := New()
	a, b := n.Attach("a"), n.Attach("b")
	send := func(size int) {
		a.Send("b", make([]byte, size))
		d, _ := b.Recv()
		if len(d.Payload) != size {
			t.Fatalf("sent %d bytes, received %d", size, len(d.Payload))
		}
		n.Recycle(d.Payload)
	}
	for round := 0; round < 2; round++ {
		for _, size := range []int{1, smallBufCap, smallBufCap + 1, poolBufCap} {
			send(size)
		}
	}
	if got, want := n.Stats().AllocBytes, uint64(smallBufCap+poolBufCap); got != want {
		t.Fatalf("alloc_bytes = %d, want one buffer of each class (%d)", got, want)
	}
}
