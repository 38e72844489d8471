package netsim

import (
	"strings"
	"testing"

	"hemlock/internal/obsv"
)

// TestObserveCountersMatchStats wires a network into a registry and checks
// the counters can never disagree with the network's own accounting.
func TestObserveCountersMatchStats(t *testing.T) {
	n := New()
	n.Drop = func(from, to string, seq uint64) bool { return to == "c" }
	r := obsv.NewRegistry()
	n.Observe(r)
	a := n.Attach("a")
	n.Attach("b")
	n.Attach("c")

	a.Broadcast([]byte("x")) // b delivered, c dropped
	a.Send("b", []byte("y")) // delivered
	for i := 0; i < DefaultQueueDepth+3; i++ {
		a.Send("b", []byte{1}) // tail overflows
	}

	st := n.Stats()
	s := r.Snapshot()
	if got := s.Counters["netsim.delivered"]; got != st.Delivered {
		t.Fatalf("netsim.delivered = %d, network says %d", got, st.Delivered)
	}
	if got := s.Counters["netsim.dropped"]; got != st.Dropped {
		t.Fatalf("netsim.dropped = %d, network says %d", got, st.Dropped)
	}
	if got := s.Counters["netsim.overflow"]; got != st.Overflow {
		t.Fatalf("netsim.overflow = %d, network says %d", got, st.Overflow)
	}
	if st.Overflow == 0 || st.Dropped == 0 {
		t.Fatalf("workload exercised no losses: %+v", st)
	}
}

// TestObserveInboxGauges checks the per-node inbox-depth gauges: sampled at
// snapshot time, they track Pending exactly, including for nodes attached
// before Observe was called and nodes later replaced under the same name.
func TestObserveInboxGauges(t *testing.T) {
	n := New()
	a := n.Attach("a") // attached before Observe
	r := obsv.NewRegistry()
	n.Observe(r)
	b := n.Attach("b")

	a.Broadcast([]byte("1"))
	a.Broadcast([]byte("2"))
	s := r.Snapshot()
	if got := s.Gauges["netsim.inbox.b"]; got != int64(b.Pending()) || got != 2 {
		t.Fatalf("netsim.inbox.b = %d, want 2", got)
	}
	if got := s.Gauges["netsim.inbox.a"]; got != 0 {
		t.Fatalf("netsim.inbox.a = %d, want 0", got)
	}

	// Replacing b re-points the gauge at the live node.
	n.Attach("b")
	if got := r.Snapshot().Gauges["netsim.inbox.b"]; got != 0 {
		t.Fatalf("after replacement netsim.inbox.b = %d, want 0", got)
	}
}

// TestObserveGoldenText is the golden check: the rendered snapshot of a
// fixed workload, with every netsim metric present.
func TestObserveGoldenText(t *testing.T) {
	n := New()
	n.Drop = func(from, to string, seq uint64) bool { return seq%5 == 0 }
	r := obsv.NewRegistry()
	n.Observe(r)
	a := n.Attach("a")
	n.Attach("b")
	n.Attach("c")
	for i := 0; i < 5; i++ {
		a.Broadcast([]byte{byte(i)}) // seqs 1..5; seq 5 dropped to both peers
	}

	got := r.Snapshot().Text()
	want := strings.Join([]string{
		"counters:",
		"  netsim.alloc_bytes           4096",
		"  netsim.bytes_delivered       8",
		"  netsim.bytes_sent            10",
		"  netsim.delayed               0",
		"  netsim.delivered             8",
		"  netsim.dropped               2",
		"  netsim.duplicated            0",
		"  netsim.overflow              0",
		"  netsim.reordered             0",
		"gauges:",
		"  netsim.inbox.a               0",
		"  netsim.inbox.b               4",
		"  netsim.inbox.c               4",
		"  netsim.inbox_total           8",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("snapshot text:\n%s\nwant:\n%s", got, want)
	}
}
