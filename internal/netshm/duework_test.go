package netshm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"hemlock/internal/netsim"
	"hemlock/internal/obsv"
)

// seqLoss drops pct% of datagrams, chosen by a hash of (from, to, seq):
// which datagram is lost depends on the order the fleet sends in.
func seqLoss(pct uint32) func(from, to string, seq uint64) bool {
	return func(from, to string, seq uint64) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s|%s|%d", from, to, seq)
		return h.Sum32()%100 < pct
	}
}

// fleetRun is what one seeded fleet run leaves behind.
type fleetRun struct {
	snap    obsv.Snapshot
	digests []uint64 // per machine, per segment
	reads   [][]byte // each segment read through Node.Read, per machine, after snap
	events  []obsv.Event
}

// runSeededFleet drives 16 machines sharing 4 sharded segments over a LAN
// with seq-keyed 20% loss: home writes, forwarded writes and remote
// transaction commits, each followed by convergence. tick advances the
// fleet one tick; nil means Fleet.Tick.
func runSeededFleet(t *testing.T, ops int, tick func(*Fleet)) fleetRun {
	t.Helper()
	if tick == nil {
		tick = (*Fleet).Tick
	}
	net := netsim.New()
	f := bootLite(t, net, Config{}, 16)
	// Fleet.WaitConverged, ticking with tick.
	waitConverged := func(p string, maxTicks int) bool {
		for i := 0; i < maxTicks; i++ {
			if f.Converged(p) {
				return true
			}
			tick(f)
		}
		return f.Converged(p)
	}
	ring := obsv.NewRing(1 << 18)
	f.Trace.Attach(ring)
	rng := rand.New(rand.NewSource(5))
	var paths []string
	for k := 0; k < 4; k++ {
		p := fmt.Sprintf("/lib/det/s%d", k)
		data := make([]byte, PageSize+512)
		rng.Read(data)
		if _, err := f.PublishSharded(p, data); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		if !waitConverged(p, 200) {
			t.Fatalf("%s: no initial convergence", p)
		}
	}
	net.Drop = seqLoss(20)
	nodes := f.Nodes()
	buf := make([]byte, 8)
	for i := 0; i < ops; i++ {
		p := paths[rng.Intn(len(paths))]
		off := uint32(rng.Intn(PageSize + 512 - len(buf)))
		rng.Read(buf)
		from := nodes[rng.Intn(len(nodes))]
		switch kind := rng.Intn(10); {
		case kind < 6:
			home := f.Node(f.HomeFor(p))
			if si, _ := home.Info(p); !si.Writable() {
				continue // a migration moved it; the forwarded writes cover that path
			}
			if err := home.Write(p, off, buf); err != nil {
				t.Fatal(err)
			}
		case kind < 8:
			if err := from.WriteAny(p, off, buf); err != nil {
				t.Fatal(err)
			}
		default:
			tx := from.Begin()
			tx.WriteWord(p, off&^3, binary.BigEndian.Uint32(buf))
			tx.WriteWord(p, off&^3+4, binary.BigEndian.Uint32(buf[4:]))
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if !waitConverged(p, 400) {
			t.Fatalf("op %d on %s: no convergence", i, p)
		}
	}
	if ring.Dropped() != 0 {
		t.Fatalf("trace ring overflowed by %d events", ring.Dropped())
	}
	r := fleetRun{snap: f.Reg.Snapshot(), events: ring.Events()}
	for _, n := range nodes {
		for _, p := range paths {
			d, err := n.Digest(p)
			if err != nil {
				t.Fatal(err)
			}
			r.digests = append(r.digests, d)
		}
	}
	for _, n := range nodes {
		for _, p := range paths {
			b, _, err := n.Read(p, 0, PageSize+512)
			if err != nil {
				t.Fatal(err)
			}
			r.reads = append(r.reads, b)
		}
	}
	return r
}

// TestFleetRunRepeatsForSeed: a seeded fleet run is a pure function of its
// seed. Twice in one process, the same workload under the same seq-keyed
// loss must send the same datagrams in the same order: identical
// counters, histograms and gauges, identical per-machine content, and an
// identical trace.
func TestFleetRunRepeatsForSeed(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 80
	}
	a, b := runSeededFleet(t, ops, nil), runSeededFleet(t, ops, nil)
	if a.snap.Counters["netsim.dropped"] == 0 || a.snap.Counters["netshm.retries"] == 0 ||
		a.snap.Counters["netshm.write_fwd"] == 0 || a.snap.Counters["netshm.txn_commits"] == 0 {
		t.Fatalf("workload missed a path: %v", a.snap.Counters)
	}
	for name, v := range a.snap.Counters {
		if b.snap.Counters[name] != v {
			t.Errorf("counter %s: %d then %d", name, v, b.snap.Counters[name])
		}
	}
	if !reflect.DeepEqual(a.snap, b.snap) {
		t.Fatal("registry snapshots differ between the two runs")
	}
	if !reflect.DeepEqual(a.digests, b.digests) {
		t.Fatal("per-machine digests differ between the two runs")
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("traces differ: %d vs %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("trace event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
}

// TestQuietFleetSendsOnlyHeartbeats: once a lossless 64-machine fleet with
// 8 segments has converged and every ack is in, a heartbeat period
// carries exactly one broadcast announce per segment and nothing else.
func TestQuietFleetSendsOnlyHeartbeats(t *testing.T) {
	net := netsim.New()
	f := bootLite(t, net, Config{}, 64)
	for k := 0; k < 8; k++ {
		p := fmt.Sprintf("/lib/quiet/s%d", k)
		if _, err := f.PublishSharded(p, make([]byte, 2*PageSize)); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.WaitConverged(p, 100); !ok {
			t.Fatalf("%s: no convergence", p)
		}
	}
	period := int(f.Cfg.heartbeatTicks())
	if period != 32 {
		t.Fatalf("default heartbeat period %d ticks, want 32", period)
	}
	f.Run(period) // let the last acks land
	before := net.Stats()
	f.Run(period)
	after := net.Stats()
	sent := after.Delivered + after.Dropped - before.Delivered - before.Dropped
	if want := uint64(8 * 63); sent != want {
		t.Fatalf("a quiet heartbeat period sent %d datagrams, want %d (8 segments x 63 peers)", sent, want)
	}
}

// TestLaggingReplicaAnnouncedUntilAcked: a replica that missed an update
// and the first retries after it is announced to at every AnnounceTicks
// boundary until it acks; a replica that acked is not; and once the
// laggard heals, it drops out of the announces too.
func TestLaggingReplicaAnnouncedUntilAcked(t *testing.T) {
	net := netsim.New()
	f := bootLite(t, net, Config{}, 3)
	ring := obsv.NewRing(1 << 14)
	f.Trace.Attach(ring)
	home := f.Node("m000")
	if err := home.Publish("/lib/seg", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no initial convergence")
	}
	f.Run(4)

	blocked := true
	net.Drop = func(from, to string, seq uint64) bool { return blocked && from == "m000" && to == "m001" }
	if err := home.Write("/lib/seg", 100, []byte("lagging")); err != nil {
		t.Fatal(err)
	}
	start := f.Now()
	const window = 40 // covers the retries 2, 6, 14 and 30 ticks after the push
	f.Run(window)
	// announcedTo lists the ticks in (lo, hi] at which the home announced
	// to machine, by unicast or broadcast.
	announcedTo := func(machine string, lo, hi uint64) []uint64 {
		var at []uint64
		for _, e := range ring.Events() {
			tick := uint64(e.TS / 1000)
			if e.Name == "announce" && (e.Mod == machine || e.Mod == "*") && tick > lo && tick <= hi {
				at = append(at, tick)
			}
		}
		return at
	}
	var want []uint64
	for tick := start + 1; tick <= start+window; tick++ {
		if tick%f.Cfg.AnnounceTicks == 0 {
			want = append(want, tick)
		}
	}
	if got := announcedTo("m001", start, start+window); !reflect.DeepEqual(got, want) {
		t.Fatalf("lagging replica announced to at ticks %v, want every announce tick %v", got, want)
	}
	hb := f.Cfg.heartbeatTicks()
	for _, tick := range announcedTo("m002", start, start+window) {
		if tick%hb != 0 {
			t.Fatalf("up-to-date replica announced to at tick %d, not a heartbeat", tick)
		}
	}
	if got := f.Reg.Snapshot().Counters["netshm.retries"]; got == 0 {
		t.Fatal("no retry fired while the replica lagged")
	}

	blocked = false
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("the lagging replica never healed")
	}
	f.Run(4) // its ack lands
	healed := f.Now()
	f.Run(2 * int(hb))
	for _, tick := range announcedTo("m001", healed, f.Now()) {
		if tick%hb != 0 {
			t.Fatalf("healed replica still announced to at tick %d", tick)
		}
	}
}

// TestTxnStatusForgetsEvictedOutcomes: the origin keeps the outcomes of
// its last txnDoneMax resolved forwarded commits and answers TxnUnknown
// for older ones, for txid 0 and for txids it never issued.
func TestTxnStatusForgetsEvictedOutcomes(t *testing.T) {
	// No auto-migration: the home must stay remote to the origin.
	f := bootLite(t, netsim.New(), Config{MigrateThreshold: -1}, 2)
	home, origin := f.Node("m000"), f.Node("m001")
	if err := home.Publish("/lib/acct", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/acct", 20); !ok {
		t.Fatal("no convergence")
	}
	commit := func(stale bool) uint64 {
		tx := origin.Begin()
		if _, err := tx.Read("/lib/acct", 0, 4); err != nil {
			t.Fatal(err)
		}
		if stale {
			if err := home.Write("/lib/acct", 8, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		tx.WriteWord("/lib/acct", 0, 7)
		txid, err := tx.Commit()
		if err != nil || txid == 0 {
			t.Fatalf("forwarded commit: txid=%d err=%v", txid, err)
		}
		if st := origin.TxnStatus(txid); st != TxnPending {
			t.Fatalf("txid %d before any tick: %v, want pending", txid, st)
		}
		for i := 0; i < 10 && origin.TxnStatus(txid) == TxnPending; i++ {
			f.Tick()
		}
		if _, ok := f.WaitConverged("/lib/acct", 20); !ok {
			t.Fatal("no convergence")
		}
		return txid
	}
	first := commit(false)
	extra := 76
	var last, aborted uint64
	for i := 1; i < txnDoneMax+extra; i++ {
		last = commit(i == txnDoneMax+extra-2)
		if i == txnDoneMax+extra-2 {
			aborted = last
		}
	}
	if st := origin.TxnStatus(first); st != TxnUnknown {
		t.Fatalf("evicted txid %d: %v, want unknown", first, st)
	}
	if st := origin.TxnStatus(first + uint64(extra) - 1); st != TxnUnknown {
		t.Fatalf("last evicted txid: %v, want unknown", st)
	}
	if st := origin.TxnStatus(first + uint64(extra)); st != TxnCommitted {
		t.Fatalf("oldest kept txid: %v, want committed", st)
	}
	if st := origin.TxnStatus(aborted); st != TxnAborted {
		t.Fatalf("recent aborted txid: %v, want aborted", st)
	}
	if st := origin.TxnStatus(last); st != TxnCommitted {
		t.Fatalf("recent txid: %v, want committed", st)
	}
	for _, txid := range []uint64{0, last + 1} {
		if st := origin.TxnStatus(txid); st != TxnUnknown {
			t.Fatalf("txid %d: %v, want unknown", txid, st)
		}
	}
	if n := len(origin.txnPending); n != 0 {
		t.Fatalf("%d resolved commits still on the pending list", n)
	}
}

// convergedTwoPass is Converged as it was written before it became one
// pass: find the home's triple, then compare every machine with it.
func convergedTwoPass(f *Fleet, path string) bool {
	var wantE, wantG, wantT uint64
	homes, migrating := 0, false
	for _, n := range f.nodes {
		n.mu.Lock()
		s, ok := n.segs[path]
		if ok && s.isHome {
			homes++
			if s.migrating != "" {
				migrating = true
			}
			if homes == 1 || s.epoch > wantE {
				wantE, wantG, wantT = s.epoch, s.gen, s.tv
			}
		}
		n.mu.Unlock()
	}
	if homes != 1 || migrating {
		return false
	}
	for _, n := range f.nodes {
		n.mu.Lock()
		s, ok := n.segs[path]
		stale := !ok || s.epoch != wantE || s.gen != wantG || s.tv != wantT || s.needFull
		n.mu.Unlock()
		if stale {
			return false
		}
	}
	return true
}

// TestConvergedMatchesTwoPass: on every tick of a lossy 16-machine run
// with home writes and forwarded writes (every fourth of which migrates
// the home to its writer), the
// one-pass Converged answers what the two-pass definition answers, and
// allocates nothing.
func TestConvergedMatchesTwoPass(t *testing.T) {
	net := netsim.New()
	f := bootLite(t, net, Config{MigrateThreshold: 4}, 16)
	rng := rand.New(rand.NewSource(9))
	var paths []string
	for k := 0; k < 4; k++ {
		p := fmt.Sprintf("/lib/conv/s%d", k)
		if _, err := f.PublishSharded(p, make([]byte, PageSize)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	seen := map[bool]int{}
	check := func() {
		for _, p := range paths {
			got, want := f.Converged(p), convergedTwoPass(f, p)
			if got != want {
				t.Fatalf("%s: Converged %v, two-pass %v", p, got, want)
			}
			seen[got]++
		}
	}
	for _, p := range paths {
		for tick := 0; !f.Converged(p); tick++ {
			if tick == 200 {
				t.Fatalf("%s: no initial convergence", p)
			}
			check()
			f.Tick()
		}
	}
	net.Drop = seqLoss(20)
	nodes := f.Nodes()
	ops := 120
	if testing.Short() {
		ops = 40
	}
	for i := 0; i < ops; i++ {
		p := paths[rng.Intn(len(paths))]
		buf := []byte{byte(i), byte(i >> 8), 1, 2}
		if rng.Intn(2) == 0 {
			if err := nodes[rng.Intn(len(nodes))].WriteAny(p, uint32(rng.Intn(PageSize-4)), buf); err != nil {
				t.Fatal(err)
			}
		} else if home := f.Node(f.HomeFor(p)); home != nil {
			if si, _ := home.Info(p); si.Writable() {
				if err := home.Write(p, uint32(rng.Intn(PageSize-4)), buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		for tick := 0; tick < 400; tick++ {
			check()
			if f.Converged(p) {
				break
			}
			f.Tick()
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("answers seen %v, want both", seen)
	}
	if n := testing.AllocsPerRun(100, func() { f.Converged(paths[0]) }); n != 0 {
		t.Fatalf("Converged allocates %.1f times per call", n)
	}
}
