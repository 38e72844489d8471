package netshm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/isa"
	"hemlock/internal/kern"
	"hemlock/internal/netsim"
)

// bootLite builds a fleet of n FS-only machines (no kernel, no linkers) —
// the fleet-scale shape.
func bootLite(t testing.TB, net *netsim.Network, cfg Config, n int) *Fleet {
	t.Helper()
	f := NewFleet(net, cfg)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("m%03d", i), core.NewSystemLite())
	}
	return f
}

// ---- home migration ----------------------------------------------------------

func TestMigrateToMovesHome(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{}, 3)
	home := f.Node("m000")
	content := bytes.Repeat([]byte("seg!"), 1400) // 5600 B: two pages
	if err := home.Publish("/lib/seg", content); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no initial convergence")
	}

	if err := home.MigrateTo("/lib/seg", "m002"); err != nil {
		t.Fatal(err)
	}
	// Writes are frozen while the offer is in flight.
	if err := home.Write("/lib/seg", 0, []byte("x")); !errors.Is(err, ErrMigrating) {
		t.Fatalf("write during migration: %v, want ErrMigrating", err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 60); !ok {
		t.Fatal("no convergence after migration")
	}

	ni, _ := f.Node("m002").Info("/lib/seg")
	if !ni.IsHome || ni.Epoch != 1 {
		t.Fatalf("m002 after migration: %+v, want home at epoch 1", ni)
	}
	oi, _ := home.Info("/lib/seg")
	if oi.IsHome || oi.Home != "m002" || oi.Epoch != 1 {
		t.Fatalf("m000 after migration: %+v, want replica of m002 at epoch 1", oi)
	}
	if err := home.Write("/lib/seg", 0, []byte("x")); !errors.Is(err, ErrNotHome) {
		t.Fatalf("old home write: %v, want ErrNotHome", err)
	}

	// The new home writes; everyone converges on its content.
	if err := f.Node("m002").Write("/lib/seg", 4200, []byte("new-home")); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("post-migration write did not converge")
	}
	for _, n := range f.Nodes() {
		if got := segBytes(t, n, "/lib/seg"); !bytes.Equal(got[4200:4208], []byte("new-home")) {
			t.Fatalf("%s: post-migration write missing", n.Name())
		}
	}
	if got := f.Reg.Snapshot().Counters["netshm.migrations"]; got != 1 {
		t.Fatalf("netshm.migrations = %d, want 1", got)
	}
}

// TestMigrateAbortOnPartition: if the target is unreachable the home
// bounds its retries, aborts past the offered epoch, and thaws writes —
// no segment is orphaned by a lost handshake.
func TestMigrateAbortOnPartition(t *testing.T) {
	net := netsim.New()
	f := bootLite(t, net, Config{}, 3)
	home := f.Node("m000")
	if err := home.Publish("/lib/seg", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no initial convergence")
	}

	// m002 is unreachable: every offer (and everything else to it) is lost.
	net.Drop = func(from, to string, seq uint64) bool { return to == "m002" }
	if err := home.MigrateTo("/lib/seg", "m002"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		f.Tick()
		if ii, _ := home.Info("/lib/seg"); !ii.Migrating {
			break
		}
	}
	ii, _ := home.Info("/lib/seg")
	if ii.Migrating {
		t.Fatal("migration never aborted")
	}
	if !ii.IsHome || ii.Epoch != 2 {
		t.Fatalf("after abort: %+v, want home at epoch 2 (offered epoch skipped)", ii)
	}
	if got := f.Reg.Snapshot().Counters["netshm.migrate_aborts"]; got != 1 {
		t.Fatalf("netshm.migrate_aborts = %d, want 1", got)
	}

	// Heal the partition: the fleet adopts the bumped epoch and converges,
	// including m002, which missed the whole episode. It need not wait for
	// a write or a heartbeat: acks of the old epoch vouch for nothing, so
	// the home announces to everyone until each replica acks again.
	net.Drop = nil
	if _, ok := f.WaitConverged("/lib/seg", 2*int(f.Cfg.AnnounceTicks)+4); !ok {
		t.Fatal("no prompt convergence on the post-abort epoch")
	}
	if err := home.Write("/lib/seg", 0, []byte("post-abort")); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 100); !ok {
		t.Fatal("no convergence after abort heal")
	}
	for _, n := range f.Nodes() {
		if got := segBytes(t, n, "/lib/seg"); !bytes.Equal(got, []byte("post-abort")) {
			t.Fatalf("%s: content %q after heal", n.Name(), got)
		}
	}
}

// TestAutoMigrationFollowsWriter: a remote writer that clears the
// threshold pulls the home to itself.
func TestAutoMigrationFollowsWriter(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{MigrateThreshold: 4}, 3)
	if err := f.Node("m000").Publish("/lib/seg", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no initial convergence")
	}
	for i := 0; i < 8; i++ {
		if err := f.Node("m001").WriteAny("/lib/seg", uint32(i*4), []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		f.Run(3)
		if ii, _ := f.Node("m001").Info("/lib/seg"); ii.IsHome {
			break
		}
	}
	if _, ok := f.WaitConverged("/lib/seg", 60); !ok {
		t.Fatal("no convergence after auto-migration")
	}
	ii, _ := f.Node("m001").Info("/lib/seg")
	if !ii.IsHome {
		t.Fatalf("hot writer never became home: %+v", ii)
	}
	// And the forwarded content arrived.
	for _, n := range f.Nodes() {
		got := segBytes(t, n, "/lib/seg")
		if !bytes.Equal(got[0:4], []byte{1, 2, 3, 4}) {
			t.Fatalf("%s: forwarded write missing: % x", n.Name(), got[0:8])
		}
	}
}

// ---- read leases -------------------------------------------------------------

func TestLeaseExpiryCountsAndRenews(t *testing.T) {
	net := netsim.New()
	f := bootLite(t, net, Config{LeaseTicks: 8}, 2)
	home, rep := f.Node("m000"), f.Node("m001")
	if err := home.Publish("/lib/seg", []byte("leased")); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no convergence")
	}
	if ri, _ := rep.Info("/lib/seg"); ri.LeaseUntil == 0 {
		t.Fatal("replica never granted a lease")
	}

	// Partition the replica from its home: the lease runs out.
	net.Drop = func(from, to string, seq uint64) bool { return from == "m000" }
	f.Run(20)
	if _, fresh, err := rep.Read("/lib/seg", 0, 6); err != nil || !fresh {
		t.Fatalf("read: fresh=%v err=%v — an expired lease alone does not make content stale", fresh, err)
	}
	if got := f.Reg.Snapshot().Counters["netshm.lease_expired_reads"]; got == 0 {
		t.Fatal("expired-lease read not counted")
	}
	if got := f.Reg.Snapshot().Counters["netshm.stale_reads"]; got != 0 {
		t.Fatalf("stale_reads = %d — lease expiry must not masquerade as staleness", got)
	}

	// Heal: the renew round-trips and reads stop being counted.
	net.Drop = nil
	f.Run(6)
	before := f.Reg.Snapshot().Counters["netshm.lease_expired_reads"]
	if _, _, err := rep.Read("/lib/seg", 0, 6); err != nil {
		t.Fatal(err)
	}
	if got := f.Reg.Snapshot().Counters["netshm.lease_expired_reads"]; got != before {
		t.Fatalf("lease_expired_reads grew to %d after heal, want %d", got, before)
	}
	if got := f.Reg.Snapshot().Counters["netshm.lease_grants"]; got == 0 {
		t.Fatal("no lease grant recorded")
	}
}

// TestLeaseStalenessBound: under a lossy network with a steady write load,
// leases are never over-granted (LeaseUntil <= now + LeaseTicks on every
// machine at every tick) and the replication-lag histogram stays bounded
// by the quiesce window — together the lease bound a reader can reason
// with: a fresh-under-lease read heard from the home within LeaseTicks.
func TestLeaseStalenessBound(t *testing.T) {
	const leaseTicks = 16
	net := netsim.New()
	rng := rand.New(rand.NewSource(7))
	net.Drop = func(from, to string, seq uint64) bool { return rng.Intn(100) < 20 }
	f := bootLite(t, net, Config{LeaseTicks: leaseTicks}, 4)
	home := f.Node("m000")
	if err := home.Publish("/lib/seg", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	buf := []byte{0, 0, 0, 0}
	for i := 0; i < 120; i++ {
		if i%3 == 0 {
			binary.BigEndian.PutUint32(buf, uint32(i))
			if err := home.Write("/lib/seg", uint32(i%64)*8, buf); err != nil {
				t.Fatal(err)
			}
		}
		f.Tick()
		now := f.Now()
		for _, n := range f.Nodes() {
			ii, err := n.Info("/lib/seg")
			if err != nil {
				continue
			}
			if ii.LeaseUntil > now+leaseTicks {
				t.Fatalf("%s: lease until %d at tick %d — over-granted beyond %d ticks",
					n.Name(), ii.LeaseUntil, now, leaseTicks)
			}
			n.Read("/lib/seg", 0, 4) // drive the stale/lease counters
		}
	}
	net.Drop = nil
	ticks, ok := f.WaitConverged("/lib/seg", 200)
	if !ok {
		t.Fatal("no convergence after loss lifted")
	}
	h, ok := f.Reg.Snapshot().Histograms["netshm.lag_ticks:/lib/seg"]
	if !ok || h.Count == 0 {
		t.Fatal("replication-lag histogram empty")
	}
	maxLe := h.Buckets[len(h.Buckets)-1].Le
	if bound := uint64(2 * (120 + ticks)); maxLe > bound {
		t.Fatalf("replication lag bucket %d exceeds run bound %d", maxLe, bound)
	}
}

// ---- dirty-byte deltas -------------------------------------------------------

// runDeltaWorkload drives an identical seeded small-write workload in
// either replication mode and returns the fleet, for digest and wire
// inspection. A lossy run drops a seq-keyed 20% of datagrams once the
// segment is out and leaves 1 to 4 ticks after each write, so retries fire
// between writes as well as after the last.
func runDeltaWorkload(t *testing.T, fullPage, lossy bool) (*Fleet, *netsim.Network) {
	t.Helper()
	net := netsim.New()
	f := bootLite(t, net, Config{FullPage: fullPage}, 3)
	home := f.Node("m000")
	seed := make([]byte, 3*PageSize)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	if err := home.Publish("/lib/seg", seed); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 30); !ok {
		t.Fatal("no initial convergence")
	}
	ticks, budget := func(int) int { return 1 }, 60
	if lossy {
		net.Drop = seqLoss(20)
		ticks, budget = func(i int) int { return 1 + i%4 }, 200
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		off := uint32(rng.Intn(3*int(PageSize) - 16))
		n := 1 + rng.Intn(12)
		patch := make([]byte, n)
		rng.Read(patch)
		if err := home.Write("/lib/seg", off, patch); err != nil {
			t.Fatal(err)
		}
		f.Run(ticks(i))
	}
	if _, ok := f.WaitConverged("/lib/seg", budget); !ok {
		t.Fatal("no final convergence")
	}
	return f, net
}

// TestDeltaMatchesFullPage is the delta-correctness differential: the
// byte-range path must land replicas byte-identical to the full-page
// path, while shipping at least 4x fewer bytes for small writes. Under
// loss the retries run too: a replica one generation behind gets the
// update datagram again, deltas included, and must still land the same
// bytes.
func TestDeltaMatchesFullPage(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		ff, fnet := runDeltaWorkload(t, true, lossy)
		fd, dnet := runDeltaWorkload(t, false, lossy)

		var want uint64
		for i, n := range ff.Nodes() {
			dig, err := n.Digest("/lib/seg")
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = dig
			} else if dig != want {
				t.Fatalf("lossy=%v: full-page fleet diverged internally", lossy)
			}
		}
		for _, n := range fd.Nodes() {
			dig, err := n.Digest("/lib/seg")
			if err != nil {
				t.Fatal(err)
			}
			if dig != want {
				t.Fatalf("lossy=%v: %s: delta replica digest %#x != full-page %#x", lossy, n.Name(), dig, want)
			}
		}

		fullBytes := fnet.Stats().BytesSent
		deltaBytes := dnet.Stats().BytesSent
		fc, dc := ff.Reg.Snapshot().Counters, fd.Reg.Snapshot().Counters
		t.Logf("lossy=%v: full-page %d bytes, delta %d bytes; delta-mode retries %d, %d of them updates",
			lossy, fullBytes, deltaBytes, dc["netshm.retries"], dc["netshm.retry_updates"])
		if !lossy && deltaBytes*4 > fullBytes {
			t.Fatalf("deltas sent %d bytes vs %d full-page — want >= 4x reduction", deltaBytes, fullBytes)
		}
		if dc["netshm.delta_pages"] == 0 {
			t.Fatal("delta fleet pushed no delta pages")
		}
		if fc["netshm.delta_pages"] != 0 {
			t.Fatalf("full-page fleet pushed %d delta pages", fc["netshm.delta_pages"])
		}
		if lossy && (fc["netshm.retries"] == 0 || dc["netshm.retry_updates"] == 0) {
			t.Fatalf("lossy run: full-page retries %d, delta-mode update retries %d — want both > 0",
				fc["netshm.retries"], dc["netshm.retry_updates"])
		}
	}
}

// TestWatermarkCatchesMappedStores: a store that goes through the frame
// (not Node.Write) with a too-narrow MarkDirty still replicates fully —
// the dirty watermark widens the declared range.
func TestWatermarkCatchesMappedStores(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{}, 2)
	home := f.Node("m000")
	if err := home.Publish("/lib/seg", make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no convergence")
	}
	// Write through the file interface directly — as a mapped program
	// would — then declare only a 1-byte dirty range elsewhere.
	if _, err := home.Sys().FS.WriteAt("/lib/seg", 300, []byte("watermarked"), 0); err != nil {
		t.Fatal(err)
	}
	if err := home.MarkDirty("/lib/seg", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("no convergence after mapped store")
	}
	got := segBytes(t, f.Node("m001"), "/lib/seg")
	if !bytes.Equal(got[300:311], []byte("watermarked")) {
		t.Fatalf("mapped store not replicated: %q", got[300:311])
	}
}

// ---- sharded homes -----------------------------------------------------------

func TestPublishShardedSpreadsHomes(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{}, 8)
	paths := make([]string, 16)
	homes := map[string]bool{}
	for i := range paths {
		paths[i] = fmt.Sprintf("/lib/shard/s%02d", i)
		home, err := f.PublishSharded(paths[i], []byte(paths[i]))
		if err != nil {
			t.Fatal(err)
		}
		if home.Name() != f.HomeFor(paths[i]) {
			t.Fatalf("segment %s landed on %s, hash says %s", paths[i], home.Name(), f.HomeFor(paths[i]))
		}
		homes[home.Name()] = true
	}
	if len(homes) < 3 {
		t.Fatalf("16 segments hashed onto only %d homes", len(homes))
	}
	for _, p := range paths {
		if _, ok := f.WaitConverged(p, 60); !ok {
			t.Fatalf("%s never converged", p)
		}
	}
	// The same-VA invariant holds fleet-wide for every sharded segment,
	// and no two segments share a base.
	bases := map[uint32]string{}
	for _, p := range paths {
		var base uint32
		for i, n := range f.Nodes() {
			st, err := n.Sys().FS.StatPath(p)
			if err != nil {
				t.Fatalf("%s: %s: %v", n.Name(), p, err)
			}
			if i == 0 {
				base = st.Addr
			} else if st.Addr != base {
				t.Fatalf("%s: %s at %#x, fleet says %#x", n.Name(), p, st.Addr, base)
			}
		}
		if prev, clash := bases[base]; clash {
			t.Fatalf("segments %s and %s share base %#x", prev, p, base)
		}
		bases[base] = p
	}
}

// ---- fleet scale -------------------------------------------------------------

// TestFleetScaleConvergence: a large fleet under 20% loss converges on
// sharded segments. Full size is 1024 machines; -short runs 96 so the
// race detector finishes in CI time.
func TestFleetScaleConvergence(t *testing.T) {
	hosts := 1024
	writes := 6
	if testing.Short() {
		hosts = 96
	}
	net := netsim.New()
	net.Drop = func(from, to string, seq uint64) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%s|%s|%d", from, to, seq)
		return h.Sum32()%5 == 0 // deterministic 20% loss
	}
	f := NewFleet(net, Config{})
	for i := 0; i < hosts; i++ {
		f.Add(fmt.Sprintf("h%04d", i), core.NewSystemLite())
	}
	paths := []string{"/lib/fleet/a", "/lib/fleet/b", "/lib/fleet/c"}
	for _, p := range paths {
		if _, err := f.PublishSharded(p, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range paths {
		home := f.Node(f.HomeFor(p))
		for w := 0; w < writes; w++ {
			if err := home.Write(p, uint32(w*8), []byte(fmt.Sprintf("w%05d", w))); err != nil {
				t.Fatal(err)
			}
			f.Run(2)
		}
	}
	for _, p := range paths {
		if ticks, ok := f.WaitConverged(p, 400); !ok {
			t.Fatalf("%s: %d machines never converged in %d ticks under 20%% loss", p, hosts, ticks)
		}
	}
	// Byte-exact agreement, not just generation agreement.
	for _, p := range paths {
		want, err := f.Node(f.HomeFor(p)).Digest(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range f.Nodes() {
			got, err := n.Digest(p)
			if err != nil || got != want {
				t.Fatalf("%s: %s digest %#x, home says %#x (%v)", n.Name(), p, got, want, err)
			}
		}
	}
}

// ---- transactions ------------------------------------------------------------

func TestTxnLocalCommitIsAtomicAndConflicts(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{}, 3)
	home := f.Node("m000")
	if err := home.Publish("/lib/acct", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/acct", 20); !ok {
		t.Fatal("no convergence")
	}
	genBefore, _, _ := home.Gen("/lib/acct")

	// A multi-word commit spanning a page boundary lands as ONE generation.
	tx := home.Begin()
	if _, err := tx.Read("/lib/acct", PageSize-8, 16); err != nil {
		t.Fatal(err)
	}
	tx.WriteWord("/lib/acct", PageSize-8, 0xAAAAAAAA)
	tx.WriteWord("/lib/acct", PageSize+4, 0xBBBBBBBB)
	if txid, err := tx.Commit(); err != nil || txid != 0 {
		t.Fatalf("local commit: txid=%d err=%v", txid, err)
	}
	genAfter, _, _ := home.Gen("/lib/acct")
	if genAfter != genBefore+1 {
		t.Fatalf("2-page txn advanced gen by %d, want 1 (atomicity)", genAfter-genBefore)
	}
	if _, ok := f.WaitConverged("/lib/acct", 20); !ok {
		t.Fatal("txn did not converge")
	}
	for _, n := range f.Nodes() {
		got := segBytes(t, n, "/lib/acct")
		if binary.BigEndian.Uint32(got[PageSize-8:]) != 0xAAAAAAAA ||
			binary.BigEndian.Uint32(got[PageSize+4:]) != 0xBBBBBBBB {
			t.Fatalf("%s: txn words not applied together", n.Name())
		}
	}
	ti, _ := home.Info("/lib/acct")
	if ti.Tv != 1 {
		t.Fatalf("version clock = %d after one commit, want 1", ti.Tv)
	}

	// TL2 validation: a competing commit between read and commit aborts.
	t1 := home.Begin()
	if _, err := t1.Read("/lib/acct", 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := home.Write("/lib/acct", 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	t1.WriteWord("/lib/acct", 0, 1)
	if _, err := t1.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("stale txn commit: %v, want ErrTxnConflict", err)
	}
	if got := f.Reg.Snapshot().Counters["netshm.txn_aborts"]; got != 1 {
		t.Fatalf("txn_aborts = %d, want 1", got)
	}
}

func TestTxnRemoteForwardCommitAndAbort(t *testing.T) {
	net := netsim.New()
	rng := rand.New(rand.NewSource(3))
	net.Drop = func(from, to string, seq uint64) bool { return rng.Intn(100) < 20 }
	f := bootLite(t, net, Config{}, 3)
	home, writer := f.Node("m000"), f.Node("m001")
	if err := home.Publish("/lib/acct", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	lossless := func() {
		d := net.Drop
		net.Drop = nil
		f.Run(10)
		net.Drop = d
	}
	lossless()
	if _, ok := f.WaitConverged("/lib/acct", 200); !ok {
		t.Fatal("no convergence")
	}

	tx := writer.Begin()
	if _, err := tx.Read("/lib/acct", 0, 8); err != nil {
		t.Fatal(err)
	}
	tx.WriteWord("/lib/acct", 0, 0x11111111)
	tx.WriteWord("/lib/acct", 4, 0x22222222)
	txid, err := tx.Commit()
	if err != nil || txid == 0 {
		t.Fatalf("remote commit: txid=%d err=%v", txid, err)
	}
	for i := 0; i < 300 && writer.TxnStatus(txid) == TxnPending; i++ {
		f.Tick()
	}
	if st := writer.TxnStatus(txid); st != TxnCommitted {
		t.Fatalf("forwarded txn state %v, want committed", st)
	}
	lossless()
	if _, ok := f.WaitConverged("/lib/acct", 300); !ok {
		t.Fatal("forwarded txn did not converge")
	}
	got := segBytes(t, f.Node("m002"), "/lib/acct")
	if binary.BigEndian.Uint32(got) != 0x11111111 || binary.BigEndian.Uint32(got[4:]) != 0x22222222 {
		t.Fatalf("forwarded txn content: % x", got[:8])
	}

	// A forwarded commit whose read set went stale aborts at the home.
	tx2 := writer.Begin()
	if _, err := tx2.Read("/lib/acct", 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := home.Write("/lib/acct", 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	tx2.WriteWord("/lib/acct", 0, 3)
	txid2, err := tx2.Commit()
	if err != nil || txid2 == 0 {
		t.Fatalf("remote commit 2: txid=%d err=%v", txid2, err)
	}
	for i := 0; i < 300 && writer.TxnStatus(txid2) == TxnPending; i++ {
		f.Tick()
	}
	if st := writer.TxnStatus(txid2); st != TxnAborted {
		t.Fatalf("stale forwarded txn state %v, want aborted", st)
	}
}

func TestTxnCrossHomeRefused(t *testing.T) {
	f := bootLite(t, netsim.New(), Config{}, 2)
	if err := f.Node("m000").Publish("/lib/a", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	f.Run(6)
	if err := f.Node("m001").Publish("/lib/b", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	f.Run(6)
	tx := f.Node("m000").Begin()
	tx.WriteWord("/lib/a", 0, 1)
	tx.WriteWord("/lib/b", 0, 1)
	if _, err := tx.Commit(); !errors.Is(err, ErrTxnCrossHome) {
		t.Fatalf("cross-home commit: %v, want ErrTxnCrossHome", err)
	}
}

// TestTxnGuestSyscalls drives the kernel's txn_stage/txn_commit surface
// end to end: a guest process on the home machine commits atomically; a
// guest on a replica machine gets Eagain.
func TestTxnGuestSyscalls(t *testing.T) {
	f := NewFleet(netsim.New(), Config{})
	for i := 0; i < 2; i++ {
		f.Add(fmt.Sprintf("m%03d", i), core.NewSystem())
	}
	home, rep := f.Node("m000"), f.Node("m001")
	if err := home.Publish("/lib/acct", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/acct", 20); !ok {
		t.Fatal("no convergence")
	}
	home.InstallTxn()
	rep.InstallTxn()
	base, _ := home.Base("/lib/acct")

	call := func(n *Node, num, a0, a1 uint32) (uint32, uint32) {
		p := n.Sys().K.Spawn(0)
		p.CPU.Regs[isa.RegV0] = num
		p.CPU.Regs[isa.RegA0] = a0
		p.CPU.Regs[isa.RegA1] = a1
		if err := n.Sys().K.Syscall(p); err != nil {
			t.Fatalf("syscall: %v", err)
		}
		return p.CPU.Regs[isa.RegV0], p.CPU.Regs[isa.RegV1]
	}
	callOn := func(n *Node, p *kern.Process, num, a0, a1 uint32) (uint32, uint32) {
		p.CPU.Regs[isa.RegV0] = num
		p.CPU.Regs[isa.RegA0] = a0
		p.CPU.Regs[isa.RegA1] = a1
		if err := n.Sys().K.Syscall(p); err != nil {
			t.Fatalf("syscall: %v", err)
		}
		return p.CPU.Regs[isa.RegV0], p.CPU.Regs[isa.RegV1]
	}

	// Home-side guest: stage two words, commit, replicate.
	p := home.Sys().K.Spawn(0)
	if _, errc := callOn(home, p, kern.SysTxnStage, base, 0x11); errc != kern.Eok {
		t.Fatalf("stage: errno %d", errc)
	}
	if _, errc := callOn(home, p, kern.SysTxnStage, base+4, 0x22); errc != kern.Eok {
		t.Fatalf("stage: errno %d", errc)
	}
	if ret, errc := callOn(home, p, kern.SysTxnCommit, 0, 0); ret != 1 || errc != kern.Eok {
		t.Fatalf("guest commit: ret=%d errno=%d", ret, errc)
	}
	if _, ok := f.WaitConverged("/lib/acct", 20); !ok {
		t.Fatal("guest txn did not converge")
	}
	got := segBytes(t, rep, "/lib/acct")
	if binary.BigEndian.Uint32(got) != 0x11 || binary.BigEndian.Uint32(got[4:]) != 0x22 {
		t.Fatalf("guest txn content: % x", got[:8])
	}

	// Replica-side guest: the home is remote -> Eagain, nothing applied.
	p2 := rep.Sys().K.Spawn(0)
	callOn(rep, p2, kern.SysTxnStage, base, 0x99)
	if _, errc := callOn(rep, p2, kern.SysTxnCommit, 0, 0); errc != kern.Eagain {
		t.Fatalf("remote guest commit: errno %d, want Eagain", errc)
	}
	// A staged address outside any segment is refused.
	if _, errc := call(home, kern.SysTxnStage, 0x00DEAD00, 1); errc == kern.Eok {
		t.Fatal("stage outside segments succeeded")
	}
}

// TestTxnNoPartialCommitObserved: under heavy loss, at no tick does any
// machine hold a mix of pre- and post-commit marker words — the atomicity
// acceptance property, here on a single adversarial schedule (the fuzzer
// runs hundreds).
func TestTxnNoPartialCommitObserved(t *testing.T) {
	net := netsim.New()
	rng := rand.New(rand.NewSource(11))
	net.Drop = func(from, to string, seq uint64) bool { return rng.Intn(100) < 30 }
	f := bootLite(t, net, Config{}, 4)
	home := f.Node("m000")
	if err := home.Publish("/lib/mark", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	// 8 marker words spanning the page boundary.
	offs := make([]uint32, 8)
	for i := range offs {
		offs[i] = PageSize - 16 + uint32(i*4)
	}
	check := func(tick int) {
		for _, n := range f.Nodes() {
			var vals [8]uint32
			buf := make([]byte, 4)
			for i, off := range offs {
				if _, err := n.Sys().FS.ReadAt("/lib/mark", off, buf, 0); err != nil {
					return // replica not materialised yet
				}
				vals[i] = binary.BigEndian.Uint32(buf)
			}
			for i := 1; i < 8; i++ {
				if vals[i] != vals[0] {
					t.Fatalf("tick %d: %s observed partial commit: %v", tick, n.Name(), vals)
				}
			}
		}
	}
	for round := uint32(1); round <= 20; round++ {
		tx := home.Begin()
		for _, off := range offs {
			tx.WriteWord("/lib/mark", off, round)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			f.Tick()
			check(int(f.Now()))
		}
	}
	net.Drop = nil
	if _, ok := f.WaitConverged("/lib/mark", 300); !ok {
		t.Fatal("marker segment never converged")
	}
	check(int(f.Now()))
}
