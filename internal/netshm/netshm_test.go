package netshm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/netsim"
	"hemlock/internal/shmfs"
)

// boot builds a fleet of n fresh machines named m0..m(n-1).
func boot(t testing.TB, net *netsim.Network, n int) *Fleet {
	t.Helper()
	f := NewFleet(net, Config{})
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("m%d", i), core.NewSystem())
	}
	return f
}

// segBytes reads the whole segment file off one machine.
func segBytes(t testing.TB, n *Node, path string) []byte {
	t.Helper()
	st, err := n.Sys().FS.StatPath(path)
	if err != nil {
		t.Fatalf("%s: stat %s: %v", n.Name(), path, err)
	}
	buf := make([]byte, st.Size)
	if _, err := n.Sys().FS.ReadAt(path, 0, buf, 0); err != nil {
		t.Fatalf("%s: read %s: %v", n.Name(), path, err)
	}
	return buf
}

func TestPublishReplicatesEverywhere(t *testing.T) {
	f := boot(t, netsim.New(), 3)
	home := f.Node("m0")

	content := bytes.Repeat([]byte("hemlock!"), 700) // 5600 B: two pages
	if err := home.Publish("/lib/seg", content); err != nil {
		t.Fatal(err)
	}
	ticks, ok := f.WaitConverged("/lib/seg", 10)
	if !ok {
		t.Fatalf("no convergence in %d ticks on a lossless LAN", ticks)
	}

	base, _ := home.Base("/lib/seg")
	for _, n := range f.Nodes() {
		if got := segBytes(t, n, "/lib/seg"); !bytes.Equal(got, content) {
			t.Fatalf("%s: replica content differs", n.Name())
		}
		// The Hemlock invariant: same path, same inode slot, same
		// virtual address on every machine.
		st, err := n.Sys().FS.StatPath("/lib/seg")
		if err != nil || st.Addr != base {
			t.Fatalf("%s: segment at 0x%08x, home says 0x%08x (%v)", n.Name(), st.Addr, base, err)
		}
		if p, off, err := n.Sys().FS.AddrToPath(base + 4100); err != nil || p != "/lib/seg" || off != 4100 {
			t.Fatalf("%s: AddrToPath: %q %d %v", n.Name(), p, off, err)
		}
	}

	// An in-place write replicates only the touched page.
	applied := f.Reg.Snapshot().Counters["netshm.updates_applied"]
	if err := home.Write("/lib/seg", 4200, []byte("patched")); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 10); !ok {
		t.Fatal("write did not converge")
	}
	for _, n := range f.Nodes()[1:] {
		got := segBytes(t, n, "/lib/seg")
		if !bytes.Equal(got[4200:4207], []byte("patched")) {
			t.Fatalf("%s: write not applied", n.Name())
		}
	}
	if got := f.Reg.Snapshot().Counters["netshm.updates_applied"]; got != applied+2 {
		t.Fatalf("one-page write applied %d updates, want 2", got-applied)
	}
}

func TestWriteOnReplicaRefused(t *testing.T) {
	f := boot(t, netsim.New(), 2)
	if err := f.Node("m0").Publish("/lib/seg", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.Run(4)
	if err := f.Node("m1").Write("/lib/seg", 0, []byte("y")); !errors.Is(err, ErrNotHome) {
		t.Fatalf("replica write: %v, want ErrNotHome", err)
	}
	if err := f.Node("m1").MarkDirty("/lib/seg", 0, 1); !errors.Is(err, ErrNotHome) {
		t.Fatalf("replica MarkDirty: %v, want ErrNotHome", err)
	}
	if _, _, err := f.Node("m1").Read("/nope", 0, 1); !errors.Is(err, ErrUnknownSeg) {
		t.Fatalf("unknown read: %v, want ErrUnknownSeg", err)
	}
}

func TestServeAttachPreBootedMachines(t *testing.T) {
	// Identically-booted machines already hold the file (the rwho shape):
	// Serve/Attach register it without any bulk transfer.
	f := boot(t, netsim.New(), 2)
	for _, n := range f.Nodes() {
		fs := n.Sys().FS
		if err := fs.MkdirAll("/lib", shmfs.DefaultDirMode, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create("/lib/tab", shmfs.DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt("/lib/tab", 0, make([]byte, 256), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Node("m0").Serve("/lib/tab"); err != nil {
		t.Fatal(err)
	}
	if err := f.Node("m1").Attach("/lib/tab", "m0"); err != nil {
		t.Fatal(err)
	}
	if err := f.Node("m0").Write("/lib/tab", 10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/tab", 10); !ok {
		t.Fatal("no convergence")
	}
	if got := segBytes(t, f.Node("m1"), "/lib/tab"); !bytes.Equal(got[10:15], []byte("hello")) {
		t.Fatal("write not applied on attached replica")
	}
}

// TestConvergenceUnderLoss is the acceptance test: 8 machines on a LAN
// dropping a deterministic 20% of datagrams, a multi-write workload, and
// a bounded virtual-clock deadline for every replica to reach the
// writer's generation. The retry and anti-entropy machinery must show up
// in the metrics snapshot.
func TestConvergenceUnderLoss(t *testing.T) {
	net := netsim.New()
	net.Drop = func(from, to string, seq uint64) bool { return seq%5 == 0 } // exactly 20%
	f := boot(t, net, 8)
	home := f.Node("m0")

	content := bytes.Repeat([]byte{0xEE}, 3*PageSize)
	if err := home.Publish("/lib/seg", content); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := home.Write("/lib/seg", uint32(i)*997, []byte(fmt.Sprintf("w%02d", i))); err != nil {
			t.Fatal(err)
		}
		f.Run(2)
	}
	ticks, ok := f.WaitConverged("/lib/seg", 300)
	if !ok {
		t.Fatalf("fleet did not converge within 300 ticks (20%% loss)")
	}
	t.Logf("converged after %d extra ticks at gen %d", ticks, mustGen(t, home, "/lib/seg"))

	want := segBytes(t, home, "/lib/seg")
	for _, n := range f.Nodes()[1:] {
		if got := segBytes(t, n, "/lib/seg"); !bytes.Equal(got, want) {
			t.Fatalf("%s: content diverged after convergence", n.Name())
		}
	}

	s := f.Reg.Snapshot()
	if s.Counters["netsim.dropped"] == 0 {
		t.Fatal("loss model never fired; test proves nothing")
	}
	if s.Counters["netshm.retries"] == 0 {
		t.Fatal("converged without retries under 20% loss — timers dead?")
	}
	if s.Counters["netshm.updates_applied"] == 0 || s.Counters["netshm.acks_recv"] == 0 {
		t.Fatalf("protocol counters silent: %v", s.Counters)
	}
}

func mustGen(t testing.TB, n *Node, path string) uint64 {
	t.Helper()
	g, _, err := n.Gen(path)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLateJoinHealsByAntiEntropy boots a 9th machine into an established
// fleet: it has never seen the segment, learns of it from the periodic
// announce, materialises the file at the home's exact inode slot, and
// pulls itself current.
func TestLateJoinHealsByAntiEntropy(t *testing.T) {
	net := netsim.New()
	net.Drop = func(from, to string, seq uint64) bool { return seq%5 == 0 }
	f := boot(t, net, 8)
	home := f.Node("m0")

	content := bytes.Repeat([]byte{7}, 2*PageSize+100)
	if err := home.Publish("/lib/seg", content); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.WaitConverged("/lib/seg", 300); !ok {
		t.Fatal("initial fleet did not converge")
	}

	late := f.Add("m8", core.NewSystem())
	ticks, ok := f.WaitConverged("/lib/seg", 300)
	if !ok {
		t.Fatal("late joiner never converged")
	}
	t.Logf("late joiner caught up in %d ticks", ticks)

	if got := segBytes(t, late, "/lib/seg"); !bytes.Equal(got, content) {
		t.Fatal("late joiner content differs")
	}
	base, _ := home.Base("/lib/seg")
	st, err := late.Sys().FS.StatPath("/lib/seg")
	if err != nil || st.Addr != base {
		t.Fatalf("late joiner segment at 0x%08x, want 0x%08x (%v)", st.Addr, base, err)
	}
	if rounds := f.Reg.Snapshot().Counters["netshm.anti_entropy_rounds"]; rounds == 0 {
		t.Fatal("late join healed without an anti-entropy round?")
	}
}

// TestStaleReadTriggersPull drops one update so the replica detects a
// generation gap; a Read then reports staleness, counts it, and starts
// the pull that heals it.
func TestStaleReadTriggersPull(t *testing.T) {
	net := netsim.New()
	net.Drop = func(from, to string, seq uint64) bool { return seq == 2 }
	f := boot(t, net, 2)
	home, rep := f.Node("m0"), f.Node("m1")

	if err := home.Publish("/lib/seg", []byte("v1")); err != nil { // seq 1
		t.Fatal(err)
	}
	if err := home.Write("/lib/seg", 0, []byte("v2")); err != nil { // seq 2: dropped
		t.Fatal(err)
	}
	if err := home.Write("/lib/seg", 0, []byte("v3")); err != nil { // seq 3: gap at replica
		t.Fatal(err)
	}
	f.Tick() // replica sees gen 3 after gen 1: gap; acks 1

	got, fresh, err := rep.Read("/lib/seg", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("read reported fresh despite a known generation gap")
	}
	if string(got) != "v1" {
		t.Fatalf("stale read returned %q, want the old local content", got)
	}
	if _, ok := f.WaitConverged("/lib/seg", 20); !ok {
		t.Fatal("pull did not heal the gap")
	}
	if got, fresh, _ := rep.Read("/lib/seg", 0, 2); !fresh || string(got) != "v3" {
		t.Fatalf("after heal: %q fresh=%v", got, fresh)
	}
	s := f.Reg.Snapshot()
	if s.Counters["netshm.stale_reads"] != 1 {
		t.Fatalf("stale_reads = %d, want 1", s.Counters["netshm.stale_reads"])
	}
	if s.Counters["netshm.anti_entropy_rounds"] == 0 {
		t.Fatal("no anti-entropy round recorded")
	}
}

func TestSendAppRoundTrip(t *testing.T) {
	f := boot(t, netsim.New(), 2)
	var mu sync.Mutex
	var got []string
	f.Node("m0").OnApp(func(from string, payload []byte) {
		mu.Lock()
		got = append(got, from+":"+string(payload))
		mu.Unlock()
	})
	if err := f.Node("m1").SendApp("m0", []byte("status")); err != nil {
		t.Fatal(err)
	}
	f.Tick()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "m1:status" {
		t.Fatalf("app payloads = %v", got)
	}
}

// TestConcurrentReadersDuringTicks drives the protocol while other
// goroutines read replicas, forward writes and commit transactions — the
// lock discipline this exercises is what the -race run in CI checks. The
// forwards and commits encode into the node's send buffer, which Step's
// own sends share.
func TestConcurrentReadersDuringTicks(t *testing.T) {
	net := netsim.New()
	net.Drop = func(from, to string, seq uint64) bool { return seq%5 == 0 }
	f := boot(t, net, 4)
	home := f.Node("m0")
	if err := home.Publish("/lib/seg", make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}

	const writesEach = 200
	stop := make(chan struct{})
	var wg, writing sync.WaitGroup
	for i, n := range f.Nodes()[1:] {
		wg.Add(1)
		writing.Add(1)
		go func(n *Node, off uint32) {
			defer wg.Done()
			for writes := 0; ; {
				select {
				case <-stop:
					return
				default:
					n.Read("/lib/seg", 0, 64)
					n.Gen("/lib/seg")
					if writes == writesEach {
						continue
					}
					// Until the publish reaches it, a replica does not
					// know the segment.
					err := n.WriteAny("/lib/seg", off, []byte{byte(writes)})
					if errors.Is(err, ErrUnknownSeg) {
						continue
					}
					if err != nil {
						t.Errorf("%s: WriteAny: %v", n.Name(), err)
					}
					writes++
					tx := n.Begin()
					tx.WriteWord("/lib/seg", 128+off*4, uint32(writes))
					if _, err := tx.Commit(); err != nil && !errors.Is(err, ErrMigrating) {
						t.Errorf("%s: Commit: %v", n.Name(), err)
					}
					if writes == writesEach {
						writing.Done()
					}
				}
			}
		}(n, uint32(64+i))
	}
	written := make(chan struct{})
	go func() {
		writing.Wait()
		close(written)
	}()
	// With one CPU, or a loaded machine, the writers may first run after
	// many ticks, so the fleet ticks until every writer is done and a
	// forwarded commit has been applied, not for a fixed count.
	commits := f.Reg.Counter("netshm.txn_commits")
	done := func() bool {
		select {
		case <-written:
			return commits.Value() > 0
		default:
			return false
		}
	}
	const maxTicks = 100000
	ticks := 0
	for ; ticks < maxTicks && (ticks < 30 || !done()); ticks++ {
		home.Write("/lib/seg", uint32(ticks%PageSize), []byte{byte(ticks)})
		f.Tick()
	}
	close(stop)
	wg.Wait()
	if !done() {
		t.Fatalf("writers not done and committed after %d ticks", maxTicks)
	}
	if c := f.Reg.Snapshot().Counters; c["netshm.write_fwd"] == 0 || c["netshm.txn_commits"] == 0 {
		t.Fatalf("no forwarded write or commit ran during the ticks: %v", c)
	}
	if _, ok := f.WaitConverged("/lib/seg", 300); !ok {
		t.Fatal("no convergence")
	}
}
