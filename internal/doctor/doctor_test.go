package doctor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/netshm"
	"hemlock/internal/netsim"
	"hemlock/internal/objfile"
	"hemlock/internal/server"
	"hemlock/internal/shalloc"
	"hemlock/internal/shmfs"
)

func findingsOf(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

func TestHealthyWorldIsClean(t *testing.T) {
	sys := core.NewSystem()
	if _, err := server.InstallDemo(sys); err != nil {
		t.Fatal(err)
	}
	fs := CheckSystem(sys, Options{})
	if len(fs) != 0 {
		t.Fatalf("healthy world has findings:\n%s", Render(fs))
	}
}

func TestInodeExhaustion(t *testing.T) {
	sys := core.NewSystem()
	if err := sys.FS.MkdirAll("/spool", shmfs.DefaultDirMode, 0); err != nil {
		t.Fatal(err)
	}
	next := 0
	mk := func(n int) {
		t.Helper()
		for sys.FS.InodesInUse() < n {
			if _, err := sys.FS.Create(fmt.Sprintf("/spool/f%04d", next), shmfs.DefaultFileMode, 0); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	mk(shmfs.NumInodes * 85 / 100)
	fs := findingsOf(CheckSystem(sys, Options{}), "inode-slots")
	if len(fs) != 1 || fs[0].Severity != Warn {
		t.Fatalf("at 85%% fill: %v", fs)
	}
	mk(shmfs.NumInodes * 96 / 100)
	fs = findingsOf(CheckSystem(sys, Options{}), "inode-slots")
	if len(fs) != 1 || fs[0].Severity != Critical {
		t.Fatalf("at 96%% fill: %v", fs)
	}
}

// TestSlotExhausted is the acceptance case: a deliberately slot-exhausted
// image — one segment grown to the full 1 MB slot — must be flagged.
func TestSlotExhausted(t *testing.T) {
	sys := core.NewSystem()
	if _, err := sys.FS.Create("/fat", shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.FS.Truncate("/fat", shmfs.MaxFile, 0); err != nil {
		t.Fatal(err)
	}
	fs := findingsOf(CheckSystem(sys, Options{}), "slot-fill")
	if len(fs) != 1 || fs[0].Severity != Critical || fs[0].Subject != "/fat" {
		t.Fatalf("slot-fill findings: %v", fs)
	}
	if !strings.Contains(fs[0].Detail, "exhausted") {
		t.Fatalf("detail: %s", fs[0].Detail)
	}
}

// rwMem is a writable file-backed Mem for planting heaps in tests.
type rwMem struct {
	fs   *shmfs.FS
	path string
	base uint32
}

func (m rwMem) LoadWord(addr uint32) (uint32, error) {
	var b [4]byte
	n, err := m.fs.ReadAt(m.path, addr-m.base, b[:], 0)
	if err != nil {
		return 0, err
	}
	if n < 4 {
		return 0, fmt.Errorf("short read at 0x%08x", addr)
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

func (m rwMem) StoreWord(addr, val uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], val)
	_, err := m.fs.WriteAt(m.path, addr-m.base, b[:], 0)
	return err
}

func plantHeap(t *testing.T, sys *core.System, path string, size uint32) (*shalloc.Heap, rwMem) {
	t.Helper()
	if err := sys.FS.MkdirAll("/seg", shmfs.DefaultDirMode, 0); err != nil {
		t.Fatal(err)
	}
	st, err := sys.FS.Create(path, shmfs.DefaultFileMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FS.Truncate(path, size, 0); err != nil {
		t.Fatal(err)
	}
	m := rwMem{fs: sys.FS, path: path, base: st.Addr}
	h, err := shalloc.Init(m, st.Addr, size)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

func TestShallocExhaustionAndCorruption(t *testing.T) {
	sys := core.NewSystem()
	h, _ := plantHeap(t, sys, "/seg/full", 4096)
	// Allocate until the heap is exhausted: well past the warn threshold.
	n := 0
	for ; n < 64; n++ {
		if _, err := h.Alloc(256); err != nil {
			break
		}
	}
	if n == 0 || n == 64 {
		t.Fatalf("allocated %d blocks from a 4 KiB heap", n)
	}
	fs := findingsOf(CheckSystem(sys, Options{}), "shalloc")
	if len(fs) != 1 || fs[0].Severity != Warn || fs[0].Subject != "/seg/full" {
		t.Fatalf("exhaustion findings: %v", fs)
	}

	// A corrupt free list is critical.
	_, m := plantHeap(t, sys, "/seg/bad", 4096)
	st, err := sys.FS.StatPath("/seg/bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreWord(st.Addr+8, 0x12345678); err != nil { // free-list head -> garbage
		t.Fatal(err)
	}
	fs = findingsOf(CheckSystem(sys, Options{}), "shalloc")
	var bad []Finding
	for _, f := range fs {
		if f.Subject == "/seg/bad" {
			bad = append(bad, f)
		}
	}
	if len(bad) == 0 || Worst(bad) != Critical {
		t.Fatalf("corruption findings: %v", fs)
	}
}

func TestImageChecks(t *testing.T) {
	sys := core.NewSystem()
	if _, err := server.InstallDemo(sys); err != nil {
		t.Fatal(err)
	}
	// Healthy demo image: no findings (its retained relocs are satisfied
	// by the kv module along its search path).
	if fs := CheckSystem(sys, Options{}); len(fs) != 0 {
		t.Fatalf("demo image findings:\n%s", Render(fs))
	}

	// Delete the module template: the image's lazy references now have no
	// provider anywhere on the search path.
	if err := sys.FS.Unlink("/lib/kv.o", 0); err != nil {
		t.Fatal(err)
	}
	fs := findingsOf(CheckSystem(sys, Options{}), "relocs")
	if len(fs) == 0 || Worst(fs) != Critical {
		t.Fatalf("missing-module findings: %v", fs)
	}
	for _, f := range fs {
		if f.Subject != server.DemoExe {
			t.Fatalf("finding subject %q, want %q", f.Subject, server.DemoExe)
		}
	}
}

// TestInstanceLayoutMismatch: a public module instance whose size is not
// what its template lays out to (here a 20-byte instance in the contiguous
// layout of earlier linkers, where the template now lays out to 4100) is
// critical, through the same check the next cold link would fail.
func TestInstanceLayoutMismatch(t *testing.T) {
	sys := core.NewSystem()
	if _, err := server.InstallDemo(sys); err != nil {
		t.Fatal(err)
	}
	im, err := sys.LoadExecutable(server.DemoExe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Launch(im, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A correctly laid-out instance (the kv module ldl just created) and
	// an executable next to its own template are both clean.
	if fs := CheckSystem(sys, Options{}); len(fs) != 0 {
		t.Fatalf("demo world with its kv instance has findings:\n%s", Render(fs))
	}
	lib, err := sys.Asm("/lib/lib.o", `
        .text
        .globl  get
get:    la      $t0, val
        lw      $v0, 0($t0)
        jr      $ra
        .data
        .globl  val
val:    .word   42
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FS.Create("/lib/lib", shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FS.WriteAt("/lib/lib", 0, append(append([]byte(nil), lib.Text...), lib.Data...), 0); err != nil {
		t.Fatal(err)
	}
	fs := findingsOf(CheckSystem(sys, Options{}), "instance-layout")
	if len(fs) != 1 || fs[0].Severity != Critical || fs[0].Subject != "/lib/lib" {
		t.Fatalf("instance-layout findings: %v, want one critical finding for /lib/lib", fs)
	}
	if !strings.Contains(fs[0].Detail, "/lib/lib is 20 bytes but /lib/lib.o lays out to 4100") {
		t.Fatalf("detail %q does not name both sizes", fs[0].Detail)
	}
}

func TestAddrWindowConflict(t *testing.T) {
	sys := core.NewSystem()
	// Two programs, each statically binding its own public module. Doctor
	// must be quiet while the windows agree.
	mod := `
        .text
        .globl  pub_fn%d
pub_fn%d: jr    $ra
`
	main := `
        .text
        .globl  main
        .extern pub_fn%d
main:   move    $s1, $ra
        jal     pub_fn%d
        move    $ra, $s1
        li      $v0, 0
        jr      $ra
`
	for i := 0; i < 2; i++ {
		if _, err := sys.Asm(fmt.Sprintf("/lib/pub%d.o", i), fmt.Sprintf(mod, i, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Asm(fmt.Sprintf("/bin/main%d.o", i), fmt.Sprintf(main, i, i)); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Link(&lds.Options{
			Output: fmt.Sprintf("app%d", i),
			Modules: []lds.Input{
				{Name: fmt.Sprintf("main%d.o", i), Class: objfile.StaticPrivate},
				{Name: fmt.Sprintf("pub%d.o", i), Class: objfile.StaticPublic},
			},
			LinkDir:     "/bin",
			DefaultPath: []string{"/lib"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SaveExecutable(fmt.Sprintf("/bin/app%d", i), res.Image); err != nil {
			t.Fatal(err)
		}
	}
	if fs := findingsOf(CheckSystem(sys, Options{}), "addr-window"); len(fs) != 0 {
		t.Fatalf("agreeing windows flagged: %v", fs)
	}

	// Destroy and recreate one instance so it lands at a different inode —
	// the image's recorded window now disagrees with the file system.
	st, err := sys.FS.StatPath("/lib/pub0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FS.Unlink("/lib/pub0", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FS.CreateAt("/lib/pub0", st.Ino+7, shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	fs := findingsOf(CheckSystem(sys, Options{}), "addr-window")
	if len(fs) != 1 || fs[0].Severity != Critical {
		t.Fatalf("moved-window findings: %v", fs)
	}
}

// TestFleetStaleAndDiverged is the acceptance case for the fleet checks: a
// deliberately stale replica (an update lost on the wire, the gap known
// from the home's announce) and a deliberately diverged one (bytes
// corrupted at an agreed generation) are both flagged.
func TestFleetStaleAndDiverged(t *testing.T) {
	net := netsim.New()
	fl := netshm.NewFleet(net, netshm.Config{AnnounceTicks: 1, RetryTicks: 4, RetryMax: 1})
	home := fl.Add("home", core.NewSystem())
	replica := fl.Add("replica", core.NewSystem())
	_ = replica

	if err := home.Publish("/shared/db", []byte("generation one")); err != nil {
		t.Fatal(err)
	}
	if _, ok := fl.WaitConverged("/shared/db", 64); !ok {
		t.Fatal("fleet did not converge")
	}
	if fs := CheckFleet(fl, Options{}); len(fs) != 0 {
		t.Fatalf("converged fleet has findings:\n%s", Render(fs))
	}

	// Lose the next update on the wire (Write sends its sync synchronously,
	// so arming Drop just around it loses exactly that datagram); the
	// home's next announce then tells the replica it is behind, and before
	// the pull machinery heals it the doctor sees a stale replica.
	drop := true
	net.Drop = func(from, to string, seq uint64) bool { return drop && from == "home" && to == "replica" }
	if err := home.Write("/shared/db", 0, []byte("generation two")); err != nil {
		t.Fatal(err)
	}
	drop = false
	stale := false
	for i := 0; i < 32 && !stale; i++ {
		fl.Tick()
		si, err := fl.Node("replica").Info("/shared/db")
		if err != nil {
			t.Fatal(err)
		}
		stale = si.Stale()
	}
	if !stale {
		t.Fatal("replica never learned it was stale")
	}
	fs := findingsOf(CheckFleet(fl, Options{}), "replica-stale")
	if len(fs) != 1 || fs[0].Subject != "replica:/shared/db" {
		t.Fatalf("stale findings: %v", fs)
	}

	// Heal the fleet, then corrupt the replica's bytes behind the
	// protocol's back: generations agree, content does not — critical.
	drop = false
	if _, ok := fl.WaitConverged("/shared/db", 256); !ok {
		t.Fatal("fleet did not re-converge")
	}
	if fs := CheckFleet(fl, Options{}); len(fs) != 0 {
		t.Fatalf("healed fleet has findings:\n%s", Render(fs))
	}
	if _, err := fl.Node("replica").Sys().FS.WriteAt("/shared/db", 0, []byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	fs = findingsOf(CheckFleet(fl, Options{}), "replica-diverged")
	if len(fs) != 1 || fs[0].Severity != Critical || fs[0].Subject != "replica:/shared/db" {
		t.Fatalf("diverged findings: %v", fs)
	}
}

// TestFleetMigrationFreezeAndHeal wire-drops a home-migration offer: the
// doctor flags the frozen home while the offer retries (writes refused),
// and reports a clean fleet again after the home gives up, bumps past the
// abandoned epoch, and the fleet re-converges.
func TestFleetMigrationFreezeAndHeal(t *testing.T) {
	net := netsim.New()
	fl := netshm.NewFleet(net, netshm.Config{AnnounceTicks: 2, RetryTicks: 4, RetryMax: 2})
	m0 := fl.Add("m0", core.NewSystem())
	m1 := fl.Add("m1", core.NewSystem())
	if err := m0.Publish("/shared/db", []byte("fleet-scale content")); err != nil {
		t.Fatal(err)
	}
	if _, ok := fl.WaitConverged("/shared/db", 64); !ok {
		t.Fatal("fleet did not converge")
	}

	// Drop everything addressed to the migration target: the offer (and
	// its retries) die on the wire, so the home stays frozen.
	drop := true
	net.Drop = func(from, to string, seq uint64) bool { return drop && to == "m1" }
	if err := m0.MigrateTo("/shared/db", "m1"); err != nil {
		t.Fatal(err)
	}
	fs := findingsOf(CheckFleet(fl, Options{}), "home-frozen")
	if len(fs) != 1 || fs[0].Severity != Warn || fs[0].Subject != "m0:/shared/db" {
		t.Fatalf("frozen findings: %v", fs)
	}
	if err := m0.Write("/shared/db", 0, []byte("x")); !errors.Is(err, netshm.ErrMigrating) {
		t.Fatalf("write during migration: %v, want ErrMigrating", err)
	}
	_ = m1

	// The offer retries exhaust and the home aborts, resuming authority.
	aborted := false
	for i := 0; i < 128 && !aborted; i++ {
		fl.Tick()
		si, err := m0.Info("/shared/db")
		if err != nil {
			t.Fatal(err)
		}
		aborted = !si.Migrating
	}
	if !aborted {
		t.Fatal("migration never aborted")
	}
	if si, _ := m0.Info("/shared/db"); !si.IsHome {
		t.Fatal("home did not resume authority after abort")
	}
	drop = false
	if _, ok := fl.WaitConverged("/shared/db", 256); !ok {
		t.Fatal("fleet did not re-converge after abort")
	}
	if fs := CheckFleet(fl, Options{}); len(fs) != 0 {
		t.Fatalf("healed fleet has findings:\n%s", Render(fs))
	}
}

// TestFleetLeaseSkewAndOrphanChecks drives the remaining fleet checks: a
// replica serving reads past its lease against drifted bytes, a skewed
// transactional version clock at an agreed generation, and a segment no
// machine claims the home role for.
func TestFleetLeaseSkewAndOrphanChecks(t *testing.T) {
	net := netsim.New()
	fl := netshm.NewFleet(net, netshm.Config{AnnounceTicks: 2, RetryTicks: 4, RetryMax: 2, LeaseTicks: 16})
	m0 := fl.Add("m0", core.NewSystem())
	m1 := fl.Add("m1", core.NewSystem())
	if err := m0.Publish("/shared/db", []byte("generation one")); err != nil {
		t.Fatal(err)
	}
	if _, ok := fl.WaitConverged("/shared/db", 64); !ok {
		t.Fatal("fleet did not converge")
	}
	if si, _ := m1.Info("/shared/db"); si.LeaseUntil == 0 {
		t.Fatal("replica never granted a read lease")
	}

	// Partition the replica, mutate at the home, and let the replica's
	// lease run out: it keeps answering reads it can no longer vouch for.
	drop := true
	net.Drop = func(from, to string, seq uint64) bool { return drop && to == "m1" }
	if err := m0.Write("/shared/db", 0, []byte("generation two")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		fl.Tick()
	}
	fs := findingsOf(CheckFleet(fl, Options{}), "lease-stale")
	if len(fs) != 1 || fs[0].Severity != Warn || fs[0].Subject != "m1:/shared/db" {
		t.Fatalf("lease findings: %v", fs)
	}

	// Heal, then skew the replica's version clock at the agreed
	// generation: transactions validated there would be unsound.
	drop = false
	if _, ok := fl.WaitConverged("/shared/db", 256); !ok {
		t.Fatal("fleet did not re-converge")
	}
	if fs := CheckFleet(fl, Options{}); len(fs) != 0 {
		t.Fatalf("healed fleet has findings:\n%s", Render(fs))
	}
	if err := m1.SkewClock("/shared/db", 5); err != nil {
		t.Fatal(err)
	}
	fs = findingsOf(CheckFleet(fl, Options{}), "txn-clock-diverged")
	if len(fs) != 1 || fs[0].Severity != Critical || fs[0].Subject != "m1:/shared/db" {
		t.Fatalf("clock findings: %v", fs)
	}
	if err := m1.SkewClock("/shared/db", -5); err != nil {
		t.Fatal(err)
	}
	if fs := CheckFleet(fl, Options{}); len(fs) != 0 {
		t.Fatalf("unskewed fleet has findings:\n%s", Render(fs))
	}

	// Finally, the home crashes and restarts without its role: nobody can
	// ever accept a write for the segment again.
	if err := m0.DropHomeRole("/shared/db"); err != nil {
		t.Fatal(err)
	}
	fs = findingsOf(CheckFleet(fl, Options{}), "home-orphaned")
	if len(fs) != 1 || fs[0].Severity != Critical || fs[0].Subject != "/shared/db" {
		t.Fatalf("orphan findings: %v", fs)
	}
}
