package kern

import (
	"fmt"
	"testing"
)

// zygoteTestImage increments a counter in bss, writes to the stack, and
// exits with the counter value — enough to prove clones are isolated.
const zygoteTestSrc = `
.text
	li $t0, 41
	addiu $t0, $t0, 1
	li $v0, 1
	move $a0, $t0
	syscall
`

// hasZygote reports whether a template is registered under key.
func hasZygote(k *Kernel, key uint64) bool {
	for _, z := range k.Zygotes() {
		if z.Key == fmt.Sprintf("%016x", key) {
			return true
		}
	}
	return false
}

func TestZygoteCloneMatchesColdLaunch(t *testing.T) {
	k := New()
	im := buildImage(t, zygoteTestSrc)

	// Cold launch, parked at entry (not yet run): register as template.
	cold := k.Spawn(7)
	if err := cold.Exec(im); err != nil {
		t.Fatal(err)
	}
	cold.Setenv("HOME", "/")
	k.RegisterZygote(0xabc, cold, nil)
	if !hasZygote(k, 0xabc) {
		t.Fatal("template not registered")
	}

	// The cold process still runs to completion.
	if _, err := k.Run(cold, 1000); err != nil {
		t.Fatal(err)
	}
	if !cold.Exited || cold.ExitCode != 42 {
		t.Fatalf("cold: exited=%v code=%d", cold.Exited, cold.ExitCode)
	}

	// Clones run the same program from the same snapshot, independently.
	for i := 0; i < 3; i++ {
		c, ok := k.CloneZygote(0xabc, "")
		if !ok {
			t.Fatal("clone failed")
		}
		if c.UID != 7 || c.Getenv("HOME") != "/" {
			t.Fatalf("clone identity: uid=%d env=%q", c.UID, c.Getenv("HOME"))
		}
		if _, err := k.Run(c, 1000); err != nil {
			t.Fatal(err)
		}
		if !c.Exited || c.ExitCode != 42 {
			t.Fatalf("clone %d: exited=%v code=%d", i, c.Exited, c.ExitCode)
		}
	}
	zs := k.Zygotes()
	if len(zs) != 1 || zs[0].Key != "0000000000000abc" || zs[0].Clones != 3 {
		t.Fatalf("registry stats: %+v", zs)
	}
}

func TestZygotePIDSequenceMatchesColdWorld(t *testing.T) {
	// Templates must not consume PIDs from the normal sequence: a world
	// that registers zygotes hands out exactly the same PIDs as one that
	// launches everything cold (guests can call getpid).
	k := New()
	im := buildImage(t, zygoteTestSrc)
	p1 := k.Spawn(0)
	if err := p1.Exec(im); err != nil {
		t.Fatal(err)
	}
	k.RegisterZygote(1, p1, nil)
	p2, ok := k.CloneZygote(1, "")
	if !ok {
		t.Fatal("clone failed")
	}
	if p2.PID != p1.PID+1 {
		t.Fatalf("clone PID = %d, want %d (template must not burn a PID)", p2.PID, p1.PID+1)
	}
	if p2.PPID != 0 {
		t.Fatalf("clone PPID = %d, want 0", p2.PPID)
	}
	// The hidden template is not in the process table.
	for _, p := range k.Processes() {
		if p.PID >= zygotePIDBase {
			t.Fatalf("template PID %d leaked into the process table", p.PID)
		}
	}
}

func TestZygoteDropReleasesFrames(t *testing.T) {
	k := New()
	im := buildImage(t, zygoteTestSrc)
	base := k.Phys.Stats().Live
	p := k.Spawn(0)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	k.RegisterZygote(1, p, nil)
	if _, err := k.Run(p, 1000); err != nil { // cold proc exits, releases its AS
		t.Fatal(err)
	}
	if !hasZygote(k, 1) {
		t.Fatal("missing template")
	}
	k.DropZygote(1)
	if hasZygote(k, 1) {
		t.Fatal("template survived drop")
	}
	if live := k.Phys.Stats().Live; live != base {
		t.Fatalf("live frames = %d after drop, want %d", live, base)
	}
	// Idempotent.
	k.DropZygote(1)
	k.DropAllZygotes()
}

func TestZygoteCapacityEviction(t *testing.T) {
	k := New()
	im := buildImage(t, zygoteTestSrc)
	p := k.Spawn(0)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxZygotes+5; i++ {
		k.RegisterZygote(uint64(i), p, nil)
	}
	if n := len(k.Zygotes()); n != MaxZygotes {
		t.Fatalf("registry size = %d, want %d", n, MaxZygotes)
	}
	// Oldest evicted.
	if hasZygote(k, 0) {
		t.Fatal("oldest template should have been evicted")
	}
}

func TestZygoteCloneStackIsolation(t *testing.T) {
	// A clone's stack writes must not leak into the template (or siblings):
	// the CoW pages resolve privately.
	k := New()
	im := buildImage(t, zygoteTestSrc)
	p := k.Spawn(0)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	k.RegisterZygote(1, p, nil)
	c1, _ := k.CloneZygote(1, "")
	c2, _ := k.CloneZygote(1, "")
	sp := c1.CPU.Regs[29] - 64
	if err := c1.AS.StoreWord(sp, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if w, err := c2.AS.LoadWord(sp); err != nil || w != 0 {
		t.Fatalf("sibling saw %08x (err %v), want 0", w, err)
	}
	if w, err := p.AS.LoadWord(sp); err != nil || w != 0 {
		t.Fatalf("cold parent saw %08x (err %v), want 0", w, err)
	}
}

// TestZygoteManifestMismatchDrops: a template whose manifest no longer
// fingerprints as recorded, because a module was rewritten or removed, is
// dropped at the next clone, which misses.
func TestZygoteManifestMismatchDrops(t *testing.T) {
	k := New()
	im := buildImage(t, zygoteTestSrc)
	if err := k.FS.WriteFile("/m.o", []byte("one"), 0o644, 0); err != nil {
		t.Fatal(err)
	}
	cv, err := k.FS.ContentVersion("/m.o")
	if err != nil {
		t.Fatal(err)
	}
	p := k.Spawn(0)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	k.RegisterZygote(1, p, []ZygoteDep{{Path: "/m.o", CV: cv}})
	if _, ok := k.CloneZygote(1, ""); !ok {
		t.Fatal("clone of an unchanged template missed")
	}
	if err := k.FS.WriteFile("/m.o", []byte("two"), 0o644, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.CloneZygote(1, ""); ok {
		t.Fatal("clone of a changed template hit")
	}
	if hasZygote(k, 1) {
		t.Fatal("stale template still registered")
	}
	// A template that is gone drops its zygote too.
	cv, _ = k.FS.ContentVersion("/m.o")
	k.RegisterZygote(1, p, []ZygoteDep{{Path: "/m.o", CV: cv}})
	if err := k.FS.Unlink("/m.o", 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.CloneZygote(1, ""); ok || hasZygote(k, 1) {
		t.Fatal("template of a removed module still cloned or registered")
	}
	if n := k.Obs.R.Snapshot().Counters["kern.zygote_invalidate"]; n != 2 {
		t.Fatalf("kern.zygote_invalidate = %d, want 2", n)
	}
}
