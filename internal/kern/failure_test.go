package kern

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hemlock/internal/addrspace"
	"hemlock/internal/layout"
	"hemlock/internal/mem"
	"hemlock/internal/shmfs"
)

// newTinyKernel boots a kernel whose physical memory is capped, for
// out-of-memory injection.
func newTinyKernel(t *testing.T, frames int) *Kernel {
	t.Helper()
	phys := mem.NewPhysical(frames)
	fs, err := shmfs.New(phys)
	if err != nil {
		t.Fatal(err)
	}
	return NewWithFS(fs, phys)
}

func TestExecFailsCleanlyWhenOutOfMemory(t *testing.T) {
	k := newTinyKernel(t, 2) // far too small for image + eager stack
	p := k.Spawn(0)
	im := buildImage(t, ".text\n halt\n")
	err := p.Exec(im)
	if err == nil || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("exec under memory pressure: %v", err)
	}
	// The failed exec must not leak live frames beyond what it mapped
	// before failing; exiting reclaims everything.
	p.Exit(1)
	if st := k.Phys.Stats(); st.Live != 0 {
		t.Fatalf("leaked %d frames after failed exec + exit", st.Live)
	}
}

func TestSharedFileGrowthFailsUnderMemoryPressure(t *testing.T) {
	k := newTinyKernel(t, 4)
	k.FS.Create("/seg", shmfs.DefaultFileMode, 0)
	p := k.Spawn(0)
	_, err := k.MapSharedFile(p, "/seg", 64*mem.PageSize, addrspace.ProtRW)
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("map under memory pressure: %v", err)
	}
}

func TestFaultRetryLimit(t *testing.T) {
	// A handler that claims success without resolving anything must not
	// hang the kernel.
	k := New()
	p := k.Spawn(0)
	calls := 0
	p.Runtime = &testRuntime{fault: func(pr *Process, f *addrspace.Fault) error {
		calls++
		return nil // "handled", but nothing changed
	}}
	err := p.StoreWord(0x30000000, 1)
	if err == nil || !strings.Contains(err.Error(), "retry limit") {
		t.Fatalf("no-progress handler: %v", err)
	}
	if calls != maxFaultRetries {
		t.Fatalf("handler called %d times, want %d", calls, maxFaultRetries)
	}
}

// TestRunNoProgressFaultFails: the run loop bounds a handler that claims
// success without resolving anything, as host accesses do: the run ends
// with an error naming the pid and the faulting pc.
func TestRunNoProgressFaultFails(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	calls := 0
	p.UserHandler = func(pr *Process, f *addrspace.Fault) error {
		calls++
		return nil // "handled", but nothing changed
	}
	im := buildImageSyms(t, `
        .text
        .globl  main
main:   li      $t0, 0x30000000
        .globl  load
load:   lw      $t1, 0($t0)
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	load, _ := im.Lookup("load")
	done := make(chan error, 1)
	go func() {
		_, err := k.Run(p, 1000)
		done <- err
	}()
	select {
	case err := <-done:
		want := fmt.Sprintf("pid %d at pc 0x%08x", p.PID, load)
		if err == nil || !strings.Contains(err.Error(), "retry limit") || !strings.Contains(err.Error(), want) {
			t.Fatalf("no-progress handler: %v, want the retry limit at %s", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run with a no-progress fault handler still going after 10 s")
	}
	if calls != maxFaultRetries {
		t.Fatalf("handler called %d times, want %d", calls, maxFaultRetries)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	boom := errors.New("handler exploded")
	p.Runtime = &testRuntime{fault: func(pr *Process, f *addrspace.Fault) error { return boom }}
	if err := p.StoreWord(0x30000000, 1); !errors.Is(err, boom) {
		t.Fatalf("handler error lost: %v", err)
	}
}

func TestExitReclaimsEverything(t *testing.T) {
	// Soak: spawn/exec/run/exit repeatedly; live frames must return to
	// exactly the file-backed frames.
	k := New()
	k.FS.Create("/pub", shmfs.DefaultFileMode, 0)
	k.FS.Truncate("/pub", 3*mem.PageSize, 0)
	fileFrames := k.Phys.Stats().Live
	im := buildImage(t, ".text\n li $t0, 1\n halt\n")
	for i := 0; i < 10; i++ {
		p := k.Spawn(0)
		if err := p.Exec(im); err != nil {
			t.Fatal(err)
		}
		if _, err := k.MapSharedFile(p, "/pub", 0, addrspace.ProtRW); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(p, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if st := k.Phys.Stats(); st.Live != fileFrames {
		t.Fatalf("live frames = %d after all exits, want %d (shared file only)", st.Live, fileFrames)
	}
}

func TestForkUnderMemoryPressure(t *testing.T) {
	// Fork is copy-on-write: it shares the parent's frames, so it cannot
	// fail for lack of memory up front. Pressure surfaces at store time
	// instead — once the pool drains, resolving a page's private copy
	// fails and the store faults.
	k := newTinyKernel(t, 70)
	parent := k.Spawn(0)
	im := buildImage(t, ".text\n halt\n")
	if err := parent.Exec(im); err != nil {
		t.Fatalf("parent exec: %v", err)
	}
	// A sizeable private heap region: fork shares it CoW, and the child's
	// stores below each need a fresh frame for the private copy.
	const heapPages = 40
	heapBase := layout.PrivDataBase + 0x100000
	if err := parent.AS.MapAnon(heapBase, heapPages*mem.PageSize, addrspace.ProtRW); err != nil {
		t.Fatalf("map heap: %v", err)
	}
	child, err := k.Fork(parent)
	if err != nil {
		t.Fatalf("CoW fork under pressure: %v", err)
	}
	faulted := false
	for addr := heapBase; addr < heapBase+heapPages*mem.PageSize; addr += mem.PageSize {
		if err := child.AS.StoreWord(addr, 1); err != nil {
			f, ok := addrspace.IsFault(err)
			if !ok || f.Unmapped || f.Access != addrspace.AccessWrite {
				t.Fatalf("unexpected store error: %v", err)
			}
			faulted = true
			break
		}
	}
	if !faulted {
		t.Fatal("expected a store to fault once the frame pool drained")
	}
}

func TestSbrkLimit(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	p.brk = layout.PrivDataLimit - mem.PageSize
	if _, err := p.Sbrk(10 * mem.PageSize); err == nil {
		t.Fatal("sbrk past region limit succeeded")
	}
}

func TestPrivateRegionExhaustion(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	// Burn through the private module region with one huge allocation.
	if _, err := p.AllocPrivate(layout.PrivDataLimit); err == nil {
		t.Fatal("oversized private allocation succeeded")
	}
}
