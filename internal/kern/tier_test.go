package kern

// Tests for the VM's store tiers under the kernel: stores through a warm
// private D-TLB slot stay the storing process's own across Fork and
// RegisterZygote, and on an SMP scheduler a frame shared by clones never
// takes the private tier while their stacks do.

import (
	"fmt"
	"testing"

	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// tierForkSrc stores to a private data word twice, stops at a break, then
// stores a new value and exits.
const tierForkSrc = `
        .text
        la      $t0, cell
        li      $t1, 1
        sw      $t1, 0($t0)
        sw      $t1, 0($t0)
        break
        li      $t1, 2
        sw      $t1, 0($t0)
        li      $a0, 0
        li      $v0, 1
        syscall
        .data
cell:   .word   0
`

// TestPrivateSlotStoresStayOwnAcrossFork: a process stores through a warm
// private slot, then is forked or parked as a zygote template. The
// fork's generation bump must kill that slot: the parent's next sw lands
// in a page of its own and is invisible to the child and to the template
// (seen through a clone made after the store).
func TestPrivateSlotStoresStayOwnAcrossFork(t *testing.T) {
	for _, how := range []string{"fork", "zygote"} {
		t.Run(how, func(t *testing.T) {
			k := New()
			p := spawnWith(t, k, tierForkSrc)
			if ev, err := p.CPU.RunBatch(100); err != nil || ev != vm.EventBreak {
				t.Fatalf("to the break: ev=%v err=%v", ev, err)
			}
			if p.CPU.CacheStats().TLBFillPrivate == 0 {
				t.Fatal("the data stores did not take the private tier")
			}
			cell := p.CPU.Regs[8]
			var child *Process
			if how == "fork" {
				var err error
				if child, err = k.Fork(p); err != nil {
					t.Fatal(err)
				}
			} else {
				k.RegisterZygote("tier", p, nil)
			}
			if ev, err := p.CPU.RunBatch(100); err != nil || ev != vm.EventSyscall {
				t.Fatalf("to the exit: ev=%v err=%v", ev, err)
			}
			if child == nil {
				var ok bool
				if child, ok = k.CloneZygote("tier", ""); !ok {
					t.Fatal("no clone")
				}
			}
			if v, err := p.AS.LoadWord(cell); err != nil || v != 2 {
				t.Fatalf("parent's cell = %d (%v), want 2", v, err)
			}
			if v, err := child.AS.LoadWord(cell); err != nil || v != 1 {
				t.Fatalf("%s's cell = %d (%v), want the 1 stored before it", how, v, err)
			}
		})
	}
}

// tierWorkerSrc is compute-shaped: per iteration it stores to its private
// stack, atomic_adds 1 to the counter at the base of a public shared
// segment and makes four plain stores beside the counter.
func tierWorkerSrc(iters int) string {
	return fmt.Sprintf(`
        .text
        li      $v0, 14         # map_shared(path, size)
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        move    $s0, $v0
        li      $s2, %d
loop:   addiu   $sp, $sp, -8
        sw      $s2, 0($sp)
        sw      $s2, 4($sp)
        lw      $t0, 0($sp)
        addiu   $sp, $sp, 8
        li      $v0, 25         # atomic_add(counter, 1)
        move    $a0, $s0
        li      $a1, 1
        syscall
        sw      $s2, 4($s0)
        sw      $s2, 8($s0)
        sw      $s2, 12($s0)
        sw      $s2, 16($s0)
        addiu   $s2, $s2, -1
        bnez    $s2, loop
        li      $a0, 0
        li      $v0, 1
        syscall
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/counter"
`, iters)
}

// TestSMPClonesPrivateStacksSharedCounter: four zygote-cloned workers on
// a 4-CPU scheduler. Their stack stores take the private tier; the
// counter's frame, mapped by all four, never does. Every store to that
// frame bumps its version at the shared tier and each atomic_add bumps it
// at least once, so the version moves at least five times per iteration.
// Were the four plain stores private, it would move at most four times:
// once per add plus at most one failed CAS per add and other CPU. Under
// -race (CI's SMP race step) a private store there is also a data race.
func TestSMPClonesPrivateStacksSharedCounter(t *testing.T) {
	const workers = 4
	iters := 400
	if testing.Short() {
		iters = 100
	}
	k := New()
	if _, err := k.FS.Create("/counter", shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	frames, _, err := k.FS.Frames("/counter", 4096, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]
	ver := f.Version()

	k.RegisterZygote("worker", spawnWith(t, k, tierWorkerSrc(iters)), nil)
	var ps []*Process
	for i := 0; i < workers; i++ {
		p, ok := k.CloneZygote("worker", "")
		if !ok {
			t.Fatal("no clone")
		}
		ps = append(ps, p)
	}
	s := NewScheduler(k, SchedConfig{CPUs: workers, Quantum: 2000})
	defer s.Stop()
	if err := s.RunAll(ps, 50_000_000); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.ExitCode != 0 {
			t.Fatalf("pid %d exit %d", p.PID, p.ExitCode)
		}
	}
	var buf [4]byte
	if _, err := k.FS.ReadAt("/counter", 0, buf[:], 0); err != nil {
		t.Fatal(err)
	}
	got := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	if want := uint32(workers * iters); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if n := k.Obs.R.Counter("vm.tlb_fill_private").Value(); n == 0 {
		t.Fatal("vm.tlb_fill_private = 0: the stack stores never took the private tier")
	}
	if moved, want := f.Version()-ver, uint64(5*workers*iters); moved < want {
		t.Fatalf("the counter's frame moved %d versions, want at least %d: stores to it took the private tier", moved, want)
	}
}
