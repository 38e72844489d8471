package kern

import (
	"fmt"
	"strings"
	"testing"

	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// countdownSrc is a small compute loop: count $t0 down from n, exit(code).
func countdownSrc(n int, code int) string {
	return fmt.Sprintf(`
        .text
        li      $t0, %d
loop:   addiu   $t0, $t0, -1
        bnez    $t0, loop
        li      $a0, %d
        li      $v0, 1
        syscall
`, n, code)
}

func spawnWith(t *testing.T, k *Kernel, src string) *Process {
	t.Helper()
	p := k.Spawn(0)
	if err := p.Exec(buildImage(t, src)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSchedulerRunsManyProcesses: more runnable processes than CPUs, every
// one runs to completion with its own exit code.
func TestSchedulerRunsManyProcesses(t *testing.T) {
	k := New()
	s := NewScheduler(k, SchedConfig{CPUs: 3, Quantum: 1000})
	defer s.Stop()
	var ps []*Process
	for i := 0; i < 9; i++ {
		ps = append(ps, spawnWith(t, k, countdownSrc(20_000+i*1000, 40+i)))
	}
	if err := s.RunAll(ps, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if !p.Exited || p.ExitCode != 40+i {
			t.Fatalf("process %d: exited=%v code=%d, want 40+%d", i, p.Exited, p.ExitCode, i)
		}
	}
}

// TestSchedulerStealAndPark: an idle CPU must take queued work from a busy
// sibling rather than sleep through it, and idle CPUs park rather than
// spin.
func TestSchedulerStealAndPark(t *testing.T) {
	k := New()
	s := NewScheduler(k, SchedConfig{CPUs: 2, Quantum: 1000})
	// Submit assigns home CPUs round-robin: the two long tasks land on CPU
	// 0, the trivial one on CPU 1. CPU 1 finishes immediately and the only
	// way the long tasks can overlap is a steal.
	long1 := spawnWith(t, k, countdownSrc(200_000, 1))
	tiny := spawnWith(t, k, countdownSrc(10, 2))
	long2 := spawnWith(t, k, countdownSrc(200_000, 3))
	if err := s.RunAll([]*Process{long1, tiny, long2}, 2_000_000); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	snap := k.Obs.R.Snapshot()
	if snap.Counters["kern.cpu_steals"] == 0 {
		t.Fatalf("no steals: %+v", snap.Counters)
	}
	if snap.Counters["kern.cpu_parks"] == 0 {
		t.Fatalf("no parks: %+v", snap.Counters)
	}
	if got := snap.Counters["kern.cpu_steps"]; got < 600_000 {
		t.Fatalf("kern.cpu_steps = %d, want >= 600000", got)
	}
}

// TestSchedulerCPUsAreTheCallers: the CPU count is what the caller
// passes, and nothing else. A config that names none runs one CPU, even
// with HEMLOCK_CPUS (the variable an earlier default read) set, and runs
// its task to completion.
func TestSchedulerCPUsAreTheCallers(t *testing.T) {
	t.Setenv("HEMLOCK_CPUS", "3")
	k := New()
	s := NewScheduler(k, SchedConfig{})
	defer s.Stop()
	var cpus []string
	for name := range k.Obs.R.Snapshot().Gauges {
		if strings.HasPrefix(name, "kern.cpu") && strings.HasSuffix(name, "_steps") {
			cpus = append(cpus, name)
		}
	}
	if len(cpus) != 1 || cpus[0] != "kern.cpu0_steps" {
		t.Fatalf("per-CPU gauges %v, want only kern.cpu0_steps", cpus)
	}
	p := spawnWith(t, k, countdownSrc(1000, 7))
	if _, err := s.Submit(p, 100_000).Wait(); err != nil || !p.Exited || p.ExitCode != 7 {
		t.Fatalf("task: exited=%v code=%d err=%v, want exit 7", p.Exited, p.ExitCode, err)
	}
}

// TestSchedulerDeterministicReplay: the det-mode schedule is a pure
// function of the seed — same seed, same interleaving, bit-identical final
// states; and whatever the seed, a schedule-independent workload converges
// to the same state.
func TestSchedulerDeterministicReplay(t *testing.T) {
	run := func(seed int64) (hashes []uint64, steps []uint64) {
		k := New()
		s := NewScheduler(k, SchedConfig{Det: true, Seed: seed, Quantum: 500})
		defer s.Stop()
		var ps []*Process
		var tasks []*Task
		for i := 0; i < 4; i++ {
			p := spawnWith(t, k, countdownSrc(5_000+i*777, i+1))
			ps = append(ps, p)
			tasks = append(tasks, s.Submit(p, 1_000_000))
		}
		for i, tk := range tasks {
			n, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, n)
			hashes = append(hashes, vm.StateHash(ps[i].CPU))
		}
		return hashes, steps
	}
	h1, s1 := run(42)
	h2, s2 := run(42)
	h3, _ := run(7)
	for i := range h1 {
		if h1[i] != h2[i] || s1[i] != s2[i] {
			t.Fatalf("seed 42 not reproducible: task %d hash %x/%x steps %d/%d", i, h1[i], h2[i], s1[i], s2[i])
		}
		if h1[i] != h3[i] {
			t.Fatalf("schedule-independent workload diverged across seeds: task %d %x vs %x", i, h1[i], h3[i])
		}
	}
}

// spinWorkerSrc is the torture workload: acquire a TAS spin lock in a
// public shared segment, bump the shared counter with PLAIN loads and
// stores (the lock's host-atomic acquire/release is what makes that safe),
// release, repeat iters times.
func spinWorkerSrc(iters int) string {
	return fmt.Sprintf(`
        .text
        li      $v0, 14         # map_shared(path, size)
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        move    $s0, $v0        # lock word at base+0
        addiu   $s1, $v0, 4     # counter at base+4
        li      $s2, %d
again:
        li      $v0, 23         # tas(lock)
        move    $a0, $s0
        syscall
        bnez    $v0, again      # lock was held; spin
        lw      $t0, 0($s1)     # critical section: plain rmw
        addiu   $t0, $t0, 1
        sw      $t0, 0($s1)
        li      $v0, 24         # atomic_store(lock, 0): release
        move    $a0, $s0
        li      $a1, 0
        syscall
        addiu   $s2, $s2, -1
        bnez    $s2, again
        li      $a0, 0
        li      $v0, 1          # exit(0)
        syscall
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/spinlock"
`, iters)
}

// TestSpinLockTorture: 8 guest CPUs hammer one test-and-set lock guarding
// a shared counter. Every update must survive — the exact final count
// proves no lost updates, and -race proves the guest lock gives the host
// the happens-before edges it needs.
func TestSpinLockTorture(t *testing.T) {
	const workers = 8
	iters := 400
	if testing.Short() {
		iters = 60
	}
	k := New()
	if _, err := k.FS.Create("/spinlock", shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(k, SchedConfig{CPUs: workers, Quantum: 2000})
	defer s.Stop()
	var ps []*Process
	for i := 0; i < workers; i++ {
		ps = append(ps, spawnWith(t, k, spinWorkerSrc(iters)))
	}
	if err := s.RunAll(ps, 200_000_000); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.ExitCode != 0 {
			t.Fatalf("pid %d exit %d", p.PID, p.ExitCode)
		}
	}
	var buf [4]byte
	if _, err := k.FS.ReadAt("/spinlock", 4, buf[:], 0); err != nil {
		t.Fatal(err)
	}
	got := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])
	if want := uint32(workers * iters); got != want {
		t.Fatalf("shared counter = %d, want %d (lost updates)", got, want)
	}
}
