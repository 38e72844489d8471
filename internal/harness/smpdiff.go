package harness

import (
	"flag"
	"fmt"
	"math/rand"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/kern"
	"hemlock/internal/layout"
	"hemlock/internal/linker"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// The SMP differential harness is the proof obligation behind true SMP:
// for workloads whose final shared state is schedule-INDEPENDENT by
// construction (locked counters, a bounded SPSC ring, a self-resolving
// code patch), every legal interleaving must quiesce in the same state.
// Each workload runs three ways on fresh kernels —
//
//	ref:  one scheduler CPU (the pre-SMP world, still preemptive),
//	free: N host goroutines racing for real,
//	det:  the seeded single-goroutine interleaver (SchedConfig.Det),
//
// and the harness demands identical exit codes plus a bit-identical
// vm.StateHash over the shared segments at quiesce. The free run proves
// the host-atomic guest memory protocol under the race detector; the det
// runs sweep many adversarial preemption points reproducibly. A failure
// names both seeds: -harness.seed replays the workload sweep, -smp.det
// pins the single deterministic schedule that diverged.
var smpDetSeed = flag.Int64("smp.det", 0,
	"replay only this deterministic SMP schedule seed (0 = full sweep)")

// buildSMPImage assembles one self-contained guest program at the
// standard text base.
func buildSMPImage(name, src string) (*objfile.Image, error) {
	o, err := isa.Assemble(name+".s", src)
	if err != nil {
		return nil, err
	}
	p, err := linker.Place(o, layout.TextBase)
	if err != nil {
		return nil, err
	}
	img := p.Image()
	pending, err := p.RelocateInternal(&linker.BytesPatcher{Base: layout.TextBase, B: img})
	if err != nil {
		return nil, err
	}
	if len(pending) != 0 {
		return nil, fmt.Errorf("unresolved refs: %v", pending)
	}
	dataOff := p.DataAddr() - p.Base
	return &objfile.Image{
		Name:     name,
		Entry:    layout.TextBase,
		TextBase: layout.TextBase,
		Text:     img[:dataOff],
		DataBase: layout.TextBase + dataOff,
		Data:     img[dataOff:],
		BssBase:  layout.TextBase + uint32(len(img)),
		BssSize:  p.Size() - uint32(len(img)),
	}, nil
}

// smpWorkload is one generated guest workload. prepare creates the shared
// files on a fresh kernel and returns the per-process assembly (it runs
// once per scheduler mode, so every mode sees an identical initial
// machine); verify checks the workload's own invariant on the quiesced
// shared state, independent of the cross-mode hash comparison.
type smpWorkload struct {
	name    string
	paths   []string // shared files hashed at quiesce
	exits   []int    // expected exit code per process
	budget  uint64
	prepare func(k *kern.Kernel) ([]string, error)
	verify  func(k *kern.Kernel) error
}

// readWord fetches a big-endian word from a shared file.
func readWord(k *kern.Kernel, path string, off uint32) (uint32, error) {
	return k.FS.LoadWordAt(path, off, 0)
}

// createSeg creates an empty shared file (and its directory) for a
// workload segment.
func createSeg(k *kern.Kernel, path string) error {
	if err := k.FS.MkdirAll("/smp", shmfs.DefaultDirMode, 0); err != nil {
		return err
	}
	_, err := k.FS.Create(path, shmfs.DefaultFileMode, 0)
	return err
}

// genSMPWorkload draws one workload from the three families.
func genSMPWorkload(rng *rand.Rand) *smpWorkload {
	switch rng.Intn(3) {
	case 0:
		return genSpinCounters(rng)
	case 1:
		return genProdCons(rng)
	default:
		return genPatchRace(rng)
	}
}

// genSpinCounters: W workers contend for one guest TAS lock and bump a
// shared counter with plain loads and stores inside the critical section.
// Any lost update shifts the exact final count (and the quiesce hash).
func genSpinCounters(rng *rand.Rand) *smpWorkload {
	workers := 2 + rng.Intn(3)
	iters := 10 + rng.Intn(40)
	src := fmt.Sprintf(`
        .text
        li      $v0, 14         # map_shared(path, size)
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        move    $s0, $v0        # lock at base+0
        addiu   $s1, $v0, 4     # counter at base+4
        li      $s2, %d
again:
        li      $v0, 23         # tas(lock)
        move    $a0, $s0
        syscall
        bnez    $v0, again
        lw      $t0, 0($s1)
        addiu   $t0, $t0, 1
        sw      $t0, 0($s1)
        li      $v0, 24         # atomic_store(lock, 0): release
        move    $a0, $s0
        li      $a1, 0
        syscall
        addiu   $s2, $s2, -1
        bnez    $s2, again
        li      $a0, 0
        li      $v0, 1
        syscall
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/smp/seg"
`, iters)
	wl := &smpWorkload{
		name:   fmt.Sprintf("spin-w%d-i%d", workers, iters),
		paths:  []string{"/smp/seg"},
		budget: 100_000_000,
		prepare: func(k *kern.Kernel) ([]string, error) {
			if err := createSeg(k, "/smp/seg"); err != nil {
				return nil, err
			}
			srcs := make([]string, workers)
			for i := range srcs {
				srcs[i] = src
			}
			return srcs, nil
		},
		verify: func(k *kern.Kernel) error {
			got, err := readWord(k, "/smp/seg", 4)
			if err != nil {
				return err
			}
			if want := uint32(workers * iters); got != want {
				return fmt.Errorf("counter = %d, want %d (lost updates)", got, want)
			}
			return nil
		},
	}
	wl.exits = make([]int, workers)
	return wl
}

// genProdCons: a single-producer single-consumer ring in a shared
// segment. head (base+0) and tail (base+4) advance with plain word
// stores — every guest word access is host-atomic and sequentially
// consistent, so the slot write is visible before the index that
// publishes it. The consumer folds the N values into a sum at base+8;
// the ring residue, indices and sum are all schedule-independent.
func genProdCons(rng *rand.Rand) *smpWorkload {
	n := 8 * (1 + rng.Intn(5)) // 8..40 items
	producer := fmt.Sprintf(`
        .text
        li      $v0, 14
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        move    $s0, $v0
        li      $s1, 1          # next value
        li      $s2, %d         # remaining
pwait:  lw      $t0, 0($s0)     # head
        lw      $t1, 4($s0)     # tail
        subu    $t2, $t0, $t1
        sltiu   $t2, $t2, 8     # room in the 8-slot ring?
        beqz    $t2, pwait
        andi    $t3, $t0, 7
        sll     $t3, $t3, 2
        addiu   $t3, $t3, 16
        addu    $t3, $s0, $t3
        sw      $s1, 0($t3)     # ring[head & 7] = value
        addiu   $t0, $t0, 1
        sw      $t0, 0($s0)     # publish: head++
        addiu   $s1, $s1, 1
        addiu   $s2, $s2, -1
        bnez    $s2, pwait
        li      $a0, 0
        li      $v0, 1
        syscall
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/smp/ring"
`, n)
	consumer := fmt.Sprintf(`
        .text
        li      $v0, 14
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        move    $s0, $v0
        li      $s2, %d
        li      $s3, 0          # sum
cwait:  lw      $t0, 0($s0)     # head
        lw      $t1, 4($s0)     # tail
        beq     $t0, $t1, cwait # empty
        andi    $t3, $t1, 7
        sll     $t3, $t3, 2
        addiu   $t3, $t3, 16
        addu    $t3, $s0, $t3
        lw      $t4, 0($t3)
        addu    $s3, $s3, $t4
        addiu   $t1, $t1, 1
        sw      $t1, 4($s0)     # consume: tail++
        addiu   $s2, $s2, -1
        bnez    $s2, cwait
        sw      $s3, 8($s0)     # publish the sum
        li      $a0, 0
        li      $v0, 1
        syscall
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/smp/ring"
`, n)
	return &smpWorkload{
		name:   fmt.Sprintf("prodcons-n%d", n),
		paths:  []string{"/smp/ring"},
		exits:  []int{0, 0},
		budget: 100_000_000,
		prepare: func(k *kern.Kernel) ([]string, error) {
			if err := createSeg(k, "/smp/ring"); err != nil {
				return nil, err
			}
			return []string{producer, consumer}, nil
		},
		verify: func(k *kern.Kernel) error {
			sum, err := readWord(k, "/smp/ring", 8)
			if err != nil {
				return err
			}
			head, _ := readWord(k, "/smp/ring", 0)
			tail, _ := readWord(k, "/smp/ring", 4)
			if want := uint32(n * (n + 1) / 2); sum != want {
				return fmt.Errorf("sum = %d, want %d", sum, want)
			}
			if head != uint32(n) || tail != uint32(n) {
				return fmt.Errorf("head/tail = %d/%d, want %d/%d", head, tail, n, n)
			}
			return nil
		},
	}
}

// genPatchRace: the cross-CPU code-patch family. A runner jumps into a
// shared RWX file and spins in a two-instruction loop; a patcher process
// delays a seeded number of steps, then overwrites the loop's jump with a
// jump to a HALT — the exact store a sibling CPU's lazy linker makes when
// it patches a PLT slot in a public module. The runner only survives its
// budget if the patched word (and the block invalidation behind it)
// reaches its CPU; the quiesced text is the patched text in every mode.
func genPatchRace(rng *rand.Rand) *smpWorkload {
	delay := 50 + rng.Intn(2000)
	runner := `
        .text
        li      $v0, 14
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        addiu   $t0, $v0, 256   # victim loop at base+0x100
        jr      $t0
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/smp/text"
`
	return &smpWorkload{
		name:   fmt.Sprintf("patch-d%d", delay),
		paths:  []string{"/smp/text"},
		exits:  []int{0, 0},
		budget: 100_000_000,
		prepare: func(k *kern.Kernel) ([]string, error) {
			if err := createSeg(k, "/smp/text"); err != nil {
				return nil, err
			}
			_, st, err := k.FS.Frames("/smp/text", mem.PageSize, 0, true)
			if err != nil {
				return nil, err
			}
			victim := st.Addr + 0x100
			escape := st.Addr + 0x200
			words := map[uint32]uint32{
				victim:     isa.EncodeI(isa.OpADDIU, 10, 10, 1), // addiu t2, t2, 1
				victim + 4: isa.EncodeJ(isa.OpJ, victim),        // j victim (spin)
				escape:     isa.EncodeI(isa.OpHALT, 0, 0, 0),
			}
			for addr, w := range words {
				if err := k.FS.StoreWordAt("/smp/text", addr-st.Addr, w, 0); err != nil {
					return nil, err
				}
			}
			patcher := fmt.Sprintf(`
        .text
        li      $v0, 14
        la      $a0, path
        li      $a1, 4096
        syscall
        bnez    $v1, fail
        move    $s0, $v0
        li      $t0, %d
dly:    addiu   $t0, $t0, -1
        bnez    $t0, dly
        li      $t8, %d         # j escape, pre-encoded by the harness
        sw      $t8, 260($s0)   # patch victim+4
        li      $a0, 0
        li      $v0, 1
        syscall
fail:   li      $a0, 255
        li      $v0, 1
        syscall
        .data
path:   .asciiz "/smp/text"
`, delay, int64(isa.EncodeJ(isa.OpJ, escape)))
			return []string{runner, patcher}, nil
		},
		verify: func(k *kern.Kernel) error {
			_, st, err := k.FS.Frames("/smp/text", mem.PageSize, 0, false)
			if err != nil {
				return err
			}
			got, err := readWord(k, "/smp/text", 0x104)
			if err != nil {
				return err
			}
			if want := isa.EncodeJ(isa.OpJ, st.Addr+0x200); got != want {
				return fmt.Errorf("victim word = %08x, want patched %08x", got, want)
			}
			return nil
		},
	}
}

// smpResult is one scheduler mode's observable outcome.
type smpResult struct {
	exits []int
	hash  uint64
}

// runSMPMode executes wl on a fresh kernel under cfg and returns the exit
// codes plus the quiesce hash: a never-run observer process maps every
// shared segment read-only and vm.StateHash folds the mapped pages, so
// the hash covers exactly the shared bytes the modes must agree on.
func runSMPMode(s *Scenario, wl *smpWorkload, cfg kern.SchedConfig, label string) (smpResult, bool) {
	k := kern.New()
	srcs, err := wl.prepare(k)
	if err != nil {
		s.Failf("%s [%s]: prepare: %v", wl.name, label, err)
		return smpResult{}, false
	}
	var ps []*kern.Process
	for i, src := range srcs {
		im, err := buildSMPImage(fmt.Sprintf("%s-p%d", wl.name, i), src)
		if err != nil {
			s.Failf("%s [%s]: build p%d: %v", wl.name, label, i, err)
			return smpResult{}, false
		}
		p := k.Spawn(0)
		if err := p.Exec(im); err != nil {
			s.Failf("%s [%s]: exec p%d: %v", wl.name, label, i, err)
			return smpResult{}, false
		}
		ps = append(ps, p)
	}
	sch := kern.NewScheduler(k, cfg)
	defer sch.Stop()
	if err := sch.RunAll(ps, wl.budget); err != nil {
		s.Failf("%s [%s]: run: %v", wl.name, label, err)
		return smpResult{}, false
	}
	res := smpResult{}
	for _, p := range ps {
		res.exits = append(res.exits, p.ExitCode)
	}
	if err := wl.verify(k); err != nil {
		s.Failf("%s [%s]: invariant: %v", wl.name, label, err)
		return smpResult{}, false
	}
	obs := k.Spawn(0)
	for _, path := range wl.paths {
		if _, err := k.MapSharedFile(obs, path, mem.PageSize, addrspace.ProtRead); err != nil {
			s.Failf("%s [%s]: observe %s: %v", wl.name, label, path, err)
			return smpResult{}, false
		}
	}
	res.hash = vm.StateHash(obs.CPU)
	return res, true
}

func equalExits(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SMPDiffOne generates the workload for wlSeed and runs the three-way
// comparison: 1-CPU reference, N-CPU free-running, and nSched seeded
// deterministic schedules, all of which must quiesce with the reference
// run's exit codes and shared-state hash. Counters land in the scenario
// registry under harness.smpdiff.*.
func SMPDiffOne(s *Scenario, wlSeed int64, nSched int) {
	ctrWl := s.Reg.Counter("harness.smpdiff.workloads")
	ctrSched := s.Reg.Counter("harness.smpdiff.schedules")
	ctrDiv := s.Reg.Counter("harness.smpdiff.divergences")

	rng := rand.New(rand.NewSource(wlSeed))
	wl := genSMPWorkload(rng)
	cpus := 2 + rng.Intn(3) // 2..4 host CPUs in the free-running run
	quantum := uint64(200 + rng.Intn(1300))
	ctrWl.Inc()

	ref, ok := runSMPMode(s, wl, kern.SchedConfig{CPUs: 1, Quantum: quantum}, "ref-1cpu")
	if !ok {
		return
	}
	ctrSched.Inc()
	if !equalExits(ref.exits, wl.exits) {
		ctrDiv.Inc()
		s.Failf("workload seed=%d %s: reference exit codes %v, want %v",
			wlSeed, wl.name, ref.exits, wl.exits)
		return
	}

	free, ok := runSMPMode(s, wl, kern.SchedConfig{CPUs: cpus, Quantum: quantum},
		fmt.Sprintf("free-%dcpu", cpus))
	if !ok {
		return
	}
	ctrSched.Inc()
	if !equalExits(free.exits, ref.exits) || free.hash != ref.hash {
		ctrDiv.Inc()
		s.Failf("workload seed=%d %s: free-running %d-CPU diverged: exits %v/%v hash %016x/%016x",
			wlSeed, wl.name, cpus, free.exits, ref.exits, free.hash, ref.hash)
		return
	}

	schedSeeds := make([]int64, 0, nSched)
	if *smpDetSeed != 0 {
		schedSeeds = append(schedSeeds, *smpDetSeed)
	} else {
		for i := 0; i < nSched; i++ {
			schedSeeds = append(schedSeeds, rng.Int63())
		}
	}
	for _, seed := range schedSeeds {
		det, ok := runSMPMode(s, wl, kern.SchedConfig{Det: true, Seed: seed, Quantum: quantum},
			fmt.Sprintf("det-%d", seed))
		if !ok {
			return
		}
		ctrSched.Inc()
		if !equalExits(det.exits, ref.exits) || det.hash != ref.hash {
			ctrDiv.Inc()
			s.Failf("workload seed=%d %s: det schedule diverged: exits %v/%v hash %016x/%016x (replay: -harness.seed=%d -smp.det=%d)",
				wlSeed, wl.name, det.exits, ref.exits, det.hash, ref.hash, s.Seed(), seed)
			return
		}
	}
}
