package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/kern"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
)

// The compute workload: each op zygote-launches four workers of one
// program and runs them to exit on a 2-CPU scheduler. Workers store
// mostly to a private stack array; once per outer pass each adds its
// partial sum into a global in its own .data, which lds lays out on the
// page that holds its code.
const (
	computeWorkers  = 4
	computeCPUs     = 2
	computeWords    = 64 // stack array
	computePasses   = 40 // outer passes per worker
	computeWarm     = 200
	computeMaxSteps = 10_000_000
	computeDispatch = 200 // traced run: solo Kernel.Run samples
)

const computeCounterSrc = `
        .data
        .globl  cmp_counter
cmp_counter: .word 0
`

// computeWorkerSrc: fill the stack array with seed + 3i, then for each
// pass add (64 - i) to word i, sum the words, and fold the sum into
// wk_acc; finally atomic_add(&cmp_counter, 1) and return wk_acc.
const computeWorkerSrc = `
        .text
        .globl  main
        .extern cmp_counter
main:   addiu   $sp, $sp, -%[1]d
        move    $t0, $sp
        li      $t1, %[2]d
        li      $t2, %[3]d
init:   sw      $t2, 0($t0)
        addiu   $t2, $t2, 3
        addiu   $t0, $t0, 4
        addiu   $t1, $t1, -1
        bnez    $t1, init
        li      $s0, %[4]d
outer:  move    $t0, $sp
        li      $t1, %[2]d
        li      $s1, 0
inner:  lw      $t2, 0($t0)
        addu    $t2, $t2, $t1
        sw      $t2, 0($t0)
        addu    $s1, $s1, $t2
        addiu   $t0, $t0, 4
        addiu   $t1, $t1, -1
        bnez    $t1, inner
        la      $t3, wk_acc
        lw      $t4, 0($t3)
        addu    $t4, $t4, $s1
        sw      $t4, 0($t3)
        addiu   $s0, $s0, -1
        bnez    $s0, outer
        la      $a0, cmp_counter
        li      $a1, 1
        li      $v0, 25
        syscall
        la      $t3, wk_acc
        lw      $v0, 0($t3)
        addiu   $sp, $sp, %[1]d
        jr      $ra

        .data
wk_acc: .word   0
`

// computeChecksum is what every worker must return for a given seed word.
func computeChecksum(seedWord uint32) uint32 {
	var a [computeWords]uint32
	for i := range a {
		a[i] = seedWord + 3*uint32(i)
	}
	var acc uint32
	for p := 0; p < computePasses; p++ {
		var sum uint32
		for i := range a {
			a[i] += uint32(computeWords - i)
			sum += a[i]
		}
		acc += sum
	}
	return acc
}

type computeBench struct {
	sys   *core.System
	sch   *kern.Scheduler
	im    *objfile.Image
	want  int
	ps    [computeWorkers]*kern.Process
	codes [computeWorkers]int
	runs  int // worker runs, each one atomic_add on cmp_counter
}

func setupCompute(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	seedWord := uint32(rng.Intn(1 << 20))
	b := &computeBench{sys: core.NewSystem(), want: int(computeChecksum(seedWord))}
	if _, err := b.sys.Asm("/lib/cmpctr.o", computeCounterSrc); err != nil {
		return nil, err
	}
	src := fmt.Sprintf(computeWorkerSrc, 4*computeWords, computeWords, seedWord, computePasses)
	if _, err := b.sys.Asm("/bin/worker.o", src); err != nil {
		return nil, err
	}
	res, err := b.sys.Link(&lds.Options{
		Output: "worker",
		Modules: []lds.Input{
			{Name: "worker.o", Class: objfile.StaticPrivate},
			{Name: "cmpctr.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		return nil, err
	}
	b.im = res.Image
	b.sch = kern.NewScheduler(b.sys.K, kern.SchedConfig{CPUs: computeCPUs})
	if err := warm(b, computeWarm); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *computeBench) clients() int { return 1 }

// prepare has nothing to draw: every op launches the same four workers.
func (b *computeBench) prepare(int) {}

func (b *computeBench) op(_ int, rec *recorder) error {
	i := rec.begin("kern/System.Launch")
	for w := range b.ps {
		pg, err := b.sys.Launch(b.im, 0, nil)
		if err != nil {
			rec.end(i)
			b.ps = [computeWorkers]*kern.Process{}
			return err
		}
		b.ps[w] = pg.P
	}
	rec.end(i)
	i = rec.begin("sched/Scheduler.RunAll")
	err := b.sch.RunAll(b.ps[:], computeMaxSteps)
	rec.end(i)
	for w, p := range b.ps {
		b.codes[w] = p.ExitCode
		if !p.Exited {
			b.codes[w] = -1
		}
		b.ps[w] = nil // keep no process past its op
	}
	b.runs += computeWorkers
	return err
}

func (b *computeBench) check(int) error {
	for w, code := range b.codes {
		if code != b.want {
			return fmt.Errorf("worker %d returned %d, want %d", w, code, b.want)
		}
	}
	return nil
}

func (b *computeBench) counters() obsv.Snapshot { return b.sys.Obs().Registry().Snapshot() }

func (b *computeBench) layers(ph *phase, m map[string]float64) {
	t := ph.trace
	m["kern.launch_us"] = t.p50us("kern/System.Launch")
	m["kern.sched_run_us"] = t.p50us("sched/Scheduler.RunAll")
	m["vm.guest_mips"] = ratio(ph.delta("kern.cpu_steps"), t.totalus("sched/Scheduler.RunAll"))
	m["kern.cpu_steals_per_op"] = ph.perOp(ph.delta("kern.cpu_steals"))
	m["kern.cpu_parks_per_op"] = ph.perOp(ph.delta("kern.cpu_parks"))
	m["kern.zygote_clone_ratio"] = ratio(ph.delta("kern.zygote_clone"), float64(computeWorkers*ph.ops))
	guestMetrics(ph, m)
	m["vm.dispatch_ns_per_instr"] = b.dispatch()
}

// dispatch runs one worker at a time alone on Kernel.Run, with no
// scheduler, and returns the median ns per retired instruction.
func (b *computeBench) dispatch() float64 {
	var ns []float64
	for i := 0; i < computeDispatch; i++ {
		pg, err := b.sys.Launch(b.im, 0, nil)
		if err != nil {
			return 0
		}
		t0 := time.Now()
		steps, err := b.sys.K.Run(pg.P, computeMaxSteps)
		el := time.Since(t0)
		b.runs++
		if err != nil || steps == 0 {
			return 0
		}
		ns = append(ns, float64(el.Nanoseconds())/float64(steps))
	}
	sort.Float64s(ns)
	return ns[len(ns)/2]
}

// finish reads the shared counter: one atomic_add per worker run.
func (b *computeBench) finish() error {
	pg, err := b.sys.Launch(b.im, 0, nil)
	if err != nil {
		return err
	}
	defer pg.P.Exit(0)
	v, err := pg.Var("cmp_counter")
	if err != nil {
		return err
	}
	got, err := v.Load()
	if err != nil {
		return err
	}
	if int(got) != b.runs {
		return fmt.Errorf("cmp_counter = %d, want %d (one per worker run)", got, b.runs)
	}
	return nil
}

func (b *computeBench) close() { b.sch.Stop() }
