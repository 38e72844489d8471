package kern

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"hemlock/internal/obsv"
)

// True SMP. The paper's SGI 4D/480 had 8 CPUs and Presto exists to exploit
// them; this scheduler gives the simulated machine the same shape. Each
// guest CPU is a host goroutine running the resumable runSlice loop, so N
// processes genuinely execute in parallel. The design is the classic
// M-on-N one:
//
//   - per-CPU run queues: a task (a process plus its remaining step
//     budget) is submitted to one CPU's queue and preempted back onto the
//     tail of that same queue, so a process tends to stay on one CPU and
//     keep its warm D-TLB and block cache (which are per-CPU state
//     already).
//   - preemption: a task runs one quantum (DefaultQuantum retired
//     instructions) per slice; round-robin within the CPU interleaves
//     runnable processes.
//   - work stealing: a CPU with an empty queue takes work from the longest
//     sibling queue, so one long-running process cannot strand runnable
//     work behind it.
//   - idle park/wake: a CPU that finds no work anywhere parks on a
//     condition variable; submitting or requeueing work wakes it.
//
// Deterministic mode (SchedConfig.Det) runs the same task set on ONE
// goroutine, interleaving slices round-robin with seeded variable quanta —
// a virtual SMP whose schedule is a pure function of the seed. The SMP
// differential harness uses it to explore many interleavings exactly and
// to replay any divergence; free-running mode is then validated against it
// by StateHash equality at quiesce.
//
// Safety rests on the memory-model work that accompanied this scheduler:
// every word-granular guest access is a host-atomic access to the backing
// frame word, guest atomics (atomic.go) are host atomics, and the
// gen/store-version invalidation protocol was already lock-free on the
// read side. See docs/SMP.md.

// DefaultQuantum is the preemption slice in retired instructions.
const DefaultQuantum = 50_000

// MaxCPUs caps the default CPU count, matching the paper's 8-CPU 4D/480.
const MaxCPUs = 8

// DefaultCPUs returns the guest CPU count: HEMLOCK_CPUS if set, else the
// host's CPU count capped at MaxCPUs. The variable's users are CI's 4-CPU
// race step and its differential matrix, which pin the count so a run
// does not depend on the runner's core count.
func DefaultCPUs() int {
	if v := os.Getenv("HEMLOCK_CPUS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	n := runtime.NumCPU()
	if n > MaxCPUs {
		n = MaxCPUs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SchedConfig configures a Scheduler.
type SchedConfig struct {
	CPUs    int    // guest CPUs; 0 means DefaultCPUs()
	Det     bool   // deterministic mode: seeded virtual interleaving on one goroutine
	Seed    int64  // schedule seed (Det mode)
	Quantum uint64 // preemption slice in steps; 0 means DefaultQuantum
}

// Task is one scheduled unit: a process being driven to completion under a
// step budget.
type Task struct {
	s      *Scheduler
	p      *Process
	budget uint64
	steps  uint64
	err    error
	cpu    int // home CPU (queue affinity)
	done   chan struct{}
}

// Wait blocks until the task finishes and returns the steps it retired and
// its error (nil means the process exited). In deterministic mode Wait is
// also the engine: the virtual CPU runs on the waiting goroutine, so the
// whole schedule is a pure function of the seed and the submission order.
func (t *Task) Wait() (uint64, error) {
	if t.s != nil && t.s.det {
		t.s.detDrive(t)
	}
	<-t.done
	return t.steps, t.err
}

// Scheduler multiplexes processes over N concurrent guest CPUs.
type Scheduler struct {
	k       *Kernel
	ncpu    int
	quantum uint64
	det     bool
	rng     *rand.Rand // det-mode schedule source; nil in free-running mode

	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*Task
	submit int // round-robin home-CPU assignment
	closed bool

	wg sync.WaitGroup

	// Per-CPU retired-step counts, exported as kern.cpu<i>_steps gauges:
	// the utilization picture (a CPU far behind its siblings is idle or
	// starved).
	cpuSteps []atomic.Uint64

	ctrSteps  *obsv.Counter // kern.cpu_steps: total steps retired by scheduled slices
	ctrSteals *obsv.Counter // kern.cpu_steals: tasks taken from a sibling queue
	ctrParks  *obsv.Counter // kern.cpu_parks: idle CPUs going to sleep
}

// NewScheduler builds a scheduler for k and starts its CPU goroutines.
// Deterministic mode starts none: the virtual CPU runs inside Task.Wait on
// the client goroutine, so no host-scheduler nondeterminism can reach the
// schedule. Call Stop to shut it down.
func NewScheduler(k *Kernel, cfg SchedConfig) *Scheduler {
	n := cfg.CPUs
	if n <= 0 {
		n = DefaultCPUs()
	}
	if cfg.Det {
		n = 1 // one goroutine IS the deterministic mode
	}
	q := cfg.Quantum
	if q == 0 {
		q = DefaultQuantum
	}
	s := &Scheduler{
		k:        k,
		ncpu:     n,
		quantum:  q,
		det:      cfg.Det,
		queues:   make([][]*Task, n),
		cpuSteps: make([]atomic.Uint64, n),
		ctrSteps: k.Obs.R.Counter("kern.cpu_steps"),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Det {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.ctrSteals = k.Obs.R.Counter("kern.cpu_steals")
		s.ctrParks = k.Obs.R.Counter("kern.cpu_parks")
	}
	for i := 0; i < n; i++ {
		i := i
		k.Obs.R.GaugeFunc(fmt.Sprintf("kern.cpu%d_steps", i), func() int64 {
			return int64(s.cpuSteps[i].Load())
		})
	}
	if !cfg.Det {
		s.wg.Add(n)
		for i := 0; i < n; i++ {
			go s.cpu(i)
		}
	}
	return s
}

// CPUs returns the number of guest CPUs.
func (s *Scheduler) CPUs() int { return s.ncpu }

// AttachScheduler publishes s as the kernel's scheduler (see Kernel.Sched).
func (k *Kernel) AttachScheduler(s *Scheduler) { k.sched.Store(s) }

// DetachScheduler clears the attached scheduler (the caller still owns
// stopping it).
func (k *Kernel) DetachScheduler() { k.sched.Store(nil) }

// Submit queues p to run for at most maxSteps retired instructions and
// returns a Task to wait on. Each process may be on at most one task at a
// time — a process is a single guest CPU's worth of architectural state.
func (s *Scheduler) Submit(p *Process, maxSteps uint64) *Task {
	t := &Task{s: s, p: p, budget: maxSteps, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		t.err = fmt.Errorf("kern: scheduler is stopped")
		close(t.done)
		return t
	}
	t.cpu = s.submit % s.ncpu
	s.submit++
	s.queues[t.cpu] = append(s.queues[t.cpu], t)
	s.mu.Unlock()
	s.cond.Broadcast()
	return t
}

// Run submits p and waits: the synchronous form clients use in place of
// Kernel.Run when a scheduler owns the CPUs.
func (s *Scheduler) Run(p *Process, maxSteps uint64) (uint64, error) {
	return s.Submit(p, maxSteps).Wait()
}

// RunAll submits every process and waits for all of them, returning the
// first error. This is the workload entry point: all tasks exist before
// any CPU can finish, so the interleaving genuinely overlaps.
func (s *Scheduler) RunAll(ps []*Process, maxSteps uint64) error {
	tasks := make([]*Task, len(ps))
	for i, p := range ps {
		tasks[i] = s.Submit(p, maxSteps)
	}
	var first error
	for _, t := range tasks {
		if _, err := t.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stop drains queued work, waits for the CPU goroutines to exit, and
// leaves the scheduler unusable.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// next returns the next task for CPU id: local queue head, else steal from
// the longest sibling queue, else park until woken. Returns nil when the
// scheduler is stopped and no work remains.
func (s *Scheduler) next(id int) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if q := s.queues[id]; len(q) > 0 {
			t := q[0]
			s.queues[id] = q[1:]
			return t
		}
		// Steal: take the head of the longest sibling queue. Head, not
		// tail — the head task has waited longest, so stealing it is also
		// the fairness path.
		victim, best := -1, 0
		for i, q := range s.queues {
			if i != id && len(q) > best {
				victim, best = i, len(q)
			}
		}
		if victim >= 0 {
			q := s.queues[victim]
			t := q[0]
			s.queues[victim] = q[1:]
			t.cpu = id // migrates: future requeues stay here
			if s.ctrSteals != nil {
				s.ctrSteals.Inc()
			}
			return t
		}
		if s.closed {
			return nil
		}
		if s.ctrParks != nil {
			s.ctrParks.Inc()
		}
		s.cond.Wait()
	}
}

// cpu is one guest CPU: a host goroutine interleaving preemption-quantum
// slices of the tasks queued to it.
func (s *Scheduler) cpu(id int) {
	defer s.wg.Done()
	for {
		t := s.next(id)
		if t == nil {
			return
		}
		s.slice(id, t)
	}
}

// slice runs one preemption quantum of t on CPU id, then finishes or
// requeues it.
func (s *Scheduler) slice(id int, t *Task) {
	quantum := s.sliceQuantum()
	if quantum > t.budget {
		quantum = t.budget
	}
	span := s.k.Obs.Tracer().Begin("sched", "slice", t.p.PID, "")
	n, done, err := s.k.runSlice(t.p, quantum)
	span.End(n)
	t.steps += n
	if n > t.budget {
		t.budget = 0
	} else {
		t.budget -= n
	}
	s.cpuSteps[id].Add(n)
	s.ctrSteps.Add(n)
	switch {
	case err != nil:
		s.finish(t, err)
	case done:
		s.finish(t, nil)
	case t.budget == 0:
		s.finish(t, fmt.Errorf("kern: pid %d exceeded %d steps", t.p.PID, t.steps))
	default:
		// Preempted: back of the home queue, siblings run first.
		s.mu.Lock()
		s.queues[t.cpu] = append(s.queues[t.cpu], t)
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// detDrive runs the deterministic virtual CPU until t finishes: strict
// round-robin over the single queue with seeded quanta. The caller must be
// the scheduler's only client (the differential harness is), or the
// interleaving of Submit calls would perturb the schedule.
func (s *Scheduler) detDrive(t *Task) {
	for {
		select {
		case <-t.done:
			return
		default:
		}
		s.mu.Lock()
		var next *Task
		if q := s.queues[0]; len(q) > 0 {
			next = q[0]
			s.queues[0] = q[1:]
		}
		s.mu.Unlock()
		if next == nil {
			// t is neither done nor queued: it is mid-flight on a nested
			// detDrive (not a supported shape) or lost. Fail loudly.
			s.finish(t, fmt.Errorf("kern: det scheduler has no runnable task for pid %d", t.p.PID))
			return
		}
		s.slice(0, next)
	}
}

// sliceQuantum is the next preemption slice. Free-running CPUs use the
// fixed quantum; deterministic mode draws a seeded variable quantum, so
// different seeds explore different interleavings of the same workload
// while any one seed replays its schedule exactly.
func (s *Scheduler) sliceQuantum() uint64 {
	if s.rng == nil {
		return s.quantum
	}
	// 1..quantum, seeded: short slices interleave aggressively, long ones
	// let a process burst — both shapes show up across seeds.
	return 1 + uint64(s.rng.Int63n(int64(s.quantum)))
}

// finish completes a task, mirroring what Kernel.Run does after its loop:
// flush the CPU's cached stats and feed the kernel-wide step instruments.
func (s *Scheduler) finish(t *Task, err error) {
	t.p.CPU.FlushObsv()
	s.k.ctrSteps.Add(t.steps)
	s.k.hRunSteps.Observe(t.steps)
	t.err = err
	close(t.done)
}
