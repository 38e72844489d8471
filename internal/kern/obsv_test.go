package kern

import (
	"testing"

	"hemlock/internal/isa"
	"hemlock/internal/obsv"
)

// TestSyscallPathNoAllocsWhenDisabled is the hot-path guarantee: with no
// trace sinks attached, dispatching a syscall allocates nothing — tracing
// costs one atomic load, counters are bare atomics.
func TestSyscallPathNoAllocsWhenDisabled(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if k.Obs.T.Enabled() {
		t.Fatal("tracer enabled by default")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.CPU.Regs[isa.RegV0] = SysGetPID
		if err := k.Syscall(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("syscall path allocates %.1f objects/op with tracing disabled, want 0", allocs)
	}
}

// TestKernelCountersTrackActivity runs a small program and checks the
// registry against ground truth the kernel also exposes directly.
func TestKernelCountersTrackActivity(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 3          # getpid
        syscall
        li      $v0, 3
        syscall
        li      $v0, 1          # exit
        li      $a0, 0
        syscall
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	steps, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := k.Obs.R.Snapshot()
	if got := s.Counters["kern.syscalls"]; got != 3 {
		t.Fatalf("kern.syscalls = %d, want 3", got)
	}
	if got := s.Counters["kern.steps"]; got != steps {
		t.Fatalf("kern.steps = %d, want %d", got, steps)
	}
	if got := s.Counters["kern.exits"]; got != 1 {
		t.Fatalf("kern.exits = %d, want 1", got)
	}
	if got := s.Counters["vm.traps"]; got != p.CPU.Traps {
		t.Fatalf("vm.traps = %d, want CPU's count %d", got, p.CPU.Traps)
	}
	h, ok := s.Histograms["kern.run_steps"]
	if !ok || h.Count != 1 || h.Sum != steps {
		t.Fatalf("kern.run_steps histogram = %+v, want count=1 sum=%d", h, steps)
	}
}

// TestMemGaugesMatchPoolStats asserts the registry's mem gauges and the
// pool's own Stats() can never disagree: the gauges are callbacks sampled
// from the pool at snapshot time.
func TestMemGaugesMatchPoolStats(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 8          # sbrk
        li      $a0, 65536
        syscall
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	check := func() {
		st := k.Phys.Stats()
		s := k.Obs.R.Snapshot()
		if s.Gauges["mem.frames_live"] != int64(st.Live) {
			t.Fatalf("mem.frames_live = %d, pool says %d", s.Gauges["mem.frames_live"], st.Live)
		}
		if s.Gauges["mem.frame_allocs"] != int64(st.Allocs) {
			t.Fatalf("mem.frame_allocs = %d, pool says %d", s.Gauges["mem.frame_allocs"], st.Allocs)
		}
		if s.Gauges["mem.frame_frees"] != int64(st.Frees) {
			t.Fatalf("mem.frame_frees = %d, pool says %d", s.Gauges["mem.frame_frees"], st.Frees)
		}
		if s.Gauges["mem.frames_limit"] != int64(st.Limit) {
			t.Fatalf("mem.frames_limit = %d, pool says %d", s.Gauges["mem.frames_limit"], st.Limit)
		}
	}
	check()
	p.Exit(0) // release everything and check the gauges follow
	check()
}

// TestTraceCoversSubsystems runs a faulting-free program with a ring sink
// attached and checks events arrive from more than one subsystem.
func TestTraceCoversSubsystems(t *testing.T) {
	k := New()
	ring := obsv.NewRing(256)
	k.Obs.T.Attach(ring)
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 3
        syscall
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	subsys := map[string]bool{}
	names := map[string]bool{}
	for _, e := range ring.Events() {
		subsys[e.Subsys] = true
		names[e.Name] = true
	}
	for _, want := range []string{"kern", "addrspace"} {
		if !subsys[want] {
			t.Fatalf("no %s events in trace; got subsystems %v", want, subsys)
		}
	}
	for _, want := range []string{"spawn", "getpid", "run", "map_anon", "exit"} {
		if !names[want] {
			t.Fatalf("no %q event in trace; got %v", want, names)
		}
	}
}

// TestTracedRunUsesBlockEngine: attaching a trace sink must not change
// which executor runs. The traced run builds blocks and retires the same
// instructions, with the same exit code, as the untraced one.
func TestTracedRunUsesBlockEngine(t *testing.T) {
	const src = `
        .text
        li      $t0, 20
loop:   addiu   $t0, $t0, -1
        li      $v0, 3          # getpid
        syscall
        bnez    $t0, loop
        li      $v0, 1          # exit
        li      $a0, 7
        syscall
`
	run := func(traced bool) (steps uint64, code int, builds uint64) {
		k := New()
		if traced {
			k.Obs.T.Attach(obsv.NewRing(64))
		}
		p := k.Spawn(0)
		if err := p.Exec(buildImage(t, src)); err != nil {
			t.Fatal(err)
		}
		n, err := k.Run(p, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		return n, p.ExitCode, k.Obs.R.Snapshot().Counters["vm.block_build"]
	}
	steps, code, _ := run(false)
	tsteps, tcode, tbuilds := run(true)
	if tbuilds == 0 {
		t.Fatal("traced run built no blocks: it bypassed the block engine")
	}
	if tsteps != steps || tcode != code {
		t.Fatalf("traced run retired %d steps, exit %d; untraced %d steps, exit %d", tsteps, tcode, steps, code)
	}
	if code != 7 {
		t.Fatalf("exit code %d, want 7", code)
	}
}
