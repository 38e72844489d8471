package prof_test

import (
	"strings"
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/obsv/prof"
)

// ev builds one span event on the synthetic clock.
func ev(ts int64, subsys, name string, phase obsv.Phase, pid int) obsv.Event {
	return obsv.Event{TS: ts, Subsys: subsys, Name: name, Phase: phase, PID: pid}
}

func TestLaunchProfileSynthetic(t *testing.T) {
	lp := prof.NewLaunchProfile()
	seq := []obsv.Event{
		// Noise before any launch: ignored.
		ev(0, "kern", "exec", obsv.PhaseBegin, 1),
		ev(1, "kern", "exec", obsv.PhaseEnd, 1),
		ev(2, "kern", "spawn", obsv.PhaseInstant, 1),
		// One launch: root 100ns, exec 90 (30 self), map_pages 60.
		ev(10, "kern", "launch", obsv.PhaseBegin, 1),
		ev(15, "kern", "exec", obsv.PhaseBegin, 1),
		ev(20, "kern", "map_pages", obsv.PhaseBegin, 1),
		ev(80, "kern", "map_pages", obsv.PhaseEnd, 1),
		ev(105, "kern", "exec", obsv.PhaseEnd, 1),
		ev(110, "kern", "launch", obsv.PhaseEnd, 1),
	}
	for _, e := range seq {
		lp.Emit(e)
	}
	r := lp.Report()
	if r.Launches != 1 || r.TotalNS != 100 {
		t.Fatalf("launches=%d total=%d", r.Launches, r.TotalNS)
	}
	// Root self-time: 100 - 90 (exec) = 10ns unattributed.
	if r.OtherNS != 10 {
		t.Fatalf("other=%d, want 10", r.OtherNS)
	}
	if c := r.Coverage(); c < 0.89 || c > 0.91 {
		t.Fatalf("coverage=%f, want 0.90", c)
	}
	byName := map[string]prof.PhaseStat{}
	for _, p := range r.Phases {
		byName[p.Name] = p
	}
	if p := byName["kern.exec"]; p.Total != 90 || p.Self != 30 || p.Count != 1 {
		t.Fatalf("kern.exec = %+v", p)
	}
	if p := byName["kern.map_pages"]; p.Total != 60 || p.Self != 60 {
		t.Fatalf("kern.map_pages = %+v", p)
	}
	if !strings.Contains(r.Table(), "(unattributed)") {
		t.Fatalf("table missing unattributed row:\n%s", r.Table())
	}
}

// TestLaunchProfileChargesEmitCost: the tracer's delivery time moves from
// the span it fell in to the obsv.emit row, and self times still sum to
// the launch wall time.
func TestLaunchProfileChargesEmitCost(t *testing.T) {
	lp := prof.NewLaunchProfile()
	for _, step := range []struct {
		e    obsv.Event
		cost int64
	}{
		{ev(0, "kern", "exec", obsv.PhaseBegin, 1), 9},      // outside a launch: dropped
		{ev(5, "kern", "exec", obsv.PhaseEnd, 1), 9},        // outside a launch: dropped
		{ev(10, "kern", "launch", obsv.PhaseBegin, 1), 4},   // inside the root
		{ev(20, "kern", "exec", obsv.PhaseBegin, 1), 3},     // inside exec
		{ev(50, "kern", "exec", obsv.PhaseEnd, 1), 5},       // back in the root
		{ev(60, "kern", "spawn", obsv.PhaseInstant, 1), 2},  // in the root
		{ev(70, "kern", "spawn", obsv.PhaseInstant, 2), 6},  // no launch on PID 2: dropped
		{ev(100, "kern", "launch", obsv.PhaseEnd, 1), 7},    // after the root closed: dropped
		{ev(110, "kern", "spawn", obsv.PhaseInstant, 1), 8}, // outside a launch: dropped
	} {
		lp.Emit(step.e)
		lp.EmitCost(step.e, step.cost)
	}
	r := lp.Report()
	if r.Launches != 1 || r.TotalNS != 90 {
		t.Fatalf("launches=%d total=%d", r.Launches, r.TotalNS)
	}
	byName := map[string]prof.PhaseStat{}
	for _, p := range r.Phases {
		byName[p.Name] = p
	}
	if p := byName["kern.exec"]; p.Total != 30 || p.Self != 27 {
		t.Fatalf("kern.exec = %+v, want total 30 self 27", p)
	}
	if p := byName[prof.EmitPhase]; p.Count != 4 || p.Total != 14 || p.Self != 14 {
		t.Fatalf("%s = %+v, want 4 events, 14ns", prof.EmitPhase, p)
	}
	// 90 - exec 30 - emit costs charged to the root (4+5+2) = 49.
	if r.OtherNS != 49 {
		t.Fatalf("other=%d, want 49", r.OtherNS)
	}
	var sum int64
	for _, p := range r.Phases {
		sum += p.Self
	}
	if sum+r.OtherNS != r.TotalNS {
		t.Fatalf("self times sum to %d, want %d", sum+r.OtherNS, r.TotalNS)
	}
}

func TestLaunchProfileInterleavedPIDs(t *testing.T) {
	// Two launches racing on different PIDs must not cross-attribute.
	lp := prof.NewLaunchProfile()
	for _, e := range []obsv.Event{
		ev(0, "kern", "launch", obsv.PhaseBegin, 1),
		ev(5, "kern", "launch", obsv.PhaseBegin, 2),
		ev(10, "kern", "exec", obsv.PhaseBegin, 1),
		ev(20, "kern", "exec", obsv.PhaseBegin, 2),
		ev(30, "kern", "exec", obsv.PhaseEnd, 1),
		ev(50, "kern", "exec", obsv.PhaseEnd, 2),
		ev(60, "kern", "launch", obsv.PhaseEnd, 1),
		ev(65, "kern", "launch", obsv.PhaseEnd, 2),
	} {
		lp.Emit(e)
	}
	r := lp.Report()
	if r.Launches != 2 || r.TotalNS != 120 {
		t.Fatalf("launches=%d total=%d", r.Launches, r.TotalNS)
	}
	var exec prof.PhaseStat
	for _, p := range r.Phases {
		if p.Name == "kern.exec" {
			exec = p
		}
	}
	if exec.Count != 2 || exec.Total != 50 { // 20 + 30
		t.Fatalf("kern.exec = %+v", exec)
	}
}

// TestLaunchProfileRealLaunch is the acceptance gate: profiling a real
// launch through the assembled system must attribute at least 95% of the
// wall time to named phases.
func TestLaunchProfileRealLaunch(t *testing.T) {
	s := core.NewSystem()
	// Profile the cold launch pipeline: with stable linking on, every
	// launch after the first is a ~10µs zygote clone whose only phase is
	// link.zygote_clone — a different (and separately tested) shape.
	s.SetStableLinking(false)
	if _, err := s.Asm("/lib/counter.o", `
        .data
        .globl  hits
hits:   .word   0
`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Asm("/bin/main.o", `
        .text
        .globl  main
        .extern hits
main:   la      $t0, hits
        lw      $v0, 0($t0)
        addiu   $v0, $v0, 1
        sw      $v0, 0($t0)
        jr      $ra
`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Link(&lds.Options{
		Output: "a.out",
		Modules: []lds.Input{
			{Name: "main.o", Class: objfile.StaticPrivate},
			{Name: "counter.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Launch-phase self times are wall-clock measurements, so an unlucky
	// scheduler preemption between two spans can land tens of µs in the
	// unattributed bucket of a single ~100µs launch. Aggregate a batch of
	// launches and allow a retry: instrumentation gaps are systematic and
	// would fail every attempt, while OS noise averages out.
	const launches = 10
	var r prof.LaunchReport
	for attempt := 0; ; attempt++ {
		lp := prof.NewLaunchProfile()
		s.Obs().T.Attach(lp)
		for i := 0; i < launches; i++ {
			pg, err := s.Launch(res.Image, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := pg.Run(100_000); err != nil {
				t.Fatal(err)
			}
		}
		s.Obs().T.Detach(lp)
		r = lp.Report()
		if r.Launches != launches {
			t.Fatalf("launches = %d, want %d", r.Launches, launches)
		}
		if r.TotalNS <= 0 {
			t.Fatalf("total = %dns", r.TotalNS)
		}
		if r.Coverage() >= 0.95 {
			break
		}
		if attempt == 3 {
			t.Fatalf("launch coverage %.1f%% < 95%% on every attempt:\n%s", 100*r.Coverage(), r.Table())
		}
	}
	byName := map[string]bool{}
	for _, p := range r.Phases {
		byName[p.Name] = true
	}
	for _, want := range []string{"kern.exec", "kern.map_pages", "ldl.start"} {
		if !byName[want] {
			t.Fatalf("no %s phase in:\n%s", want, r.Table())
		}
	}
}

// TestLaunchProfileStableLinkingPhases profiles launches with stable
// linking enabled: the cold launch must attribute its zygote
// registration, and every repeat launch must show up as a
// link.zygote_clone — so `-profile launch` explains where warm launches
// spend their time, not just cold ones.
func TestLaunchProfileStableLinkingPhases(t *testing.T) {
	s := core.NewSystem()
	s.SetStableLinking(true)
	if _, err := s.Asm("/bin/solo.o", ".text\n.globl main\nmain: li $v0,3\n jr $ra\n"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Link(&lds.Options{
		Output:  "a.out",
		Modules: []lds.Input{{Name: "solo.o", Class: objfile.StaticPrivate}},
		LinkDir: "/bin",
	})
	if err != nil {
		t.Fatal(err)
	}
	const launches = 6 // 1 cold + 5 zygote clones
	lp := prof.NewLaunchProfile()
	s.Obs().T.Attach(lp)
	for i := 0; i < launches; i++ {
		pg, err := s.Launch(res.Image, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Run(100_000); err != nil {
			t.Fatal(err)
		}
	}
	s.Obs().T.Detach(lp)
	r := lp.Report()
	if r.Launches != launches {
		t.Fatalf("launches = %d, want %d", r.Launches, launches)
	}
	byName := map[string]prof.PhaseStat{}
	for _, p := range r.Phases {
		byName[p.Name] = p
	}
	// Cold-only phases ran exactly once: the other five launches skipped
	// exec and linking entirely.
	for _, want := range []string{"kern.exec", "link.zygote_register"} {
		if p := byName[want]; p.Count != 1 {
			t.Fatalf("%s count = %d, want 1 (cold launch only):\n%s", want, p.Count, r.Table())
		}
	}
	clone := byName["link.zygote_clone"]
	if clone.Count != launches-1 {
		t.Fatalf("link.zygote_clone count = %d, want %d:\n%s", clone.Count, launches-1, r.Table())
	}
	if clone.Total <= 0 {
		t.Fatalf("link.zygote_clone total = %dns:\n%s", clone.Total, r.Table())
	}
	// A warm launch is a few µs of clone work under a kern.launch root, so
	// span bookkeeping is proportionally much larger than on a cold launch;
	// require attribution to carry most of the time, not the cold gate's 95%.
	if c := r.Coverage(); c < 0.5 {
		t.Fatalf("stable-linking launch coverage %.1f%% < 50%%:\n%s", 100*c, r.Table())
	}
}

// TestSpanDurationHistograms checks the no-call-site-changes satellite: the
// same launch spans, routed through the SpanDurations sink, surface as
// registry histograms under the derived "<subsys>.<name>_ns" names.
func TestSpanDurationHistograms(t *testing.T) {
	s := core.NewSystem()
	s.Obs().T.Attach(obsv.NewSpanDurations(s.Obs().R))
	if _, err := s.Asm("/bin/solo.o", ".text\n.globl main\nmain: li $v0,7\n jr $ra\n"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Link(&lds.Options{
		Output:  "a.out",
		Modules: []lds.Input{{Name: "solo.o", Class: objfile.StaticPrivate}},
		LinkDir: "/bin",
	})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(100_000); err != nil {
		t.Fatal(err)
	}
	snap := s.Obs().R.Snapshot()
	for _, want := range []string{"kern.launch_ns", "kern.exec_ns", "ldl.start_ns"} {
		h, ok := snap.Histograms[want]
		if !ok || h.Count == 0 {
			t.Fatalf("no %s histogram; have %v", want, keys(snap.Histograms))
		}
	}
	launch := snap.Histograms["kern.launch_ns"]
	if launch.Count != 1 {
		t.Fatalf("kern.launch_ns count = %d", launch.Count)
	}
	if launch.P95 < launch.P50 {
		t.Fatalf("p95 %d < p50 %d", launch.P95, launch.P50)
	}
}

func keys(m map[string]obsv.HistogramSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
