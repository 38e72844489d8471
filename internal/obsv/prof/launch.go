// Package prof builds profiles on top of the obsv tracer and registry:
// a launch-phase profiler aggregating the phase-scoped spans the kernel
// and linkers emit, a guest-PC sampling profiler attributing retired
// instructions to module:function, and a merger producing one fleet-wide
// Chrome trace with causal flow arrows from the per-machine netshm
// tracers. It is the measurement substrate for the stable-linking and
// fleet-scaling work: the paper's launch cost (Table 1) is only worth
// attacking where the time demonstrably goes.
package prof

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hemlock/internal/obsv"
)

// LaunchRoot is the span that delimits one launch: spans nested inside a
// "kern"/"launch" pair are attributed to that launch's phase breakdown.
const (
	LaunchRootSubsys = "kern"
	LaunchRootName   = "launch"
)

// EmitPhase is the row that holds the tracer's own time inside launches:
// what delivering each event to the attached sinks took after the event
// was stamped (obsv.CostSink).
const EmitPhase = "obsv.emit"

// LaunchProfile is a sink that aggregates the phase-scoped spans emitted
// during process launch into a per-phase self-time breakdown. Attach it
// to the system tracer before Launch and read the Report after: self time
// (span duration minus nested spans) sums to the launch wall time, so
// coverage = 1 - root-self/total reports how much of the launch the named
// phases account for. The tracer's own delivery time is a phase too
// (EmitPhase), so it does not hide in the self time of whichever span
// was open when an event was delivered.
type LaunchProfile struct {
	mu       sync.Mutex
	stacks   map[int][]*openSpan // per PID, innermost last
	phases   map[string]*PhaseStat
	launches int
	total    int64 // summed root span durations, ns
	rootSelf int64 // launch time not inside any named phase, ns
}

type openSpan struct {
	key   string
	begin int64
	child int64 // summed durations of directly nested spans
}

// PhaseStat is the aggregate for one named phase across all launches.
type PhaseStat struct {
	Name  string
	Count int
	Total int64 // ns, including nested phases
	Self  int64 // ns, excluding nested phases
}

// NewLaunchProfile returns an empty launch profiler.
func NewLaunchProfile() *LaunchProfile {
	return &LaunchProfile{
		stacks: map[int][]*openSpan{},
		phases: map[string]*PhaseStat{},
	}
}

// Emit implements obsv.Sink. Only B/E events nested under the launch root
// are recorded; everything outside a launch is ignored.
func (p *LaunchProfile) Emit(e obsv.Event) {
	if e.Phase != obsv.PhaseBegin && e.Phase != obsv.PhaseEnd {
		return
	}
	key := e.Subsys + "." + e.Name
	root := e.Subsys == LaunchRootSubsys && e.Name == LaunchRootName
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.stacks[e.PID]
	if e.Phase == obsv.PhaseBegin {
		if len(stack) == 0 && !root {
			return // span outside any launch
		}
		p.stacks[e.PID] = append(stack, &openSpan{key: key, begin: e.TS})
		return
	}
	if len(stack) == 0 {
		return
	}
	top := stack[len(stack)-1]
	if top.key != key {
		return // mismatched end (sink attached mid-span): drop
	}
	p.stacks[e.PID] = stack[:len(stack)-1]
	dur := e.TS - top.begin
	if dur < 0 {
		dur = 0
	}
	self := dur - top.child
	if self < 0 {
		self = 0
	}
	if len(stack) > 1 {
		stack[len(stack)-2].child += dur
	}
	if len(stack) == 1 { // the root itself closed
		p.launches++
		p.total += dur
		p.rootSelf += self
		return
	}
	p.charge(key, dur, self)
}

// EmitCost implements obsv.CostSink. Delivering e took ns after e's
// timestamp, inside the innermost span open on e's PID: the span e
// opened, the one left open when e closed its child, or the one around an
// instant. That time moves from the span's self time to EmitPhase. The
// cost of events outside any launch, and of the root's own end, falls
// outside every launch and is dropped.
func (p *LaunchProfile) EmitCost(e obsv.Event, ns int64) {
	if ns <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.stacks[e.PID]
	if len(stack) == 0 {
		return
	}
	stack[len(stack)-1].child += ns
	p.charge(EmitPhase, ns, ns)
}

// charge adds one occurrence of the named phase.
func (p *LaunchProfile) charge(key string, total, self int64) {
	ps, ok := p.phases[key]
	if !ok {
		ps = &PhaseStat{Name: key}
		p.phases[key] = ps
	}
	ps.Count++
	ps.Total += total
	ps.Self += self
}

// LaunchReport is the aggregated result of one or more launches.
type LaunchReport struct {
	Launches int
	TotalNS  int64
	OtherNS  int64 // launch time not attributed to any named phase
	Phases   []PhaseStat
}

// Coverage reports the fraction of launch wall time attributed to named
// phases (1 means every nanosecond fell inside some phase span).
func (r LaunchReport) Coverage() float64 {
	if r.TotalNS == 0 {
		return 0
	}
	return 1 - float64(r.OtherNS)/float64(r.TotalNS)
}

// Report snapshots the profile, phases sorted by self time descending.
func (p *LaunchProfile) Report() LaunchReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := LaunchReport{Launches: p.launches, TotalNS: p.total, OtherNS: p.rootSelf}
	for _, ps := range p.phases {
		r.Phases = append(r.Phases, *ps)
	}
	sort.Slice(r.Phases, func(i, j int) bool {
		if r.Phases[i].Self != r.Phases[j].Self {
			return r.Phases[i].Self > r.Phases[j].Self
		}
		return r.Phases[i].Name < r.Phases[j].Name
	})
	return r
}

// Table renders the report as an aligned text table.
func (r LaunchReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "launches: %d  total: %s  attributed: %.1f%%\n",
		r.Launches, fmtNS(r.TotalNS), 100*r.Coverage())
	fmt.Fprintf(&b, "%-28s %8s %12s %12s %7s\n", "phase", "count", "total", "self", "self%")
	for _, ps := range r.Phases {
		pct := 0.0
		if r.TotalNS > 0 {
			pct = 100 * float64(ps.Self) / float64(r.TotalNS)
		}
		fmt.Fprintf(&b, "%-28s %8d %12s %12s %6.1f%%\n",
			ps.Name, ps.Count, fmtNS(ps.Total), fmtNS(ps.Self), pct)
	}
	if r.OtherNS > 0 {
		pct := 0.0
		if r.TotalNS > 0 {
			pct = 100 * float64(r.OtherNS) / float64(r.TotalNS)
		}
		fmt.Fprintf(&b, "%-28s %8s %12s %12s %6.1f%%\n",
			"(unattributed)", "", "", fmtNS(r.OtherNS), pct)
	}
	return b.String()
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
