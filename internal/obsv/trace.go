package obsv

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies an event, using Chrome trace_event letters: an instant
// event, or the begin/end pair bracketing a span.
type Phase byte

// Phases.
const (
	PhaseInstant   Phase = 'i'
	PhaseBegin     Phase = 'B'
	PhaseEnd       Phase = 'E'
	PhaseFlowStart Phase = 's'
	PhaseFlowEnd   Phase = 'f'
)

func (p Phase) String() string {
	switch p {
	case PhaseInstant:
		return "instant"
	case PhaseBegin:
		return "begin"
	case PhaseEnd:
		return "end"
	case PhaseFlowStart:
		return "flow_start"
	case PhaseFlowEnd:
		return "flow_end"
	}
	return "phase(?)"
}

// Event is one typed trace record. The fixed field set keeps emission
// allocation-free: subsystems fill in what applies and leave the rest
// zero. Mod carries a module/path/symbol name, Addr a simulated virtual
// address, Val a free numeric payload (a syscall number, a byte count, a
// reloc count).
type Event struct {
	TS     int64  // nanoseconds on the tracer's clock
	Subsys string // "kern", "vm", "addrspace", "ldl", "shmfs", "shalloc", "netshm"
	Name   string
	Phase  Phase
	PID    int
	Mod    string
	Addr   uint32
	Val    uint64
	Flow   uint64 // correlation id tying a PhaseFlowStart to its PhaseFlowEnd
}

// Sink receives events from a Tracer. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(e Event)
}

// CostSink is a Sink that is also told what delivering each event cost.
// After fanning an event it stamped out to every sink, the tracer reads
// its clock again and calls EmitCost with the nanoseconds from the stamp
// to that point: the tracer's own time, spent after the event's
// timestamp. A profiler charges that time to a row of its own, where it
// would otherwise land in whichever span was open. Events that arrive
// already stamped are not costed.
type CostSink interface {
	Sink
	EmitCost(e Event, ns int64)
}

// Tracer stamps events with its clock and fans them out to the attached
// sinks. With no sinks attached it is disabled: Emit returns after one
// atomic load. A nil *Tracer is valid and permanently disabled, so
// subsystems can carry one without wiring.
type Tracer struct {
	clock func() int64
	on    atomic.Bool
	mu    sync.Mutex
	sinks []Sink
	costs []CostSink // the attached sinks that take EmitCost
}

// NewTracer returns a tracer using the given clock, in nanoseconds. A nil
// clock means monotonic wall time since the tracer's creation.
func NewTracer(clock func() int64) *Tracer {
	if clock == nil {
		start := time.Now()
		clock = func() int64 { return time.Since(start).Nanoseconds() }
	}
	return &Tracer{clock: clock}
}

// Enabled reports whether at least one sink is attached. It is the gate
// call sites use before building an Event.
func (t *Tracer) Enabled() bool {
	return t != nil && t.on.Load()
}

// Attach adds a sink and enables the tracer.
func (t *Tracer) Attach(s Sink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sinks = append(t.sinks, s)
	if c, ok := s.(CostSink); ok {
		t.costs = append(t.costs, c)
	}
	t.on.Store(true)
}

// Detach removes a previously attached sink, disabling the tracer when the
// last one goes.
func (t *Tracer) Detach(s Sink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, have := range t.sinks {
		if have == s {
			t.sinks = append(t.sinks[:i], t.sinks[i+1:]...)
			break
		}
	}
	for i, have := range t.costs {
		if have == s {
			t.costs = append(t.costs[:i], t.costs[i+1:]...)
			break
		}
	}
	if len(t.sinks) == 0 {
		t.on.Store(false)
	}
}

// Close closes every attached sink that implements io.Closer (flushing
// file formats like the Chrome exporter) and detaches them all.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sinks := t.sinks
	t.sinks, t.costs = nil, nil
	t.on.Store(false)
	t.mu.Unlock()
	var first error
	for _, s := range sinks {
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Emit stamps e (if its TS is zero) and delivers it to every sink, then
// tells each CostSink what delivering a stamped event cost. It is a no-op
// on a disabled or nil tracer.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	stamped := e.TS == 0
	if stamped {
		e.TS = t.clock()
	}
	if e.Phase == 0 {
		e.Phase = PhaseInstant
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sinks {
		s.Emit(e)
	}
	if stamped && len(t.costs) > 0 {
		ns := t.clock() - e.TS
		for _, c := range t.costs {
			c.EmitCost(e, ns)
		}
	}
}

// FlowID derives a stable correlation id for a causal flow (e.g. one
// netshm replication generation) from a name and a sequence number:
// FNV-1a of the name XORed with the sequence. Never zero, so sinks can
// treat Flow == 0 as "no flow".
func FlowID(name string, seq uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= seq
	if h == 0 {
		h = offset64
	}
	return h
}

// Span is an in-flight begin/end pair. The zero Span (from a disabled
// tracer) is valid and End is then a no-op, so call sites need no guards.
type Span struct {
	t      *Tracer
	subsys string
	name   string
	pid    int
	mod    string
}

// Begin emits a PhaseBegin event and returns the span handle whose End
// emits the matching PhaseEnd.
func (t *Tracer) Begin(subsys, name string, pid int, mod string) Span {
	if !t.Enabled() {
		return Span{}
	}
	t.Emit(Event{Subsys: subsys, Name: name, Phase: PhaseBegin, PID: pid, Mod: mod})
	return Span{t: t, subsys: subsys, name: name, pid: pid, mod: mod}
}

// End closes the span, attaching val as the end event's payload.
func (s Span) End(val uint64) {
	if s.t == nil {
		return
	}
	s.t.Emit(Event{Subsys: s.subsys, Name: s.name, Phase: PhaseEnd, PID: s.pid, Mod: s.mod, Val: val})
}
