package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hemlock/internal/obsv"
)

// A span is one call from the benchmark into the program, or the op that
// groups them. Spans are recorded around the benchmark's own calls into each
// module's public functions; nothing inside the program is instrumented.
type span struct {
	key        string // "layer/Call", e.g. "core/LoadExecutable"
	start, end int64  // ns since the recorder's epoch
	parent     int    // index of the enclosing span; -1 for the op
	op         uint64
}

// layer is the module a span's time is charged to.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.key, "/")
	return l
}

// call is the function a span times.
func (s *span) call() string {
	_, c, _ := strings.Cut(s.key, "/")
	return c
}

// recorder collects the spans of one client. A nil recorder records
// nothing, so the untraced path pays one nil check per call site.
type recorder struct {
	epoch time.Time
	cur   []span // spans of the op in progress; cur[0] is the op itself
	open  int    // innermost open span, -1 when none
	op    uint64

	keep    int    // ops whose spans are kept for the Chrome export
	kept    []span // spans of the first keep ops
	client  int
	durs    map[string][]int64 // layer/call -> span durations
	self    map[string]int64   // layer -> total self time
	opTotal int64              // sum of op wall times
	covered int64              // sum of the time child spans cover
	under90 int                // ops whose children cover < 90% of their wall time
	nops    int
	childNs []int64 // per span of the op in progress: time its children cover
}

func newRecorder(client int, epoch time.Time, keep int) *recorder {
	return &recorder{epoch: epoch, open: -1, keep: keep, client: client,
		durs: map[string][]int64{}, self: map[string]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginOp opens the op span that every call of one operation nests under.
func (r *recorder) beginOp(op uint64) {
	if r == nil {
		return
	}
	r.op = op
	r.cur = append(r.cur[:0], span{key: "bench/op", start: r.now(), parent: -1, op: op})
	r.open = 0
}

// begin opens a span for one call, named "layer/Call"; end closes it.
func (r *recorder) begin(key string) int {
	if r == nil {
		return 0
	}
	r.cur = append(r.cur, span{key: key, start: r.now(), parent: r.open, op: r.op})
	r.open = len(r.cur) - 1
	return r.open
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.cur[i].end = r.now()
	r.open = r.cur[i].parent
}

// rename changes the name of span i, for a call whose path is known only
// once it returns.
func (r *recorder) rename(i int, key string) {
	if r == nil {
		return
	}
	r.cur[i].key = key
}

// dur is the length of closed span i in ns.
func (r *recorder) dur(i int) int64 {
	if r == nil {
		return 0
	}
	return r.cur[i].end - r.cur[i].start
}

// endOp closes the op span and folds its spans into the aggregates: per
// call durations, per layer self time (duration minus the time the span's
// children cover), and the share of the op its children account for.
func (r *recorder) endOp() {
	if r == nil {
		return
	}
	r.cur[0].end = r.now()
	child := r.childNs[:0]
	for range r.cur {
		child = append(child, 0)
	}
	for i := 1; i < len(r.cur); i++ {
		s := &r.cur[i]
		child[s.parent] += s.end - s.start
	}
	for i := range r.cur {
		s := &r.cur[i]
		d := s.end - s.start
		r.self[s.layer()] += d - child[i]
		if i > 0 {
			r.durs[s.key] = append(r.durs[s.key], d)
		}
	}
	opd := r.cur[0].end - r.cur[0].start
	r.opTotal += opd
	r.covered += child[0]
	if child[0]*10 < opd*9 {
		r.under90++
	}
	r.nops++
	if r.nops <= r.keep {
		off := len(r.kept)
		for _, s := range r.cur {
			if s.parent >= 0 {
				s.parent += off
			}
			r.kept = append(r.kept, s)
		}
	}
	r.childNs = child
	r.open = -1
}

// traceSummary merges the recorders of every client.
type traceSummary struct {
	durs    map[string][]int64
	self    map[string]int64
	opTotal int64
	covered int64
	under90 int
	nops    int
}

func summarize(recs []*recorder) *traceSummary {
	t := &traceSummary{durs: map[string][]int64{}, self: map[string]int64{}}
	for _, r := range recs {
		for k, v := range r.durs {
			t.durs[k] = append(t.durs[k], v...)
		}
		for k, v := range r.self {
			t.self[k] += v
		}
		t.opTotal += r.opTotal
		t.covered += r.covered
		t.under90 += r.under90
		t.nops += r.nops
	}
	for _, v := range t.durs {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return t
}

// p50us is the median duration of the spans named key, in µs (0 if none).
func (t *traceSummary) p50us(key string) float64 { return medianUs(t.durs[key]) }

// meanus is the mean duration of the spans named key, in µs (0 if none).
func (t *traceSummary) meanus(key string) float64 { return meanUs(t.durs[key]) }

// medianUs is the median of sorted ns durations, in µs (0 if none).
func medianUs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	return float64(v[(len(v)-1)/2]) / 1e3
}

// meanUs is the mean of ns durations, in µs (0 if none).
func meanUs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, d := range v {
		sum += d
	}
	return float64(sum) / float64(len(v)) / 1e3
}

func (t *traceSummary) totalus(key string) float64 {
	var sum int64
	for _, d := range t.durs[key] {
		sum += d
	}
	return float64(sum) / 1e3
}

func (t *traceSummary) coveragePct() float64 {
	if t.opTotal == 0 {
		return 0
	}
	return 100 * float64(t.covered) / float64(t.opTotal)
}

// print writes each layer's self time and each call's span statistics.
func (t *traceSummary) print() {
	layers := make([]string, 0, len(t.self))
	for l := range t.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return t.self[layers[i]] > t.self[layers[j]] })
	fmt.Printf("trace: %d ops, children cover %.2f%% of op wall time, %d ops under 90%%\n",
		t.nops, t.coveragePct(), t.under90)
	for _, l := range layers {
		fmt.Printf("  self %-10s %10.3f us/op  %6.2f%%\n", l,
			float64(t.self[l])/1e3/float64(max(t.nops, 1)), 100*float64(t.self[l])/float64(max(t.opTotal, 1)))
	}
	keys := make([]string, 0, len(t.durs))
	for k := range t.durs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  span %-32s n=%-8d p50 %9.3f us  mean %9.3f us\n", k, len(t.durs[k]), t.p50us(k), t.meanus(k))
	}
}

// writeChrome writes the kept spans as a Chrome trace_event array, the
// format `hemlock -trace x.json` emits: one track per client, the op id in
// each event's val.
func writeChrome(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ct := obsv.NewChromeTrace(f)
	for _, r := range recs {
		ct.Meta("process_name", r.client, fmt.Sprintf("client %d", r.client))
		// Emit B/E pairs in time order: a span's end precedes the begin of
		// its next sibling, and children close before their parent.
		type ev struct {
			ts    int64
			begin bool
			depth int
			s     *span
		}
		evs := make([]ev, 0, 2*len(r.kept))
		depth := make([]int, len(r.kept))
		for i := range r.kept {
			s := &r.kept[i]
			if s.parent >= 0 {
				depth[i] = depth[s.parent] + 1
			}
			evs = append(evs, ev{s.start, true, depth[i], s}, ev{s.end, false, depth[i], s})
		}
		sort.SliceStable(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			if a.s == b.s {
				return a.begin // a zero-length span still opens before it closes
			}
			if a.begin != b.begin {
				return !a.begin // ends first at equal timestamps
			}
			if a.begin {
				return a.depth < b.depth
			}
			return a.depth > b.depth
		})
		for _, e := range evs {
			ph := obsv.PhaseEnd
			if e.begin {
				ph = obsv.PhaseBegin
			}
			ct.Emit(obsv.Event{TS: e.ts, Subsys: e.s.layer(), Name: e.s.call(), Phase: ph,
				PID: r.client, Val: e.s.op})
		}
	}
	if err := ct.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
