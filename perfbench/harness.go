package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"hemlock/internal/obsv"
)

// workload is one booted world and the closed-loop clients that drive it.
type workload interface {
	// clients is the number of closed-loop clients; each runs on its own
	// goroutine and owns its own slice of the inputs.
	clients() int
	// prepare draws client c's next op and builds its inputs, off the
	// clock.
	prepare(c int)
	// op runs client c's prepared op: only the calls into the program,
	// each recorded as a span on rec when tracing. Results are stashed for
	// check.
	op(c int, rec *recorder) error
	// check verifies the outputs of client c's last op, off the clock.
	check(c int) error
	// counters snapshots the program's own registry.
	counters() obsv.Snapshot
	// layers adds the workload's per-layer metrics, taken from a traced
	// phase.
	layers(ph *phase, m map[string]float64)
	// finish runs the end-of-run checks on the whole world.
	finish() error
	close()
}

// phase is one timed run of a workload's closed loop.
type phase struct {
	ops, failed int
	elapsed     time.Duration
	samples     []sample // every op, in order of completion
	before      obsv.Snapshot
	after       obsv.Snapshot
	mem0, mem1  runtime.MemStats
	gc0, gc1    float64 // GC CPU seconds
	cpu0, cpu1  float64 // total CPU seconds
	trace       *traceSummary
	recs        []*recorder
	errs        []string
}

// sample is one op: when it completed and how long it took. A failed op
// takes math.MaxInt64, slower than every success.
type sample struct{ done, ns int64 }

// block is the throughput and latency of a run of consecutive ops.
type block struct{ rate, p50, p99 float64 }

// blocks cuts the phase's ops, in order of completion, into runs of size
// ops and measures each: ops per second over the block's span of time,
// and its 50th and 99th percentile latencies in µs.
func (ph *phase) blocks(size int) []block {
	var out []block
	var prev int64
	lat := make([]int64, 0, size)
	for i := 0; i+size <= len(ph.samples); i += size {
		lat = lat[:0]
		good := 0
		for _, s := range ph.samples[i : i+size] {
			lat = append(lat, s.ns)
			if s.ns != math.MaxInt64 {
				good++
			}
		}
		end := ph.samples[i+size-1].done
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p99 := quantileUs(lat, 0.99)
		if math.IsInf(p99, 1) {
			p99 = float64(end-prev) / 1e3 // failures: slower than any op in the block could be
		}
		out = append(out, block{rate: float64(good) / (float64(end-prev) / 1e9),
			p50: quantileUs(lat, 0.50), p99: p99})
		prev = end
	}
	return out
}

// runPhase drives every client of w in a closed loop for n ops each.
func runPhase(w workload, n int, traced bool) *phase {
	nc := w.clients()
	ph := &phase{before: w.counters()}
	runtime.ReadMemStats(&ph.mem0)
	ph.gc0, ph.cpu0 = cpuSeconds()
	start := time.Now()
	if traced {
		for c := 0; c < nc; c++ {
			ph.recs = append(ph.recs, newRecorder(c, start, 2000))
		}
	}
	lats := make([][]sample, nc)
	fails := make([]int, nc)
	errs := make([][]string, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var rec *recorder
			if traced {
				rec = ph.recs[c]
			}
			lat := make([]sample, 0, n)
			for i := 0; i < n; i++ {
				w.prepare(c)
				t0 := time.Now()
				rec.beginOp(uint64(i))
				err := w.op(c, rec)
				rec.endOp()
				t1 := time.Now()
				ns := int64(t1.Sub(t0))
				if err == nil {
					err = w.check(c)
				}
				if err != nil {
					fails[c]++
					ns = math.MaxInt64
					if len(errs[c]) < 5 {
						errs[c] = append(errs[c], err.Error())
					}
				}
				lat = append(lat, sample{done: int64(t1.Sub(start)), ns: ns})
			}
			lats[c] = lat
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.gc1, ph.cpu1 = cpuSeconds()
	runtime.ReadMemStats(&ph.mem1)
	ph.after = w.counters()
	for c := 0; c < nc; c++ {
		ph.samples = append(ph.samples, lats[c]...)
		ph.failed += fails[c]
		ph.errs = append(ph.errs, errs[c]...)
	}
	ph.ops = len(ph.samples)
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].done < ph.samples[j].done })
	if traced {
		ph.trace = summarize(ph.recs)
	}
	return ph
}

// rate is the phase's throughput: ops completed per second.
func (ph *phase) rate() float64 {
	return float64(ph.ops-ph.failed) / ph.elapsed.Seconds()
}

// warm runs n ops per client on the calling goroutine, clients in turn:
// the fixed-count warm-up every set-up ends with.
func warm(w workload, n int) error {
	for i := 0; i < n; i++ {
		for c := 0; c < w.clients(); c++ {
			w.prepare(c)
			if err := w.op(c, nil); err != nil {
				return fmt.Errorf("warm-up op %d client %d: %w", i, c, err)
			}
			if err := w.check(c); err != nil {
				return fmt.Errorf("warm-up op %d client %d: %w", i, c, err)
			}
		}
	}
	return nil
}

// quantileUs is the nearest-rank q-quantile of sorted ns samples, in µs.
// Failed ops sort last, so they count as slower than every success; a
// quantile that lands on one reports +Inf.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	if sorted[i] == math.MaxInt64 {
		return math.Inf(1)
	}
	return float64(sorted[i]) / 1e3
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveMB forces a collection and reports the heap still live: the memory
// the program holds, guest frames included.
func liveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuSeconds reads the GC's and the whole process's CPU time so far.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// rssPeakMB is the process's peak resident set (getrusage's maxrss, the
// kernel's VmHWM, in KiB on Linux).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// delta is a counter's growth across the phase.
func (ph *phase) delta(name string) float64 {
	return float64(ph.after.Counters[name] - ph.before.Counters[name])
}

// histDelta is a histogram's (count, sum) growth across the phase.
func (ph *phase) histDelta(name string) (count, sum float64) {
	a, b := ph.after.Histograms[name], ph.before.Histograms[name]
	return float64(a.Count - b.Count), float64(a.Sum - b.Sum)
}

// perOp divides by the number of ops the phase completed.
func (ph *phase) perOp(v float64) float64 { return ratio(v, float64(ph.ops)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// commonMetrics are the per-layer numbers every workload reports: the Go
// runtime's, and how much of each op the trace's spans account for.
func (ph *phase) commonMetrics(m map[string]float64) {
	m["go.alloc_kb_per_op"] = ph.perOp(float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / 1024)
	m["go.gc_cpu_frac"] = ratio(ph.gc1-ph.gc0, ph.cpu1-ph.cpu0)
	m["go.rss_peak_mb"] = rssPeakMB()
	m["trace.coverage_pct"] = ph.trace.coveragePct()
}
