// Command perfbench is Hemlock's end-to-end benchmark. Each run boots one
// workload's world from a seed, drives it in a closed loop for a fixed
// time, checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on its last line.
//
//	go run . -workload launch -seed 1 -seconds 10 -trace 0
//
// The workloads and the reasons for each are in NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one named number the benchmark reports.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, the same on every
// workload. They come only from untraced runs.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"live_mb", "MB"},
}

// perLayer are the metrics of single layers, from the traced run. Every
// traced run reports all of them; a layer the workload does not reach
// reads 0.
var perLayer = []metric{
	{"server.handler_us", "us"},
	{"server.service_us", "us"},
	{"server.wait_us", "us"},
	{"server.call_us", "us"},
	{"server.var_us", "us"},
	{"server.txn_us", "us"},
	{"server.launch_us", "us"},
	{"server.programs_end", "count"},
	{"kern.steps_per_call", "count/op"},
	{"vm.block_hit_ratio", "ratio"},
	{"vm.block_invalidate_per_op", "count/op"},
	{"kern.zygote_clone_ratio", "ratio"},
	{"core.load_exe_us", "us"},
	{"kern.launch_clone_us", "us"},
	{"kern.launch_cold_us", "us"},
	{"vm.run_us", "us"},
	{"kern.exit_us", "us"},
	{"lds.rebuild_us", "us"},
	{"ldl.linkcache_hit_ratio", "ratio"},
	{"ldl.linkcache_invalidate_per_kop", "count/kop"},
	{"addrspace.pages_mapped_per_op", "count/op"},
	{"kern.launch_us", "us"},
	{"kern.sched_run_us", "us"},
	{"vm.guest_mips", "MIPS"},
	{"vm.dispatch_ns_per_instr", "ns"},
	{"vm.steps_per_op", "count/op"},
	{"kern.syscalls_per_op", "count/op"},
	{"kern.cpu_steals_per_op", "count/op"},
	{"kern.cpu_parks_per_op", "count/op"},
	{"netshm.update_us", "us"},
	{"netshm.tick_us", "us"},
	{"netshm.converged_us", "us"},
	{"netshm.read_us", "us"},
	{"netshm.ticks_per_op", "count/op"},
	{"netsim.bytes_per_op", "B/op"},
	{"netsim.datagrams_per_op", "count/op"},
	{"netsim.alloc_kb_per_op", "kB/op"},
	{"netshm.delta_page_ratio", "ratio"},
	{"netshm.retries_per_op", "count/op"},
	{"netshm.resends_per_op", "count/op"},
	{"go.alloc_kb_per_op", "kB/op"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.rss_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

// spec is one workload: how to boot its world, warm-up included, from a
// seed, how many ops each client runs in one round, how many
// consecutive ops make one block, and how many host threads run Go code
// (GOMAXPROCS; 0 keeps the runtime's default, one per core).
type spec struct {
	setup func(seed int64) (workload, error)
	ops   int
	block int
	procs int
}

// Rounds take about two seconds each on a 2-core host at the time of
// writing (fleet's four, so that its per-tick cost growth shows); blocks
// are at least 1000 ops, so each block's 99th percentile has ten ops
// beyond it.
//
// fleet is one goroutine stepping a simulated LAN, so it runs on one
// thread. With a second, idle one, the Go collector (about 50 cycles a
// second on fleet) marks there, and each stop-the-world phase must reach
// that virtual CPU too: in contended spells of a shared host up to 8% of
// a block's fleet ops stalled 5-30 ms, against under 1% on one thread,
// and fleet's p99 jumped between 2.5 and 13 ms with whether that share
// passed 1%. On one thread the collector's work is paid inside the ops
// instead. serve (two clients and the world owner) and compute (two
// guest CPUs) need both cores; launch, also one client, keeps the
// default, as its p99 never jumped that way.
var specs = map[string]spec{
	"serve":   {setupServe, 60_000, 20_000, 0},
	"launch":  {setupLaunch, 50_000, 10_000, 0},
	"compute": {setupCompute, 3_000, 1_000, 0},
	"fleet":   {setupFleet, 3_000, 1_000, 1},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "serve, launch, compute or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time: rounds run until it is spent")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "traced run: write the kept spans here as Chrome trace JSON")
	ops := flag.Int("ops", 0, "ops per client per round (default: the workload's own)")
	flag.Parse()
	if sp, ok := specs[*name]; ok && *ops > 0 {
		sp.ops = *ops
		specs[*name] = sp
	}
	if sp := specs[*name]; sp.procs > 0 {
		runtime.GOMAXPROCS(sp.procs)
	}
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// A run is a sequence of rounds until the measured time is spent. Each
// round boots a fresh world from its own seed, derived from the run's
// seed, times its set-up, then drives a fixed number of ops: per-op
// counts and memory that grows per op read the same however fast the
// machine is. setup_s and live_mb are medians over the rounds; the
// latency and throughput metrics are medians over blocks of consecutive
// ops, so one world's luck (which goroutine landed where, what the heap
// looked like) or a burst of load on the host moves them less.
const minRounds = 3

// roundSeed derives round r's input seed from the run's seed.
func roundSeed(seed int64, r int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 31)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 29)) >> 1)
}

// boot builds one world, returning it and its set-up time in seconds.
func boot(name string, seed int64) (workload, float64, error) {
	runtime.GC() // every boot starts from the same clean heap
	t0 := time.Now()
	w, err := specs[name].setup(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", name, err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// roundResult is what one round measured.
type roundResult struct {
	ph     *phase
	setupS float64            // boot to first timed op
	liveMB float64            // live heap after the round's ops
	layers map[string]float64 // per-layer metrics, traced rounds only
}

// round boots one world, drives it, and runs its final checks, adding
// its op counts to res and its failed checks to errs.
func round(name string, seed int64, traced bool, res *result, errs *[]string) (*roundResult, error) {
	w, setupS, err := boot(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rr := &roundResult{ph: runPhase(w, specs[name].ops, traced), setupS: setupS}
	rr.liveMB = liveMB() // at a fixed op count, off the clock
	if traced {
		rr.layers = map[string]float64{}
		w.layers(rr.ph, rr.layers)
		rr.ph.commonMetrics(rr.layers)
	}
	res.Attempted += rr.ph.ops
	res.Failed += rr.ph.failed
	*errs = append(*errs, rr.ph.errs...)
	if err := w.finish(); err != nil {
		*errs = append(*errs, "final check: "+err.Error())
	}
	return rr, nil
}

func run(name string, seed int64, d time.Duration, traced bool, traceOut string) (*result, error) {
	if _, ok := specs[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		return runTraced(name, seed, d, traceOut)
	}
	res := &result{Metrics: map[string]value{}}
	per := map[string][]float64{}
	var errs []string
	var measured time.Duration
	for r := 0; r < minRounds || measured < d; r++ {
		rr, err := round(name, roundSeed(seed, r), false, res, &errs)
		if err != nil {
			return nil, err
		}
		ph := rr.ph
		measured += ph.elapsed
		per["setup_s"] = append(per["setup_s"], rr.setupS)
		per["live_mb"] = append(per["live_mb"], rr.liveMB)
		fmt.Printf("%s round %d: set-up %.4f s, %d ops in %.3f s, live %.3f MB, %d failed; blocks (ops/s, p50 us, p99 us):",
			name, r, rr.setupS, ph.ops, ph.elapsed.Seconds(), rr.liveMB, ph.failed)
		for _, b := range ph.blocks(min(specs[name].block, ph.ops)) {
			per["ops_per_s"] = append(per["ops_per_s"], b.rate)
			per["p50_us"] = append(per["p50_us"], b.p50)
			per["p99_us"] = append(per["p99_us"], b.p99)
			fmt.Printf(" (%.1f, %.3f, %.3f)", b.rate, b.p50, b.p99)
		}
		fmt.Println()
	}
	for _, mt := range endToEnd {
		res.Metrics[mt.name] = value{median(per[mt.name]), mt.unit}
	}
	return res.done(name, errs)
}

// runTraced alternates untraced and traced rounds, each pair from one
// seed, until the measured time is spent. Per-layer metrics are medians
// over the traced rounds; the tracing overhead compares each traced round
// with its untraced twin.
func runTraced(name string, seed int64, d time.Duration, traceOut string) (*result, error) {
	res := &result{Metrics: map[string]value{}}
	per := map[string][]float64{}
	var errs []string
	var measured time.Duration
	for r := 0; r < minRounds || measured < d; r++ {
		base, err := round(name, roundSeed(seed, r), false, res, &errs)
		if err != nil {
			return nil, err
		}
		tr, err := round(name, roundSeed(seed, r), true, res, &errs)
		if err != nil {
			return nil, err
		}
		ph, m := tr.ph, tr.layers
		measured += base.ph.elapsed + ph.elapsed
		m["trace.overhead_pct"] = 100 * ratio(base.ph.rate()-ph.rate(), base.ph.rate())
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		if r == 0 {
			ph.trace.print()
			if traceOut != "" {
				if err := writeChrome(traceOut, ph.recs); err != nil {
					return nil, err
				}
				fmt.Printf("trace: spans of the first %d ops per client written to %s\n", ph.recs[0].keep, traceOut)
			}
		}
	}
	listed := map[string]bool{}
	fmt.Printf("per-layer metrics, medians over %d traced rounds:\n", len(per["trace.coverage_pct"]))
	for _, mt := range perLayer {
		listed[mt.name] = true
		v := median(per[mt.name])
		res.Metrics[mt.name] = value{v, mt.unit}
		fmt.Printf("  %-34s %14.4f %s\n", mt.name, v, mt.unit)
	}
	for k := range per {
		if !listed[k] {
			return nil, fmt.Errorf("workload reported unlisted metric %q", k)
		}
	}
	return res.done(name, errs)
}

// done reports the checks that failed and settles correct.
func (res *result) done(name string, errs []string) (*result, error) {
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if res.Attempted == 0 {
		return nil, errors.New("no op completed")
	}
	res.Correct = len(errs) == 0 && res.Failed == 0
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	return res, nil
}
