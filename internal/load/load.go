// Package load drives synthetic client traffic at a hemlock serve daemon:
// N concurrent clients × M requests each, drawn from a weighted mix of the
// three request families the daemon serves (launch a program, call an
// exported function, read/write a shared variable). It works in-process
// (straight into a server.Server, no sockets) or over TCP against a
// running daemon, and reports throughput plus p50/p95/p99 latency per
// operation — the percentiles come from obsv histograms, so the load
// harness measures with the same instrument the daemon itself exports at
// /metrics.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hemlock/internal/obsv"
	"hemlock/internal/server"
)

// Caller abstracts where the requests go: in-process or over TCP.
type Caller interface {
	Launch(req *server.LaunchRequest) (*server.LaunchResponse, error)
	Call(req *server.CallRequest) (*server.CallResponse, error)
	ReadVar(program, name string, off uint32) (*server.VarResponse, error)
	WriteVar(req *server.VarWriteRequest) (*server.VarResponse, error)
}

// Mix weights the request families. The zero value selects Mixed.
type Mix struct {
	Launch int // launch a fresh program and run its main
	Call   int // call an exported function on the resident agent
	VarRW  int // read/write a shared variable (alternating)
}

// Named mixes for the CLI's -mix flag.
var (
	MixLaunchHeavy = Mix{Launch: 8, Call: 1, VarRW: 1}
	MixCallHeavy   = Mix{Launch: 1, Call: 8, VarRW: 1}
	MixVarHeavy    = Mix{Launch: 1, Call: 1, VarRW: 8}
	MixMixed       = Mix{Launch: 1, Call: 5, VarRW: 4}
)

// MixByName resolves a -mix flag value.
func MixByName(name string) (Mix, error) {
	switch name {
	case "launch":
		return MixLaunchHeavy, nil
	case "call":
		return MixCallHeavy, nil
	case "var":
		return MixVarHeavy, nil
	case "mixed", "":
		return MixMixed, nil
	}
	return Mix{}, fmt.Errorf("load: unknown mix %q (launch, call, var, mixed)", name)
}

func (m Mix) total() int { return m.Launch + m.Call + m.VarRW }

// Config shapes a load run.
type Config struct {
	Clients  int    // concurrent clients (default 8)
	Requests int    // requests per client (default 100)
	Mix      Mix    // request mix (default MixMixed)
	Seed     int64  // per-run base seed for the mix draw (default 1)
	Agent    string // resident program the call/var families target (default "agent")
	Exe      string // executable the launch family boots (default server.DemoExe)
}

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Requests == 0 {
		c.Requests = 100
	}
	if c.Mix.total() == 0 {
		c.Mix = MixMixed
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Agent == "" {
		c.Agent = "agent"
	}
	if c.Exe == "" {
		c.Exe = server.DemoExe
	}
	return c
}

// OpStats is one operation family's latency summary.
type OpStats struct {
	Op    string `json:"op"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50_ns"`
	P95   uint64 `json:"p95_ns"`
	P99   uint64 `json:"p99_ns"`
}

// Report is the outcome of a load run.
type Report struct {
	Requests   int           `json:"requests"`
	Errors     int           `json:"errors"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_rps"`
	Ops        []OpStats     `json:"ops"`
	FirstErr   string        `json:"first_error,omitempty"`
}

// Table renders the report as the CLI's latency table.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests in %v (%.0f req/s), %d errors\n",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Errors)
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %12s\n", "op", "count", "p50", "p95", "p99")
	for _, o := range r.Ops {
		fmt.Fprintf(&b, "%-10s %8d %12v %12v %12v\n", o.Op, o.Count,
			time.Duration(o.P50), time.Duration(o.P95), time.Duration(o.P99))
	}
	if r.FirstErr != "" {
		fmt.Fprintf(&b, "first error: %s\n", r.FirstErr)
	}
	return b.String()
}

// Run fires cfg.Clients×cfg.Requests requests at c and summarises the
// outcome. Every request's latency is observed into a per-op obsv
// histogram; the report's percentiles are read back out of the snapshots.
func Run(c Caller, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	reg := obsv.NewRegistry()
	hists := map[string]*obsv.Histogram{
		"launch":    reg.Histogram("load.launch_ns"),
		"call":      reg.Histogram("load.call_ns"),
		"var_read":  reg.Histogram("load.var_read_ns"),
		"var_write": reg.Histogram("load.var_write_ns"),
	}
	var (
		mu       sync.Mutex
		errs     int
		firstErr error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for i := 0; i < cfg.Requests; i++ {
				op, err := fire(c, cfg, rng, w, i, hists)
				if err != nil {
					mu.Lock()
					errs++
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", op, err)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := cfg.Clients * cfg.Requests
	rep := &Report{
		Requests:   total,
		Errors:     errs,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
	}
	if firstErr != nil {
		rep.FirstErr = firstErr.Error()
	}
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		op := strings.TrimSuffix(strings.TrimPrefix(name, "load."), "_ns")
		rep.Ops = append(rep.Ops, OpStats{Op: op, Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99})
	}
	return rep, nil
}

// fire issues one request drawn from the mix and times it.
func fire(c Caller, cfg Config, rng *rand.Rand, worker, seq int, hists map[string]*obsv.Histogram) (string, error) {
	draw := rng.Intn(cfg.Mix.total())
	slot := uint32(worker % server.DemoSlots)
	val := uint32(worker*100000 + seq)
	var (
		op  string
		err error
	)
	start := time.Now()
	switch {
	case draw < cfg.Mix.Launch:
		op = "launch"
		_, err = c.Launch(&server.LaunchRequest{Exe: cfg.Exe, Run: true})
	case draw < cfg.Mix.Launch+cfg.Mix.Call:
		op = "call"
		if seq%2 == 0 {
			_, err = c.Call(&server.CallRequest{Program: cfg.Agent, Fn: "kv_put", Args: []uint32{slot, val}})
		} else {
			_, err = c.Call(&server.CallRequest{Program: cfg.Agent, Fn: "kv_get", Args: []uint32{slot}})
		}
	default:
		if seq%2 == 0 {
			op = "var_write"
			_, err = c.WriteVar(&server.VarWriteRequest{Program: cfg.Agent, Name: "kv_table", Off: slot * 4, Value: val})
		} else {
			op = "var_read"
			_, err = c.ReadVar(cfg.Agent, "kv_hits", 0)
		}
	}
	hists[op].Observe(uint64(time.Since(start)))
	return op, err
}

// ---- in-process caller -------------------------------------------------------

type direct struct{ s *server.Server }

// NewDirect returns a Caller that drives the server in-process: no
// sockets, no HTTP — each call takes the world lock on the client's own
// goroutine, the way the CI smoke run uses it.
func NewDirect(s *server.Server) Caller { return direct{s} }

func (d direct) Launch(req *server.LaunchRequest) (*server.LaunchResponse, error) {
	return d.s.Launch(req, 0)
}
func (d direct) Call(req *server.CallRequest) (*server.CallResponse, error) {
	return d.s.Call(req, 0)
}
func (d direct) ReadVar(program, name string, off uint32) (*server.VarResponse, error) {
	return d.s.ReadVar(program, name, off, 0)
}
func (d direct) WriteVar(req *server.VarWriteRequest) (*server.VarResponse, error) {
	return d.s.WriteVar(req, 0)
}

// ---- TCP caller --------------------------------------------------------------

type httpCaller struct {
	base   string
	client *http.Client
}

// NewHTTP returns a Caller that speaks the daemon's HTTP API at base
// (e.g. "http://127.0.0.1:8080"). A nil client uses http.DefaultClient.
func NewHTTP(base string, client *http.Client) Caller {
	if client == nil {
		client = http.DefaultClient
	}
	return &httpCaller{base: strings.TrimRight(base, "/"), client: client}
}

func (h *httpCaller) post(path string, req, resp any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeResp(r, resp)
}

func decodeResp(r *http.Response, resp any) error {
	defer func() {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}()
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(r.Body).Decode(&e)
		if e.Error == "" {
			e.Error = r.Status
		}
		return fmt.Errorf("load: %s", e.Error)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func (h *httpCaller) Launch(req *server.LaunchRequest) (*server.LaunchResponse, error) {
	var resp server.LaunchResponse
	if err := h.post("/api/launch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (h *httpCaller) Call(req *server.CallRequest) (*server.CallResponse, error) {
	var resp server.CallResponse
	if err := h.post("/api/call", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (h *httpCaller) ReadVar(program, name string, off uint32) (*server.VarResponse, error) {
	u := h.base + "/api/var?program=" + url.QueryEscape(program) +
		"&name=" + url.QueryEscape(name) + "&off=" + strconv.FormatUint(uint64(off), 10)
	r, err := h.client.Get(u)
	if err != nil {
		return nil, err
	}
	var resp server.VarResponse
	if err := decodeResp(r, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (h *httpCaller) WriteVar(req *server.VarWriteRequest) (*server.VarResponse, error) {
	var resp server.VarResponse
	if err := h.post("/api/var", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
