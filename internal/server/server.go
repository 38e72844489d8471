// Package server is the hemlock serve daemon: an HTTP/JSON front end over
// one persistent world (kernel, shared file system, dynamic-linker state).
// Programs are launched once and stay resident ("parked"); clients then
// call their exported public functions — through the very PLT/trampoline
// path a compiled call takes — and read or write shared variables by name.
//
// World mutations (launch, link, variable access) serialize onto a single
// world-owner goroutine through a command channel, which keeps the
// daemon's observable op order deterministic. Each request carries a
// deadline: expired commands are failed at dequeue without touching the
// kernel, and submitters stop waiting when their deadline passes even if
// the command is still queued (the buffered reply channel keeps the owner
// from blocking). Guest execution, however, is no longer the owner's job:
// the daemon attaches a kern.Scheduler (HEMLOCK_CPUS host goroutines,
// work-stealing run queues — see docs/SMP.md) and run-to-completion
// launches are submitted to it, so the world owner is a scheduler client
// like any other and guest CPUs burn on their own cores.
//
// Every request is measured into the world's own obsv registry
// ("server.*" counters and per-op latency histograms), which /metrics
// exposes — the request-level scoreboard the perf work tracks.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/kern"
	"hemlock/internal/lds"
	"hemlock/internal/netshm"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
)

// Errors surfaced to clients (also carried as HTTP status codes).
var (
	ErrTimeout    = errors.New("server: request deadline exceeded")
	ErrClosed     = errors.New("server: daemon is shutting down")
	ErrNoProgram  = errors.New("server: no such program")
	ErrNoFunction = errors.New("server: no such function")
)

// Config tunes the daemon. The zero value selects the defaults.
type Config struct {
	DefaultTimeout time.Duration // per-request deadline (default 5s)
	MaxSteps       uint64        // CPU step budget per launch/call (default 4M)
	ShutdownGrace  time.Duration // drain window for in-flight requests (default 10s)
	CPUs           int           // scheduler CPUs (default HEMLOCK_CPUS / host cores)
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 4_000_000
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.CPUs == 0 {
		c.CPUs = kern.DefaultCPUs()
	}
	return c
}

// op is one command bound for the world-owner goroutine.
type op struct {
	name     string
	deadline time.Time
	fn       func() error
	done     chan error // buffered: the owner never blocks on a gone submitter
}

// Server owns one world and serves it over HTTP.
type Server struct {
	sys *core.System
	cfg Config
	sch *kern.Scheduler // guest CPUs; launches run here, not on the world owner

	ops      chan *op
	quit     chan struct{} // closed by Close: world loop exits
	loopDone chan struct{} // closed when the world loop has exited

	mu       sync.Mutex
	programs map[string]*core.Program
	nextID   int
	closed   bool
	shm      *netshm.Node // /api/txn backend; nil without SetShm

	ctrReqs   *obsv.Counter
	ctrErrs   *obsv.Counter
	ctrExp    *obsv.Counter
	gPrograms *obsv.Gauge
}

// New wraps sys in a daemon and starts its world-owner goroutine. The
// caller must Close the server (Run does it on the way out).
func New(sys *core.System, cfg Config) *Server {
	s := &Server{
		sys:      sys,
		cfg:      cfg.withDefaults(),
		ops:      make(chan *op, 64),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		programs: map[string]*core.Program{},
	}
	r := sys.Obs().Registry()
	s.ctrReqs = r.Counter("server.requests")
	s.ctrErrs = r.Counter("server.errors")
	s.ctrExp = r.Counter("server.deadline_expired")
	s.gPrograms = r.Gauge("server.programs")
	s.sch = kern.NewScheduler(sys.K, kern.SchedConfig{CPUs: s.cfg.CPUs})
	go s.worldLoop()
	return s
}

// Scheduler exposes the daemon's guest-CPU scheduler (tests size their
// expectations by its CPUs).
func (s *Server) Scheduler() *kern.Scheduler { return s.sch }

// Sys returns the served world (tests reach through it at quiesce).
func (s *Server) Sys() *core.System { return s.sys }

// worldLoop is the world-owner goroutine: the only code that touches the
// kernel after New returns.
func (s *Server) worldLoop() {
	defer close(s.loopDone)
	hist := map[string]*obsv.Histogram{}
	for {
		select {
		case o := <-s.ops:
			if !o.deadline.IsZero() && time.Now().After(o.deadline) {
				s.ctrExp.Inc()
				o.done <- fmt.Errorf("%w (%s expired in queue)", ErrTimeout, o.name)
				continue
			}
			h, ok := hist[o.name]
			if !ok {
				h = s.sys.Obs().Registry().Histogram("server." + o.name + "_ns")
				hist[o.name] = h
			}
			start := time.Now()
			err := o.fn()
			h.Observe(uint64(time.Since(start)))
			o.done <- err
		case <-s.quit:
			return
		}
	}
}

// do runs fn on the world-owner goroutine and waits for it, bounded by the
// request deadline.
func (s *Server) do(name string, timeout time.Duration, fn func() error) error {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	select {
	case <-s.quit: // the world loop is gone; queued ops would never run
		return ErrClosed
	default:
	}
	deadline := time.Now().Add(timeout)
	o := &op{name: name, deadline: deadline, fn: fn, done: make(chan error, 1)}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case s.ops <- o:
	case <-s.quit:
		return ErrClosed
	case <-t.C:
		return fmt.Errorf("%w (%s queue full)", ErrTimeout, name)
	}
	select {
	case err := <-o.done:
		return err
	case <-s.quit:
		return ErrClosed
	case <-t.C:
		return fmt.Errorf("%w (%s)", ErrTimeout, name)
	}
}

// Close stops the world loop and flushes the trace sinks. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.loopDone
	s.sch.Stop()
	return s.sys.Obs().Tracer().Close()
}

// Run serves the HTTP API on ln until a signal arrives on sigs (or Close
// is called), then shuts down gracefully: stop accepting, drain in-flight
// requests for up to ShutdownGrace, flush sinks, return nil. Pass a
// signal.Notify channel for real daemons, or a fake for tests.
func (s *Server) Run(ln net.Listener, sigs <-chan os.Signal) error {
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	var err error
	select {
	case <-sigs:
	case <-s.quit:
	case err = <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.Close()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if serr := hs.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ---- request/response bodies -------------------------------------------------

// ModuleSpec names one module and its sharing class for a link.
type ModuleSpec struct {
	Name  string `json:"name"`
	Class string `json:"class"`
}

// LaunchRequest launches a program into the world, either from a linked
// HEMX executable (Exe) or by linking Modules now.
type LaunchRequest struct {
	Name       string            `json:"name,omitempty"` // program handle (default "p<N>")
	Exe        string            `json:"exe,omitempty"`
	Modules    []ModuleSpec      `json:"modules,omitempty"`
	Path       []string          `json:"path,omitempty"` // library search directories
	JumpTables bool              `json:"jump_tables,omitempty"`
	Env        map[string]string `json:"env,omitempty"`
	UID        int               `json:"uid,omitempty"`
	Run        bool              `json:"run,omitempty"` // drive main to completion
	MaxSteps   uint64            `json:"max_steps,omitempty"`
}

// LaunchResponse reports the launched (and possibly completed) program.
type LaunchResponse struct {
	Program  string `json:"program"`
	PID      int    `json:"pid"`
	Exited   bool   `json:"exited"`
	ExitCode int    `json:"exit_code"`
	Output   string `json:"output,omitempty"`
}

// CallRequest invokes an exported function on a resident program.
type CallRequest struct {
	Program  string   `json:"program"`
	Fn       string   `json:"fn"`
	Args     []uint32 `json:"args,omitempty"` // up to 4, $a0..$a3
	MaxSteps uint64   `json:"max_steps,omitempty"`
}

// CallResponse carries the function's $v0 and the steps it retired.
type CallResponse struct {
	Ret   uint32 `json:"ret"`
	Steps uint64 `json:"steps"`
}

// VarResponse reports one word of a named program object.
type VarResponse struct {
	Program string `json:"program"`
	Name    string `json:"name"`
	Addr    uint32 `json:"addr"`
	Off     uint32 `json:"off"`
	Value   uint32 `json:"value"`
}

// VarWriteRequest stores one word into a named program object.
type VarWriteRequest struct {
	Program string `json:"program"`
	Name    string `json:"name"`
	Off     uint32 `json:"off"`
	Value   uint32 `json:"value"`
}

// InfoResponse summarises the world. Zygotes lists the parked launch
// templates (content-hash key, hidden template PID, resident pages, and
// how many launches each has served by CoW clone).
type InfoResponse struct {
	Programs []string          `json:"programs"`
	FS       shmfs.Usage       `json:"fs"`
	Zygotes  []kern.ZygoteInfo `json:"zygotes,omitempty"`
}

type errResponse struct {
	Error string `json:"error"`
}

func parseClass(s string) (objfile.Class, error) {
	switch s {
	case "static_private", "static-private", "":
		return objfile.StaticPrivate, nil
	case "dynamic_private", "dynamic-private":
		return objfile.DynamicPrivate, nil
	case "static_public", "static-public":
		return objfile.StaticPublic, nil
	case "dynamic_public", "dynamic-public":
		return objfile.DynamicPublic, nil
	}
	return 0, fmt.Errorf("server: unknown sharing class %q", s)
}

// ---- operations (world-owner side) -------------------------------------------

// Launch performs a LaunchRequest with the given deadline. It is the
// programmatic twin of POST /api/launch.
func (s *Server) Launch(req *LaunchRequest, timeout time.Duration) (*LaunchResponse, error) {
	var resp *LaunchResponse
	err := s.do("launch", timeout, func() error {
		var im *objfile.Image
		switch {
		case req.Exe != "":
			var err error
			im, err = s.sys.LoadExecutable(req.Exe)
			if err != nil {
				return err
			}
		case len(req.Modules) > 0:
			opts := &lds.Options{Output: req.Name, UID: req.UID,
				CmdPath: req.Path, JumpTables: req.JumpTables}
			for _, m := range req.Modules {
				cl, err := parseClass(m.Class)
				if err != nil {
					return err
				}
				opts.Modules = append(opts.Modules, lds.Input{Name: m.Name, Class: cl})
			}
			res, err := s.sys.Link(opts)
			if err != nil {
				return err
			}
			im = res.Image
		default:
			return errors.New("server: launch needs exe or modules")
		}
		pg, err := s.sys.Launch(im, req.UID, req.Env)
		if err != nil {
			return err
		}
		if req.Run {
			steps := req.MaxSteps
			if steps == 0 {
				steps = s.cfg.MaxSteps
			}
			// Run on a scheduler CPU, not the world owner: the owner
			// submits and waits like any other scheduler client.
			if _, err := s.sch.Run(pg.P, steps); err != nil {
				return err
			}
		}
		name := req.Name
		s.mu.Lock()
		if name == "" {
			s.nextID++
			name = "p" + strconv.Itoa(s.nextID)
		}
		if _, dup := s.programs[name]; dup {
			s.mu.Unlock()
			return fmt.Errorf("server: program %q already exists", name)
		}
		s.programs[name] = pg
		s.gPrograms.Set(int64(len(s.programs)))
		s.mu.Unlock()
		resp = &LaunchResponse{Program: name, PID: pg.P.PID,
			Exited: pg.P.Exited, ExitCode: pg.P.ExitCode, Output: pg.Output()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (s *Server) program(name string) (*core.Program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.programs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoProgram, name)
	}
	return pg, nil
}

// Call invokes an exported function on a resident program: the
// programmatic twin of POST /api/call. The function address is resolved
// the way the running program would resolve it — image symbols and loaded
// modules first, then the image's jump-table stubs, so the first call of a
// lazily-linked function traps to ldl and patches the stub exactly as a
// compiled call would.
func (s *Server) Call(req *CallRequest, timeout time.Duration) (*CallResponse, error) {
	pg, err := s.program(req.Program)
	if err != nil {
		return nil, err
	}
	if len(req.Args) > 4 {
		return nil, fmt.Errorf("server: %d args (max 4: $a0-$a3)", len(req.Args))
	}
	var resp *CallResponse
	err = s.do("call", timeout, func() error {
		target, ok := s.resolveFn(pg, req.Fn)
		if !ok {
			return fmt.Errorf("%w: %q in %q", ErrNoFunction, req.Fn, req.Program)
		}
		var args [4]uint32
		copy(args[:], req.Args)
		steps := req.MaxSteps
		if steps == 0 {
			steps = s.cfg.MaxSteps
		}
		ret, n, err := s.sys.K.CallFunction(pg.P, target, args, steps)
		if err != nil {
			return err
		}
		resp = &CallResponse{Ret: ret, Steps: n}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// resolveFn finds the call target for name: a resolved symbol if the
// program can see one, else the image's PLT stub (whose first call traps
// and links the module the symbol lives in).
func (s *Server) resolveFn(pg *core.Program, name string) (uint32, bool) {
	if addr, ok := pg.LDL.Resolve(name); ok {
		return addr, true
	}
	for _, st := range pg.LDL.Image.PLT {
		if st.Name == name {
			return st.Addr, true
		}
	}
	return 0, false
}

// ReadVar loads one word of a named object: GET /api/var.
func (s *Server) ReadVar(program, name string, off uint32, timeout time.Duration) (*VarResponse, error) {
	pg, err := s.program(program)
	if err != nil {
		return nil, err
	}
	var resp *VarResponse
	err = s.do("var_read", timeout, func() error {
		v, err := pg.Var(name)
		if err != nil {
			return err
		}
		val, err := v.LoadAt(off)
		if err != nil {
			return err
		}
		resp = &VarResponse{Program: program, Name: name, Addr: v.Addr, Off: off, Value: val}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// WriteVar stores one word into a named object: POST /api/var.
func (s *Server) WriteVar(req *VarWriteRequest, timeout time.Duration) (*VarResponse, error) {
	pg, err := s.program(req.Program)
	if err != nil {
		return nil, err
	}
	var resp *VarResponse
	err = s.do("var_write", timeout, func() error {
		v, err := pg.Var(req.Name)
		if err != nil {
			return err
		}
		if err := v.StoreAt(req.Off, req.Value); err != nil {
			return err
		}
		resp = &VarResponse{Program: req.Program, Name: req.Name, Addr: v.Addr,
			Off: req.Off, Value: req.Value}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Info summarises the world: GET /api/info.
func (s *Server) Info(timeout time.Duration) (*InfoResponse, error) {
	s.mu.Lock()
	names := make([]string, 0, len(s.programs))
	for n := range s.programs {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	var usage shmfs.Usage
	var zygotes []kern.ZygoteInfo
	if err := s.do("info", timeout, func() error {
		usage = s.sys.FS.Usage()
		zygotes = s.sys.K.Zygotes()
		return nil
	}); err != nil {
		return nil, err
	}
	return &InfoResponse{Programs: names, FS: usage, Zygotes: zygotes}, nil
}

// ---- HTTP plumbing -----------------------------------------------------------

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/launch", s.handleLaunch)
	mux.HandleFunc("/api/call", s.handleCall)
	mux.HandleFunc("/api/var", s.handleVar)
	mux.HandleFunc("/api/info", s.handleInfo)
	mux.HandleFunc("/api/txn", s.handleTxn)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// timeoutOf reads the per-request deadline override (?timeout_ms=).
func (s *Server) timeoutOf(r *http.Request) time.Duration {
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		if n, err := strconv.Atoi(ms); err == nil && n > 0 {
			return time.Duration(n) * time.Millisecond
		}
	}
	return s.cfg.DefaultTimeout
}

func (s *Server) reply(w http.ResponseWriter, v any, err error) {
	s.ctrReqs.Inc()
	if err != nil {
		s.ctrErrs.Inc()
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrTimeout):
			code = http.StatusGatewayTimeout
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrNoProgram), errors.Is(err, ErrNoFunction),
			errors.Is(err, shmfs.ErrNotExist):
			code = http.StatusNotFound
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(errResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func decode[T any](r *http.Request) (*T, error) {
	var v T
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("server: bad request body: %w", err)
	}
	return &v, nil
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := decode[LaunchRequest](r)
	if err != nil {
		s.reply(w, nil, err)
		return
	}
	resp, err := s.Launch(req, s.timeoutOf(r))
	s.reply(w, resp, err)
}

func (s *Server) handleCall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := decode[CallRequest](r)
	if err != nil {
		s.reply(w, nil, err)
		return
	}
	resp, err := s.Call(req, s.timeoutOf(r))
	s.reply(w, resp, err)
}

func (s *Server) handleVar(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		var off uint64
		if o := q.Get("off"); o != "" {
			var err error
			if off, err = strconv.ParseUint(o, 0, 32); err != nil {
				s.reply(w, nil, fmt.Errorf("server: bad off: %w", err))
				return
			}
		}
		resp, err := s.ReadVar(q.Get("program"), q.Get("name"), uint32(off), s.timeoutOf(r))
		s.reply(w, resp, err)
	case http.MethodPost:
		req, err := decode[VarWriteRequest](r)
		if err != nil {
			s.reply(w, nil, err)
			return
		}
		resp, err := s.WriteVar(req, s.timeoutOf(r))
		s.reply(w, resp, err)
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	resp, err := s.Info(s.timeoutOf(r))
	s.reply(w, resp, err)
}

// handleMetrics dumps the world's obsv registry: JSON by default, the
// sorted text rendering with ?format=text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.ctrReqs.Inc()
	snap := s.sys.Obs().Registry().Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.Text())
		return
	}
	b, err := snap.JSON()
	if err != nil {
		s.reply(w, nil, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.quit:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	default:
		w.Write([]byte("ok\n"))
	}
}
