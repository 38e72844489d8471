// Package server is the hemlock serve daemon: an HTTP/JSON front end over
// one persistent world (kernel, shared file system, dynamic-linker state).
// Programs are launched once and stay resident ("parked"); clients then
// call their exported public functions — through the very PLT/trampoline
// path a compiled call takes — and read or write shared variables by name.
//
// A request touches the world in place, on its own goroutine, under one
// lock: the world lock serializes launches, links, calls and variable
// access the way a guest's own lock serializes access to a shared segment,
// with no server goroutine in between. Each request carries a deadline. A
// request that acquires the world after its deadline does not run; one
// that has acquired it runs to completion within its step budget; once
// Close has taken the world, nothing runs. A run-to-completion launch
// runs its guest through Kernel.Run on the request's goroutine too, so the
// daemon starts no goroutine of its own until Run serves HTTP.
//
// Request bodies and replies go through the package's own JSON codec
// (codec.go), written for the API's types, and requests are routed by
// exact path; every error answer is a JSON {"error": ...}.
//
// Every request is measured into the world's own obsv registry
// ("server.*" counters and per-op latency histograms), which /metrics
// exposes — the request-level scoreboard the perf work tracks.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
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
	ErrBadRequest = errors.New("server: bad request")

	errMethod = errors.New("server: method not allowed") // 405
	errNoPath = errors.New("server: no such path")       // 404
)

// maxBody bounds every request body; a larger one answers 413.
const maxBody = 1 << 20

// shutdownGrace is how long Run drains in-flight requests after a signal.
const shutdownGrace = 10 * time.Second

// Config tunes the daemon. The zero value selects the defaults.
type Config struct {
	DefaultTimeout time.Duration // per-request deadline to acquire the world (default 5s)
	MaxSteps       uint64        // CPU step budget per launch/call (default 4M)

	// Deprecated: ignored. The daemon runs every guest on the request's
	// own goroutine, so it has no guest CPUs to size.
	CPUs int
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 4_000_000
	}
	return c
}

// Server owns one world and serves it over HTTP.
type Server struct {
	sys  *core.System
	cfg  Config
	quit chan struct{} // closed by Close

	// world is the world lock. It guards the kernel and every field below.
	world    sync.Mutex
	programs map[string]*core.Program
	nextID   int
	shm      *netshm.Node // /api/txn backend; nil without SetShm
	closed   bool
	hist     map[string]*obsv.Histogram // server.<op>_ns, registered on first use

	ctrReqs   *obsv.Counter
	ctrErrs   *obsv.Counter
	ctrExp    *obsv.Counter
	gPrograms *obsv.Gauge
}

// New wraps sys in a daemon. The caller must Close the server (Run does it
// on the way out).
func New(sys *core.System, cfg Config) *Server {
	s := &Server{
		sys:      sys,
		cfg:      cfg.withDefaults(),
		quit:     make(chan struct{}),
		programs: map[string]*core.Program{},
		hist:     map[string]*obsv.Histogram{},
	}
	r := sys.Obs().Registry()
	s.ctrReqs = r.Counter("server.requests")
	s.ctrErrs = r.Counter("server.errors")
	s.ctrExp = r.Counter("server.deadline_expired")
	s.gPrograms = r.Gauge("server.programs")
	return s
}

// Sys returns the served world (tests reach through it at quiesce).
func (s *Server) Sys() *core.System { return s.sys }

// do runs fn under the world lock on the caller's goroutine. A request
// that acquires the world after its deadline fails with ErrTimeout and fn
// never runs; once fn has started it runs to completion, bounded only by
// the step budget of the guest work it does. A waiting request can
// therefore overrun its deadline by the step budgets of the requests
// ahead of it.
func (s *Server) do(name string, timeout time.Duration, fn func() error) error {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	deadline := time.Now().Add(timeout)
	s.world.Lock()
	defer s.release()
	if s.closed {
		return ErrClosed
	}
	start := time.Now()
	if start.After(deadline) {
		s.ctrExp.Inc()
		return fmt.Errorf("%w (%s acquired the world after its deadline and did not run)", ErrTimeout, name)
	}
	h, ok := s.hist[name]
	if !ok {
		h = s.sys.Obs().Registry().Histogram("server." + name + "_ns")
		s.hist[name] = h
	}
	err := fn()
	h.Observe(uint64(time.Since(start)))
	return err
}

// release drops the world lock and yields. A sync.Mutex lets the goroutine
// that unlocks take the lock straight back, ahead of the waiter it has
// just woken, and a closed-loop client does exactly that: under perfbench
// serve's two clients a plain Unlock put p99 30–60% above a dedicated
// world goroutine's. Yielding lets the woken waiter run first — the
// handoff the mutex itself makes only in starvation mode — without
// parking every request the way a FIFO channel handoff does, which put
// p50 35–55% above it.
func (s *Server) release() {
	s.world.Unlock()
	runtime.Gosched()
}

// Close takes the world, refuses every later request with ErrClosed and
// flushes the trace sinks. Idempotent.
func (s *Server) Close() error {
	s.world.Lock()
	defer s.world.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.quit)
	return s.sys.Obs().Tracer().Close()
}

// Run serves the HTTP API on ln until a signal arrives on sigs (or Close
// is called), then shuts down gracefully: stop accepting, drain in-flight
// requests for up to shutdownGrace, flush sinks, return nil. Pass a
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
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
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
	return 0, fmt.Errorf("%w: unknown sharing class %q", ErrBadRequest, s)
}

// ---- operations (each under the world lock) ----------------------------------

// Launch performs a LaunchRequest with the given deadline. It is the
// programmatic twin of POST /api/launch. A named program stays resident
// whatever its state. An unnamed one is kept only if it has not exited by
// the end of the request: nothing can reach an exited program it has no
// name for.
func (s *Server) Launch(req *LaunchRequest, timeout time.Duration) (*LaunchResponse, error) {
	var resp *LaunchResponse
	err := s.do("launch", timeout, func() error {
		if s.programs[req.Name] != nil { // "" is never a key
			return fmt.Errorf("%w: program %q already exists", ErrBadRequest, req.Name)
		}
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
			return fmt.Errorf("%w: launch needs exe or modules", ErrBadRequest)
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
			if err := pg.Run(steps); err != nil {
				// The failed program gets no handle, so nothing could
				// reach or reap its process later: reap it now.
				pg.P.Exit(-1)
				return err
			}
		}
		resp = &LaunchResponse{PID: pg.P.PID, Exited: pg.P.Exited,
			ExitCode: pg.P.ExitCode, Output: pg.Output()}
		if req.Name == "" && pg.P.Exited {
			return nil
		}
		// An unnamed program takes the next p<N> no client has claimed.
		name := req.Name
		for name == "" || s.programs[name] != nil {
			s.nextID++
			name = "p" + strconv.Itoa(s.nextID)
		}
		s.programs[name] = pg
		s.gPrograms.Set(int64(len(s.programs)))
		resp.Program = name
		return nil
	})
	return resp, err
}

// program looks up a resident program. The caller holds the world.
func (s *Server) program(name string) (*core.Program, error) {
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
	if len(req.Args) > 4 {
		return nil, fmt.Errorf("%w: %d args (max 4: $a0-$a3)", ErrBadRequest, len(req.Args))
	}
	var resp *CallResponse
	err := s.do("call", timeout, func() error {
		pg, err := s.program(req.Program)
		if err != nil {
			return err
		}
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
	return resp, err
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
	var resp *VarResponse
	err := s.do("var_read", timeout, func() error {
		pg, err := s.program(program)
		if err != nil {
			return err
		}
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
	return resp, err
}

// WriteVar stores one word into a named object: POST /api/var.
func (s *Server) WriteVar(req *VarWriteRequest, timeout time.Duration) (*VarResponse, error) {
	var resp *VarResponse
	err := s.do("var_write", timeout, func() error {
		pg, err := s.program(req.Program)
		if err != nil {
			return err
		}
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
	return resp, err
}

// Info summarises the world: GET /api/info.
func (s *Server) Info(timeout time.Duration) (*InfoResponse, error) {
	var resp *InfoResponse
	err := s.do("info", timeout, func() error {
		names := make([]string, 0, len(s.programs))
		for n := range s.programs {
			names = append(names, n)
		}
		sort.Strings(names)
		resp = &InfoResponse{Programs: names, FS: s.sys.FS.Usage(), Zygotes: s.sys.K.Zygotes()}
		return nil
	})
	return resp, err
}

// ---- HTTP plumbing -----------------------------------------------------------

// Handler returns the daemon's HTTP API. It routes by exact path, with no
// cleaning and no redirects: /api//call answers 404.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	var q url.Values // parsed at most once, and only for a request with a query
	if r.URL.RawQuery != "" {
		q = r.URL.Query()
	}
	switch r.URL.Path {
	case "/metrics":
		s.handleMetrics(w, q)
	case "/healthz":
		s.handleHealthz(w)
	default:
		v, err := s.api(w, r, q)
		s.reply(w, v, err)
	}
}

// api runs one request under /api/ and returns its reply.
func (s *Server) api(w http.ResponseWriter, r *http.Request, q url.Values) (replyBody, error) {
	switch r.URL.Path {
	case "/api/launch":
		var req LaunchRequest
		timeout, err := s.readRequest(w, r, q, &req, http.MethodPost)
		if err != nil {
			return nil, err
		}
		return s.Launch(&req, timeout)
	case "/api/call":
		var req CallRequest
		timeout, err := s.readRequest(w, r, q, &req, http.MethodPost)
		if err != nil {
			return nil, err
		}
		return s.Call(&req, timeout)
	case "/api/var":
		return s.handleVar(w, r, q)
	case "/api/txn":
		return s.handleTxn(w, r, q)
	case "/api/info":
		timeout, err := s.timeoutOf(q)
		if err != nil {
			return nil, err
		}
		return s.Info(timeout)
	}
	return nil, fmt.Errorf("%w: %s", errNoPath, r.URL.Path)
}

// readRequest checks that r is a POST, reads its deadline, and decodes its
// body, read whole through the maxBody limit, into v. allow lists the
// methods r's path takes, for the Allow header of a 405.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, q url.Values, v any, allow string) (time.Duration, error) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", allow)
		return 0, fmt.Errorf("%w: %s %s takes %s", errMethod, r.Method, r.URL.Path, allow)
	}
	timeout, err := s.timeoutOf(q)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = decodeRequest(body, v)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: body: %w", ErrBadRequest, err)
	}
	return timeout, nil
}

// timeoutOf reads the request's deadline: ?timeout_ms=, a positive number
// of milliseconds, else the daemon's default.
func (s *Server) timeoutOf(q url.Values) (time.Duration, error) {
	if !q.Has("timeout_ms") {
		return s.cfg.DefaultTimeout, nil
	}
	ms := q.Get("timeout_ms")
	n, err := strconv.ParseInt(ms, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("%w: timeout_ms %q is not a positive number of milliseconds", ErrBadRequest, ms)
	}
	return time.Duration(n) * time.Millisecond, nil
}

// jsonContentType is the Content-Type of every reply that reply sends. It
// is shared, which saves each reply an allocation: net/http replaces or
// deletes header values but never writes into them.
var jsonContentType = []string{"application/json"}

// reply answers a request with v, or with err's status and a JSON error.
// The body is appended into one buffer and sent with one Write.
func (s *Server) reply(w http.ResponseWriter, v replyBody, err error) {
	s.ctrReqs.Inc()
	code := http.StatusOK
	if err != nil {
		s.ctrErrs.Inc()
		code = http.StatusInternalServerError
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			code = http.StatusRequestEntityTooLarge
		case errors.Is(err, ErrBadRequest):
			code = http.StatusBadRequest
		case errors.Is(err, errMethod):
			code = http.StatusMethodNotAllowed
		case errors.Is(err, ErrTimeout):
			code = http.StatusGatewayTimeout
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrNoProgram), errors.Is(err, ErrNoFunction),
			errors.Is(err, errNoPath), errors.Is(err, shmfs.ErrNotExist):
			code = http.StatusNotFound
		}
		v = &errResponse{Error: err.Error()}
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(v.appendJSON(make([]byte, 0, 128))) // a failed write leaves no one to tell
}

func (s *Server) handleVar(w http.ResponseWriter, r *http.Request, q url.Values) (replyBody, error) {
	if r.Method == http.MethodGet {
		timeout, err := s.timeoutOf(q)
		if err != nil {
			return nil, err
		}
		var off uint64
		if o := q.Get("off"); o != "" {
			if off, err = strconv.ParseUint(o, 10, 32); err != nil {
				return nil, fmt.Errorf("%w: off: %w", ErrBadRequest, err)
			}
		}
		return s.ReadVar(q.Get("program"), q.Get("name"), uint32(off), timeout)
	}
	var req VarWriteRequest
	timeout, err := s.readRequest(w, r, q, &req, "GET, POST")
	if err != nil {
		return nil, err
	}
	return s.WriteVar(&req, timeout)
}

// handleMetrics dumps the world's obsv registry: JSON by default, the
// sorted text rendering with ?format=text.
func (s *Server) handleMetrics(w http.ResponseWriter, q url.Values) {
	s.ctrReqs.Inc()
	snap := s.sys.Obs().Registry().Snapshot()
	if q.Get("format") == "text" {
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

func (s *Server) handleHealthz(w http.ResponseWriter) {
	select {
	case <-s.quit:
		s.reply(w, nil, ErrClosed)
	default:
		w.Write([]byte("ok\n"))
	}
}
