package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// newDemoServer boots a world with the demo kv program installed and
// launches the resident agent parked (main never runs; clients drive it
// entirely through calls), returning the server plus the agent's handle.
func newDemoServer(t *testing.T) (*Server, string) {
	t.Helper()
	sys := core.NewSystem()
	if _, err := InstallDemo(sys); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Config{})
	t.Cleanup(func() { s.Close() })
	resp, err := s.Launch(&LaunchRequest{Name: "agent", Exe: DemoExe}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Exited {
		t.Fatalf("parked agent exited: %+v", resp)
	}
	return s, resp.Program
}

func postJSON(t *testing.T, h http.Handler, url string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func getURL(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

// TestDemoCallsReuseBlocks: kv_get starts at the kv module's page-aligned
// base, and kv_put stores to kv_table and kv_hits, which sit on the
// module's data page, not beside its code. After the first call of each,
// repeated calls build no block and invalidate none.
func TestDemoCallsReuseBlocks(t *testing.T) {
	s, agent := newDemoServer(t)
	h := s.Handler()
	call := func(fn string, args ...uint32) {
		t.Helper()
		if rr, body := postJSON(t, h, "/api/call", CallRequest{Program: agent, Fn: fn, Args: args}); rr.Code != http.StatusOK {
			t.Fatalf("call %s: %d %s", fn, rr.Code, body)
		}
	}
	call("kv_get", 1)
	call("kv_put", 1, 5)
	reg := s.sys.Obs().Registry()
	before := reg.Snapshot().Counters
	for i := uint32(0); i < 100; i++ {
		call("kv_get", i)
		call("kv_put", i, i)
	}
	after := reg.Snapshot().Counters
	if n := after["vm.block_build"] - before["vm.block_build"]; n != 0 {
		t.Errorf("%d blocks built over 200 repeated calls, want 0", n)
	}
	if n := after["vm.block_invalidate"] - before["vm.block_invalidate"]; n != 0 {
		t.Errorf("%d blocks invalidated over 200 repeated calls, want 0", n)
	}
}

func TestServeEndpoints(t *testing.T) {
	s, agent := newDemoServer(t)
	h := s.Handler()

	// Call: kv_put stores into the shared table and returns the old value.
	rr, body := postJSON(t, h, "/api/call", CallRequest{Program: agent, Fn: "kv_put", Args: []uint32{7, 1234}})
	if rr.Code != http.StatusOK {
		t.Fatalf("call kv_put: %d %s", rr.Code, body)
	}
	var call CallResponse
	if err := json.Unmarshal(body, &call); err != nil {
		t.Fatal(err)
	}
	if call.Ret != 0 {
		t.Fatalf("kv_put old value = %d, want 0", call.Ret)
	}

	// Call: kv_get reads it back.
	rr, body = postJSON(t, h, "/api/call", CallRequest{Program: agent, Fn: "kv_get", Args: []uint32{7}})
	if rr.Code != http.StatusOK {
		t.Fatalf("call kv_get: %d %s", rr.Code, body)
	}
	if err := json.Unmarshal(body, &call); err != nil {
		t.Fatal(err)
	}
	if call.Ret != 1234 {
		t.Fatalf("kv_get(7) = %d, want 1234", call.Ret)
	}

	// Var read: kv_hits counts the kv_put (the agent's main never ran).
	rr, body = getURL(t, h, "/api/var?program="+agent+"&name=kv_hits")
	if rr.Code != http.StatusOK {
		t.Fatalf("var read: %d %s", rr.Code, body)
	}
	var vr VarResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Value != 1 {
		t.Fatalf("kv_hits = %d, want 1", vr.Value)
	}

	// Var write: store straight into the shared table, read back via call.
	rr, body = postJSON(t, h, "/api/var", VarWriteRequest{Program: agent, Name: "kv_table", Off: 9 * 4, Value: 777})
	if rr.Code != http.StatusOK {
		t.Fatalf("var write: %d %s", rr.Code, body)
	}
	rr, body = postJSON(t, h, "/api/call", CallRequest{Program: agent, Fn: "kv_get", Args: []uint32{9}})
	if err := json.Unmarshal(body, &call); err != nil {
		t.Fatalf("kv_get(9): %d %s", rr.Code, body)
	}
	if call.Ret != 777 {
		t.Fatalf("kv_get(9) = %d, want 777", call.Ret)
	}

	// Launch a second program over HTTP; its main bumps kv_hits too. It is
	// unnamed and has exited, so it is not kept resident.
	rr, body = postJSON(t, h, "/api/launch", LaunchRequest{Exe: DemoExe, Run: true})
	if rr.Code != http.StatusOK {
		t.Fatalf("launch: %d %s", rr.Code, body)
	}
	var lr LaunchResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Program != "" || lr.PID == 0 || !lr.Exited || lr.ExitCode != 0 {
		t.Fatalf("launch response: %+v", lr)
	}

	// Info lists the one resident program and reports file-system usage.
	rr, body = getURL(t, h, "/api/info")
	if rr.Code != http.StatusOK {
		t.Fatalf("info: %d %s", rr.Code, body)
	}
	var info InfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Programs) != 1 || info.FS.Files == 0 {
		t.Fatalf("info: %+v", info)
	}
	// Stable linking is on by default: both HTTP launches of DemoExe share
	// one parked zygote template, and the second launch was a CoW clone.
	if len(info.Zygotes) == 0 {
		t.Fatalf("info reports no zygote templates: %+v", info)
	}
	var clones uint64
	for _, z := range info.Zygotes {
		if z.Key == "" || z.Pages == 0 {
			t.Fatalf("malformed zygote entry: %+v", z)
		}
		clones += z.Clones
	}
	if clones == 0 {
		t.Fatalf("repeat launch of %s did not clone a zygote: %+v", DemoExe, info.Zygotes)
	}

	// Metrics carries the server counters and per-op histograms.
	rr, body = getURL(t, h, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rr.Code)
	}
	var snap struct {
		Counters   map[string]uint64          `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] == 0 {
		t.Fatalf("no server.requests counter in metrics: %s", body)
	}
	if _, ok := snap.Histograms["server.call_ns"]; !ok {
		t.Fatalf("no server.call_ns histogram in metrics")
	}
	if rr, body = getURL(t, h, "/metrics?format=text"); rr.Code != http.StatusOK || !bytes.Contains(body, []byte("server.requests")) {
		t.Fatalf("text metrics: %d %s", rr.Code, body)
	}

	// Healthz.
	if rr, _ = getURL(t, h, "/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rr.Code)
	}

	// Errors map to 404: unknown program, unknown function.
	if rr, _ = postJSON(t, h, "/api/call", CallRequest{Program: "nope", Fn: "kv_get"}); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown program: %d", rr.Code)
	}
	if rr, _ = postJSON(t, h, "/api/call", CallRequest{Program: agent, Fn: "nope"}); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown function: %d", rr.Code)
	}
}

// TestClientMistakes: a request the client got wrong answers 400 (404 for
// a path the API does not have, 405 for a method its path does not take,
// 413 for an oversized body) with a JSON error, and runs nothing. The
// table's other errors, a 500 and /healthz's 503, are JSON errors too.
func TestClientMistakes(t *testing.T) {
	s, agent := newDemoServer(t)
	h := s.Handler()
	if err := s.sys.FS.WriteFile("/bin/junk", []byte("not an image"), shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	closed := New(core.NewSystem(), Config{})
	closed.Close()
	put := `{"program":"` + agent + `","fn":"kv_put","args":[1,2]}`
	big := `{"exe":"` + strings.Repeat("a", 2*maxBody) + `"}`
	for _, tc := range []struct {
		name, method, url, body string
		want                    int
	}{
		{"malformed JSON", "POST", "/api/call", `{"program":`, http.StatusBadRequest},
		{"unknown class", "POST", "/api/launch", `{"modules":[{"name":"kv.o","class":"shared"}]}`, http.StatusBadRequest},
		{"five args", "POST", "/api/call", `{"program":"` + agent + `","fn":"kv_get","args":[1,2,3,4,5]}`, http.StatusBadRequest},
		{"no exe or modules", "POST", "/api/launch", `{"run":true}`, http.StatusBadRequest},
		{"name taken", "POST", "/api/launch", `{"name":"` + agent + `","exe":"` + DemoExe + `","run":true}`, http.StatusBadRequest},
		{"bad off", "GET", "/api/var?program=" + agent + "&name=kv_hits&off=x", "", http.StatusBadRequest},
		{"off in hex", "GET", "/api/var?program=" + agent + "&name=kv_table&off=0x8", "", http.StatusBadRequest},
		{"off with an underscore", "GET", "/api/var?program=" + agent + "&name=kv_table&off=1_6", "", http.StatusBadRequest},
		{"bad txid", "GET", "/api/txn?txid=x", "", http.StatusBadRequest},
		{"txid in hex", "GET", "/api/txn?txid=0x1", "", http.StatusBadRequest},
		{"oversized body", "POST", "/api/launch", big, http.StatusRequestEntityTooLarge},
		{"exe that does not decode", "POST", "/api/launch", `{"exe":"/bin/junk","run":true}`, http.StatusInternalServerError},
		{"trailing bytes", "POST", "/api/call", put + ` x`, http.StatusBadRequest},
		{"complete object then over 1 MiB", "POST", "/api/call", put + strings.Repeat(" ", 2*maxBody), http.StatusRequestEntityTooLarge},
		{"timeout_ms not a number", "POST", "/api/call?timeout_ms=abc", put, http.StatusBadRequest},
		{"timeout_ms negative", "POST", "/api/call?timeout_ms=-5", put, http.StatusBadRequest},
		{"timeout_ms empty", "GET", "/api/info?timeout_ms=", "", http.StatusBadRequest},
		{"GET a POST path", "GET", "/api/call", "", http.StatusMethodNotAllowed},
		{"DELETE a var", "DELETE", "/api/var", "", http.StatusMethodNotAllowed},
		{"no such path", "POST", "/api/nope", put, http.StatusNotFound},
		{"path not cleaned", "POST", "/api//call", put, http.StatusNotFound},
		{"healthz after Close", "GET", "/healthz", "", http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := h
			if tc.url == "/healthz" { // it answers an error only once the daemon has closed
				h = closed.Handler()
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.url, strings.NewReader(tc.body)))
			var e errResponse
			if rr.Code != tc.want || json.Unmarshal(rr.Body.Bytes(), &e) != nil || e.Error == "" {
				t.Fatalf("%d %.200s, want %d with a JSON error", rr.Code, rr.Body.Bytes(), tc.want)
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if tc.want == http.StatusMethodNotAllowed && rr.Header().Get("Allow") == "" {
				t.Fatal("405 without an Allow header")
			}
		})
	}
	// None of them launched a program or ran main (which bumps kv_hits).
	if info, err := s.Info(0); err != nil || len(info.Programs) != 1 {
		t.Fatalf("programs after client mistakes: %+v, %v", info, err)
	}
	if vr, err := s.ReadVar(agent, "kv_hits", 0, 0); err != nil || vr.Value != 0 {
		t.Fatalf("kv_hits after client mistakes: %+v, %v", vr, err)
	}
}

// TestExitedUnnamedLaunchesReleased: unnamed launches that have exited by
// the end of their request leave the program table as they found it; a
// named one stays resident.
func TestExitedUnnamedLaunchesReleased(t *testing.T) {
	s, _ := newDemoServer(t)
	programs := s.sys.Obs().Registry().Gauge("server.programs")
	start := programs.Value()
	for i := 0; i < 50; i++ {
		resp, err := s.Launch(&LaunchRequest{Exe: DemoExe, Run: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Program != "" || resp.PID == 0 || !resp.Exited || resp.ExitCode != 0 {
			t.Fatalf("launch %d: %+v", i, resp)
		}
	}
	if got := programs.Value(); got != start {
		t.Fatalf("server.programs = %d after 50 unnamed run launches, want %d", got, start)
	}
	if _, err := s.Launch(&LaunchRequest{Name: "kept", Exe: DemoExe, Run: true}, 0); err != nil {
		t.Fatal(err)
	}
	if got := programs.Value(); got != start+1 {
		t.Fatalf("server.programs = %d after a named launch, want %d", got, start+1)
	}
}

// TestFailedRunLaunchesReaped: a "run":true launch whose main exhausts its
// step budget answers 500 and leaves neither a process nor a program
// behind.
func TestFailedRunLaunchesReaped(t *testing.T) {
	s, _ := newDemoServer(t)
	programs := s.sys.Obs().Registry().Gauge("server.programs")
	procs, progs := len(s.sys.K.Processes()), programs.Value()
	h := s.Handler()
	for i := 0; i < 5; i++ {
		rr, body := postJSON(t, h, "/api/launch", LaunchRequest{Exe: DemoExe, Run: true, MaxSteps: 3})
		if rr.Code != http.StatusInternalServerError || !strings.Contains(string(body), "exceeded 3 steps") {
			t.Fatalf("launch %d: %d %s, want 500 naming the step budget", i, rr.Code, body)
		}
	}
	if n := len(s.sys.K.Processes()); n != procs {
		t.Fatalf("%d processes after five failed run launches, want %d", n, procs)
	}
	if got := programs.Value(); got != progs {
		t.Fatalf("server.programs = %d after five failed run launches, want %d", got, progs)
	}
}

// TestRunPastMappedPagesAnswersError: a "run":true launch whose main loads
// past a shared file's mapped pages ends in a segmentation fault and
// answers an error, instead of holding the world for ever; the next
// request is served.
func TestRunPastMappedPagesAnswersError(t *testing.T) {
	sys := core.NewSystem()
	if _, err := sys.FS.Create("/page", shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FS.WriteAt("/page", 0, []byte{0, 0, 0, 7}, 0); err != nil { // one page
		t.Fatal(err)
	}
	base, err := sys.FS.PathToAddr("/page")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Asm("/bin/past.o", fmt.Sprintf(`
        .text
        .globl  main
main:   li      $t0, 0x%08x
        lw      $v0, 8192($t0)  # two pages on: past the file
        jr      $ra
`, base)); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Link(&lds.Options{
		Output:  "past",
		Modules: []lds.Input{{Name: "past.o", Class: objfile.StaticPrivate}},
		LinkDir: "/bin",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveExecutable("/bin/past", res.Image); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Config{})
	h := s.Handler()
	got := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/launch", strings.NewReader(`{"exe":"/bin/past","run":true}`)))
		got <- rr
	}()
	select {
	case rr := <-got:
		if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "segmentation fault") {
			t.Fatalf("launch: %d %s, want 500 naming the segmentation fault", rr.Code, rr.Body)
		}
	case <-time.After(10 * time.Second):
		// No Close: it would wait for the world the launch still holds.
		t.Fatal("launch still running after 10 s")
	}
	t.Cleanup(func() { s.Close() })
	if rr, body := getURL(t, h, "/api/info"); rr.Code != http.StatusOK {
		t.Fatalf("info after the failed launch: %d %s", rr.Code, body)
	}
}

// TestCallThroughPLTStub verifies the daemon reaches a never-called
// function through the image's jump-table stub: the first call traps to
// ldl, patches the stub, and still returns the right value.
func TestCallThroughPLTStub(t *testing.T) {
	sys := core.NewSystem()
	if _, err := InstallDemo(sys); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Config{})
	t.Cleanup(func() { s.Close() })
	// Launch WITHOUT running main: the kv module is not linked in yet, so
	// kv_bump is reachable only through its PLT stub.
	if _, err := s.Launch(&LaunchRequest{Name: "agent", Exe: DemoExe}, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Call(&CallRequest{Program: "agent", Fn: "kv_bump"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ret != 1 {
		t.Fatalf("kv_bump via stub = %d, want 1", resp.Ret)
	}
	// Second call goes through the patched trampoline.
	if resp, err = s.Call(&CallRequest{Program: "agent", Fn: "kv_bump"}, 0); err != nil || resp.Ret != 2 {
		t.Fatalf("kv_bump #2 = %+v, %v", resp, err)
	}
}

// TestRequestTimeout: a request that acquires the world after its
// deadline fails with ErrTimeout, never runs, and is counted.
func TestRequestTimeout(t *testing.T) {
	s, _ := newDemoServer(t)
	expired := s.sys.Obs().Registry().Counter("server.deadline_expired")
	before := expired.Value()
	// Hold the world well past the short request's deadline.
	block, holding := make(chan struct{}), make(chan struct{})
	go s.do("slow", time.Second, func() error { close(holding); <-block; return nil })
	<-holding
	time.AfterFunc(200*time.Millisecond, func() { close(block) })
	ran := false
	err := s.do("fast", 20*time.Millisecond, func() error { ran = true; return nil })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if ran {
		t.Fatal("a request that acquired the world after its deadline ran")
	}
	if n := expired.Value() - before; n != 1 {
		t.Fatalf("server.deadline_expired rose by %d, want 1", n)
	}
}

// TestRequestTimeoutOverHTTP: ?timeout_ms= sets the deadline a request
// must acquire the world by; past it the request answers 504, does not
// run, and is counted.
func TestRequestTimeoutOverHTTP(t *testing.T) {
	s, agent := newDemoServer(t)
	expired := s.sys.Obs().Registry().Counter("server.deadline_expired")
	before := expired.Value()
	block, holding := make(chan struct{}), make(chan struct{})
	go s.do("slow", time.Second, func() error { close(holding); <-block; return nil })
	<-holding
	time.AfterFunc(200*time.Millisecond, func() { close(block) })
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/call?timeout_ms=20",
		strings.NewReader(`{"program":"`+agent+`","fn":"kv_bump"}`)))
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("%d %s, want 504", rr.Code, rr.Body)
	}
	if n := expired.Value() - before; n != 1 {
		t.Fatalf("server.deadline_expired rose by %d, want 1", n)
	}
	if vr, err := s.ReadVar(agent, "kv_hits", 0, 0); err != nil || vr.Value != 0 {
		t.Fatalf("kv_hits after the expired call: %+v, %v", vr, err)
	}
}

// TestRequestRunningPastDeadlineKeepsResult: a request that acquired the
// world before its deadline runs to completion and returns its own
// result, however long it runs.
func TestRequestRunningPastDeadlineKeepsResult(t *testing.T) {
	s, _ := newDemoServer(t)
	mine := errors.New("the op's own result")
	err := s.do("long", 20*time.Millisecond, func() error {
		time.Sleep(100 * time.Millisecond)
		return mine
	})
	if err != mine {
		t.Fatalf("err = %v, want the op's own result", err)
	}
}

// TestGracefulShutdown drives Run with a fake signal channel: in-flight
// requests drain, the daemon exits cleanly, and later requests are refused.
func TestGracefulShutdown(t *testing.T) {
	s, agent := newDemoServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ln, sigs) }()

	base := "http://" + ln.Addr().String()
	body, _ := json.Marshal(CallRequest{Program: agent, Fn: "kv_bump"})
	resp, err := http.Post(base+"/api/call", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("call over TCP: %d", resp.StatusCode)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil (exit 0)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after signal")
	}
	// Close has taken the world: new work is refused.
	if err := s.do("late", 50*time.Millisecond, func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown op: %v, want ErrClosed", err)
	}
}

// workload is the deterministic op mix one worker performs; every
// operation commutes with every other worker's (distinct table slots,
// monotonic shared counters), so the quiesced world state is independent
// of request interleaving.
func workload(s *Server, agent string, worker, rounds int) error {
	for i := 0; i < rounds; i++ {
		if _, err := s.Launch(&LaunchRequest{Exe: DemoExe, Run: true}, 0); err != nil {
			return fmt.Errorf("worker %d launch: %w", worker, err)
		}
		slot := uint32(worker)
		val := uint32(worker*1000 + i)
		if _, err := s.Call(&CallRequest{Program: agent, Fn: "kv_put", Args: []uint32{slot, val}}, 0); err != nil {
			return fmt.Errorf("worker %d kv_put: %w", worker, err)
		}
		if _, err := s.Call(&CallRequest{Program: agent, Fn: "kv_get", Args: []uint32{slot}}, 0); err != nil {
			return fmt.Errorf("worker %d kv_get: %w", worker, err)
		}
		off := uint32(256+worker) * 4
		if _, err := s.WriteVar(&VarWriteRequest{Program: agent, Name: "kv_table", Off: off, Value: val}, 0); err != nil {
			return fmt.Errorf("worker %d var write: %w", worker, err)
		}
		if _, err := s.ReadVar(agent, "kv_hits", 0, 0); err != nil {
			return fmt.Errorf("worker %d var read: %w", worker, err)
		}
	}
	return nil
}

// quiesceHash normalises the agent's registers with one deterministic call
// and hashes its CPU + address space.
func quiesceHash(t *testing.T, s *Server, agent string) uint64 {
	t.Helper()
	if _, err := s.Call(&CallRequest{Program: agent, Fn: "kv_get", Args: []uint32{0}}, 0); err != nil {
		t.Fatal(err)
	}
	var h uint64
	if err := s.do("quiesce", 0, func() error {
		pg, err := s.program(agent)
		if err == nil {
			h = vm.StateHash(pg.P.CPU)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestConcurrentClientsStateHash is the race-detector workout: ≥16
// goroutines mix launch/call/var-write against one server, and the
// quiesced world must hash identically to the same ops run serially.
func TestConcurrentClientsStateHash(t *testing.T) {
	const workers = 16
	rounds := 8
	if testing.Short() {
		rounds = 2
	}

	serial, agentA := newDemoServer(t)
	for w := 0; w < workers; w++ {
		if err := workload(serial, agentA, w, rounds); err != nil {
			t.Fatal(err)
		}
	}
	want := quiesceHash(t, serial, agentA)

	concurrent, agentB := newDemoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := workload(concurrent, agentB, w, rounds); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := quiesceHash(t, concurrent, agentB)
	if got != want {
		t.Fatalf("StateHash after concurrent ops = %016x, serial = %016x", got, want)
	}

	// The shared hit counter saw every launch's bump and every kv_put.
	vr, err := concurrent.ReadVar(agentB, "kv_hits", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := uint32(workers * rounds * 2)
	if vr.Value != wantHits {
		t.Fatalf("kv_hits = %d, want %d", vr.Value, wantHits)
	}
}

// TestConcurrentHTTPClients: clients on many goroutines at once go through
// the handler, its codec and its shared reply header, and each reads back
// what it wrote (a workout for the race detector).
func TestConcurrentHTTPClients(t *testing.T) {
	s, agent := newDemoServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/call", strings.NewReader(
					fmt.Sprintf(`{"program":%q,"fn":"kv_put","args":[%d,%d]}`, agent, slot, i))))
				if rr.Code != http.StatusOK {
					t.Errorf("kv_put: %d %s", rr.Code, rr.Body)
					return
				}
				rr = httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/api/var?program=%s&name=kv_table&off=%d", agent, 4*slot), nil))
				var vr VarResponse
				if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &vr) != nil || vr.Value != uint32(i) {
					t.Errorf("slot %d after writing %d: %d %s", slot, i, rr.Code, rr.Body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRunLaunchRunsOnRequestGoroutine: the daemon starts no goroutine of
// its own, and a run-to-completion launch runs its guest through
// Kernel.Run on the request's goroutine: kern.steps grows by every step
// the launch retired, and no scheduler counter exists.
func TestRunLaunchRunsOnRequestGoroutine(t *testing.T) {
	sys := core.NewSystem()
	if _, err := InstallDemo(sys); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s := New(sys, Config{})
	t.Cleanup(func() { s.Close() })
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	start := sys.Obs().Registry().Snapshot().Counters["kern.steps"]
	resp, err := s.Launch(&LaunchRequest{Name: "runner", Exe: DemoExe, Run: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Exited {
		t.Fatalf("run launch did not exit: %+v", resp)
	}
	snap := sys.Obs().Registry().Snapshot()
	if got, want := snap.Counters["kern.steps"]-start, s.programs["runner"].P.CPU.Steps; got != want || got == 0 {
		t.Fatalf("kern.steps grew by %d, want the launch's %d steps", got, want)
	}
	if n, ok := snap.Counters["kern.cpu_steps"]; ok {
		t.Fatalf("kern.cpu_steps = %d: a scheduler ran the launch", n)
	}
}

// respWriter is an http.ResponseWriter that keeps its header map and body
// buffer across requests.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// TestServeCallAllocs: a kv_get through the handler allocates at most 8
// times, writer and request reused.
func TestServeCallAllocs(t *testing.T) {
	s, agent := newDemoServer(t)
	h := s.Handler()
	body := []byte(`{"program":"` + agent + `","fn":"kv_get","args":[7]}`)
	w := &respWriter{hdr: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/api/call", nil)
	var rd bodyReader
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		req.Body = &rd
		w.code, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("kv_get: %d %s", w.code, w.body)
	}
	if allocs > 8 {
		t.Fatalf("%.1f allocations per kv_get, want at most 8", allocs)
	}
}
