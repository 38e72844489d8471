package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/netshm"
	"hemlock/internal/netsim"
	"hemlock/internal/obsv"
	"hemlock/internal/server"
)

// The serve workload drives the daemon's HTTP API in-process: two
// closed-loop clients call Handler().ServeHTTP directly, so no socket is
// involved and every request crosses the JSON codec, the handoff to the
// world-owner goroutine and its queue.
const (
	serveClients = 2
	serveWarm    = 1500 // warm-up ops per client
	serveTxnSeg  = "/lib/acct"
	serveTxnSize = 4096 // one page: 1024 words, client c owns the words ≡ c mod 2
	serveProbe   = 100  // traced run: calls of one kv function alone
)

// Op families, in the order of the mix below.
const (
	kvGet = iota
	kvPut
	varGet
	varPut
	txn
	launch
)

var serveFamily = [...]string{"call", "call", "var", "var", "txn", "launch"}

// serveSpan names the ServeHTTP span of each family.
var serveSpan = [...]string{"server/ServeHTTP.call", "server/ServeHTTP.call",
	"server/ServeHTTP.var", "server/ServeHTTP.var", "server/ServeHTTP.txn", "server/ServeHTTP.launch"}

// serveMix is the cumulative percentage of each family: 40% kv_get, 20%
// kv_put, 15% GET /api/var, 10% POST /api/var, 10% /api/txn, 5% launch.
var serveMix = [...]int{40, 60, 75, 85, 95, 100}

// respWriter is a reusable http.ResponseWriter.
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

type readCloser struct{ bytes.Reader }

func (*readCloser) Close() error { return nil }

type serveClient struct {
	id     int
	rng    *rand.Rand
	kv     [server.DemoSlots]uint32     // shadow of the slots this client owns
	words  [serveTxnSize / 4]uint32     // shadow of the txn words it owns
	reqs   [len(serveMix)]*http.Request // one reusable request per family
	req    *http.Request                // the prepared request
	body   readCloser
	buf    []byte
	w      respWriter
	family int
	slot   uint32 // kv slot, or first read word of a txn
	val    uint32
	reads  [2]uint32
	writes [2]uint32
	wvals  [2]uint32
	puts   int // kv_put calls and launches: each bumps kv_hits once
	runs   int
}

type serveBench struct {
	srv      *server.Server
	h        http.Handler
	sys      *core.System
	node     *netshm.Node
	cl       [serveClients]*serveClient
	probeErr error // a failed check in the traced run's probe
}

func setupServe(seed int64) (workload, error) {
	sys := core.NewSystem()
	if _, err := server.InstallDemo(sys); err != nil {
		return nil, err
	}
	f := netshm.NewFleet(netsim.New(), netshm.Config{})
	node := f.Add("m0", sys)
	if err := node.Publish(serveTxnSeg, make([]byte, serveTxnSize)); err != nil {
		return nil, err
	}
	b := &serveBench{srv: server.New(sys, server.Config{CPUs: 2}), sys: sys, node: node}
	b.srv.SetShm(node)
	b.h = b.srv.Handler()
	if _, err := b.srv.Launch(&server.LaunchRequest{Name: "agent", Exe: server.DemoExe}, 0); err != nil {
		b.close()
		return nil, err
	}
	for c := range b.cl {
		cl := &serveClient{id: c, rng: rand.New(rand.NewSource(seed*1000 + int64(c))),
			w: respWriter{hdr: http.Header{}}}
		for fam, path := range []string{"/api/call", "/api/call", "/api/var", "/api/var", "/api/txn", "/api/launch"} {
			method := http.MethodPost
			if fam == varGet {
				method = http.MethodGet
			}
			cl.reqs[fam] = &http.Request{Method: method, URL: &url.URL{Path: path},
				Header: http.Header{}, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
		}
		b.cl[c] = cl
	}
	if err := warm(b, serveWarm); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) clients() int { return serveClients }

// ownSlot draws one of the slots (or txn words) client c owns.
func (cl *serveClient) own(n int) uint32 {
	return uint32(2*cl.rng.Intn(n/2) + cl.id)
}

// next draws the client's next request and returns it.
func (cl *serveClient) next() *http.Request {
	p := cl.rng.Intn(100)
	fam := 0
	for serveMix[fam] <= p {
		fam++
	}
	return cl.nextOf(fam)
}

// nextOf draws the next request of one family.
func (cl *serveClient) nextOf(fam int) *http.Request {
	cl.family = fam
	req := cl.reqs[fam]
	b := cl.buf[:0]
	switch fam {
	case kvGet, kvPut:
		cl.slot = cl.own(server.DemoSlots)
		if fam == kvGet {
			b = append(b, `{"program":"agent","fn":"kv_get","args":[`...)
			b = strconv.AppendUint(b, uint64(cl.slot), 10)
		} else {
			cl.val = cl.rng.Uint32()
			b = append(b, `{"program":"agent","fn":"kv_put","args":[`...)
			b = strconv.AppendUint(b, uint64(cl.slot), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(cl.val), 10)
		}
		b = append(b, "]}"...)
	case varGet:
		cl.slot = cl.own(server.DemoSlots)
		req.URL.RawQuery = "program=agent&name=kv_table&off=" + strconv.Itoa(int(cl.slot)*4)
	case varPut:
		cl.slot = cl.own(server.DemoSlots)
		cl.val = cl.rng.Uint32()
		b = append(b, `{"program":"agent","name":"kv_table","off":`...)
		b = strconv.AppendUint(b, uint64(cl.slot)*4, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendUint(b, uint64(cl.val), 10)
		b = append(b, '}')
	case txn:
		b = append(b, `{"reads":[`...)
		for i := range cl.reads {
			cl.reads[i] = cl.own(serveTxnSize / 4)
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"path":"`+serveTxnSeg+`","off":`...)
			b = strconv.AppendUint(b, uint64(cl.reads[i])*4, 10)
			b = append(b, '}')
		}
		b = append(b, `],"writes":[`...)
		for i := range cl.writes {
			cl.writes[i] = cl.own(serveTxnSize / 4)
			cl.wvals[i] = cl.rng.Uint32()
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"path":"`+serveTxnSeg+`","off":`...)
			b = strconv.AppendUint(b, uint64(cl.writes[i])*4, 10)
			b = append(b, `,"value":`...)
			b = strconv.AppendUint(b, uint64(cl.wvals[i]), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	case launch:
		b = append(b, `{"exe":"`+server.DemoExe+`","run":true}`...)
	}
	cl.buf = b
	if req.Method == http.MethodPost {
		cl.body.Reset(b)
		req.Body = &cl.body
	}
	cl.w.code, cl.w.body = 0, cl.w.body[:0]
	return req
}

func (b *serveBench) prepare(c int) { b.cl[c].req = b.cl[c].next() }

func (b *serveBench) op(c int, rec *recorder) error {
	cl := b.cl[c]
	i := rec.begin(serveSpan[cl.family])
	b.h.ServeHTTP(&cl.w, cl.req)
	rec.end(i)
	return nil
}

func (b *serveBench) check(c int) error {
	cl := b.cl[c]
	if cl.w.code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d %s", serveFamily[cl.family], cl.w.code, bytes.TrimSpace(cl.w.body))
	}
	switch cl.family {
	case kvGet, kvPut:
		var r server.CallResponse
		if err := json.Unmarshal(cl.w.body, &r); err != nil {
			return err
		}
		if r.Ret != cl.kv[cl.slot] {
			return fmt.Errorf("call slot %d returned %d, want %d", cl.slot, r.Ret, cl.kv[cl.slot])
		}
		if cl.family == kvPut {
			cl.kv[cl.slot] = cl.val
			cl.puts++
		}
	case varGet, varPut:
		var r server.VarResponse
		if err := json.Unmarshal(cl.w.body, &r); err != nil {
			return err
		}
		if cl.family == varPut {
			cl.kv[cl.slot] = cl.val
		}
		if r.Value != cl.kv[cl.slot] {
			return fmt.Errorf("var slot %d = %d, want %d", cl.slot, r.Value, cl.kv[cl.slot])
		}
	case txn:
		var r server.TxnResponse
		if err := json.Unmarshal(cl.w.body, &r); err != nil {
			return err
		}
		if r.State != "committed" || len(r.Values) != len(cl.reads) {
			return fmt.Errorf("txn: %s", bytes.TrimSpace(cl.w.body))
		}
		for i, wd := range cl.reads {
			if r.Values[i] != cl.words[wd] {
				return fmt.Errorf("txn read word %d = %d, want %d", wd, r.Values[i], cl.words[wd])
			}
		}
		for i, wd := range cl.writes {
			cl.words[wd] = cl.wvals[i]
		}
	case launch:
		var r server.LaunchResponse
		if err := json.Unmarshal(cl.w.body, &r); err != nil {
			return err
		}
		if !r.Exited || r.ExitCode != 0 {
			return fmt.Errorf("launch: exited %v code %d", r.Exited, r.ExitCode)
		}
		cl.runs++
	}
	return nil
}

func (b *serveBench) counters() obsv.Snapshot { return b.sys.Obs().Registry().Snapshot() }

func (b *serveBench) layers(ph *phase, m map[string]float64) {
	t := ph.trace
	var all []int64
	for _, k := range []string{"server/ServeHTTP.call", "server/ServeHTTP.var", "server/ServeHTTP.txn", "server/ServeHTTP.launch"} {
		all = append(all, t.durs[k]...)
	}
	all = sortedCopy(all)
	m["server.handler_us"] = medianUs(all)
	var n, sum float64
	for _, op := range []string{"call", "var_read", "var_write", "txn", "launch"} {
		c, s := ph.histDelta("server." + op + "_ns")
		n, sum = n+c, sum+s
	}
	m["server.service_us"] = ratio(sum, n) / 1e3
	m["server.wait_us"] = meanUs(all) - m["server.service_us"]
	m["server.call_us"] = t.p50us("server/ServeHTTP.call")
	m["server.var_us"] = t.p50us("server/ServeHTTP.var")
	m["server.txn_us"] = t.p50us("server/ServeHTTP.txn")
	m["server.launch_us"] = t.p50us("server/ServeHTTP.launch")
	m["server.programs_end"] = float64(ph.after.Gauges["server.programs"])
	calls := float64(len(t.durs["server/ServeHTTP.call"]))
	m["kern.steps_per_call"] = ratio(ph.delta("kern.steps"), calls)
	m["kern.zygote_clone_ratio"] = ratio(ph.delta("kern.zygote_clone"), float64(len(t.durs["server/ServeHTTP.launch"])))
	guestMetrics(ph, m)
	for _, fam := range []int{kvGet, kvPut} {
		if err := b.probe(fam); err != nil && b.probeErr == nil {
			b.probeErr = fmt.Errorf("probe: %w", err)
		}
	}
}

// probe runs serveProbe calls of one kv function on client 0, alone, and
// prints the block engine's counts for them: the per-function view the
// mixed-traffic ratios cannot give.
func (b *serveBench) probe(fam int) error {
	r := b.sys.Obs().Registry()
	hit, build, inval := r.Counter("vm.block_hit"), r.Counter("vm.block_build"), r.Counter("vm.block_invalidate")
	h0, b0, i0 := hit.Value(), build.Value(), inval.Value()
	cl := b.cl[0]
	for i := 0; i < serveProbe; i++ {
		b.h.ServeHTTP(&cl.w, cl.nextOf(fam))
		if err := b.check(0); err != nil {
			return err
		}
	}
	fmt.Printf("serve probe: %d %s calls alone: %d block builds, %d block hits, %d block invalidations\n",
		serveProbe, []string{"kv_get", "kv_put"}[fam], build.Value()-b0, hit.Value()-h0, inval.Value()-i0)
	return nil
}

// finish reads back every slot and txn word against the clients' shadows,
// and the hit counter against the puts and launches that bumped it.
func (b *serveBench) finish() error {
	if b.probeErr != nil {
		return b.probeErr
	}
	hits := 0
	for _, cl := range b.cl {
		hits += cl.puts + cl.runs
		for s := cl.id; s < server.DemoSlots; s += serveClients {
			r, err := b.srv.ReadVar("agent", "kv_table", uint32(s)*4, time.Minute)
			if err != nil {
				return err
			}
			if r.Value != cl.kv[s] {
				return fmt.Errorf("slot %d = %d, want %d", s, r.Value, cl.kv[s])
			}
		}
		seg, _, err := b.node.Read(serveTxnSeg, 0, serveTxnSize)
		if err != nil {
			return err
		}
		for wd := cl.id; wd < serveTxnSize/4; wd += serveClients {
			if v := binary.BigEndian.Uint32(seg[4*wd:]); v != cl.words[wd] {
				return fmt.Errorf("txn word %d = %d, want %d", wd, v, cl.words[wd])
			}
		}
	}
	r, err := b.srv.ReadVar("agent", "kv_hits", 0, time.Minute)
	if err != nil {
		return err
	}
	if int(r.Value) != hits {
		return fmt.Errorf("kv_hits = %d, want %d (puts + launches)", r.Value, hits)
	}
	return nil
}

func (b *serveBench) close() { b.srv.Close() }
