package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"hemlock/internal/core"
	"hemlock/internal/netshm"
	"hemlock/internal/netsim"
	"hemlock/internal/obsv"
)

// The fleet workload: 64 machines share 8 sharded segments over a LAN
// that drops a seeded 20% of datagrams. Each op is one update followed by
// ticks until the fleet converges, then a read at a replica.
const (
	fleetMachines = 64
	fleetSegs     = 8
	fleetSegSize  = 2 * netshm.PageSize
	fleetLossPct  = 20
	fleetWarm     = 300
	fleetMaxTicks = 2000 // per op, resends included
	fleetResends  = 16   // per op
)

// Update kinds: 70% home writes, 15% forwarded writes, 15% transactions.
const (
	homeWrite = iota
	fwdWrite
	txnWrite
)

var fleetKind = [...]string{"home write", "forwarded write", "transaction"}

// lossModel drops pct% of datagrams, chosen by a seeded hash of (from,
// to, seq) that allocates nothing.
func lossModel(seed uint64, pct uint64) func(from, to string, seq uint64) bool {
	return func(from, to string, seq uint64) bool {
		h := seed ^ 0xcbf29ce484222325
		for i := 0; i < len(from); i++ {
			h = (h ^ uint64(from[i])) * 0x100000001b3
		}
		h = (h ^ 0xff) * 0x100000001b3
		for i := 0; i < len(to); i++ {
			h = (h ^ uint64(to[i])) * 0x100000001b3
		}
		h ^= seq
		// splitmix64 finalizer: spread the low bits the modulus reads.
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
		return h%100 < pct
	}
}

type fleetBench struct {
	f      *netshm.Fleet
	nodes  []*netshm.Node
	paths  []string
	home   []*netshm.Node
	shadow [][]byte
	rng    *rand.Rand

	// the op in progress
	kind    int
	seg     int
	off     uint32
	data    []byte
	from    int // machine the update is sent from
	txid    uint64
	readAt  *netshm.Node
	got     []byte
	ticks   int
	resends int
	total   uint64 // resends over the world's life
	buf     []byte

	// traced ops: the mean Tick span per block of fleetTrendOps ops,
	// which shows whether a tick gets dearer as the fleet ages.
	traced int
	tickNs int64
	tickN  int
	trend  []float64
}

const fleetTrendOps = 500

func setupFleet(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	net := netsim.New()
	b := &fleetBench{f: netshm.NewFleet(net, netshm.Config{}), buf: make([]byte, 0, 64)}
	for i := 0; i < fleetMachines; i++ {
		b.nodes = append(b.nodes, b.f.Add(fmt.Sprintf("m%02d", i), core.NewSystemLite()))
	}
	for k := 0; k < fleetSegs; k++ {
		path := fmt.Sprintf("/lib/seg%d", k)
		data := make([]byte, fleetSegSize)
		rng.Read(data)
		home, err := b.f.PublishSharded(path, data)
		if err != nil {
			return nil, err
		}
		b.paths = append(b.paths, path)
		b.home = append(b.home, home)
		b.shadow = append(b.shadow, data)
	}
	for _, p := range b.paths {
		if _, ok := b.f.WaitConverged(p, fleetMaxTicks); !ok {
			return nil, fmt.Errorf("%s never converged", p)
		}
	}
	// Loss starts after the fleet has formed; the seeded hash is the only
	// thing that decides which datagrams are dropped.
	net.Drop = lossModel(rng.Uint64(), fleetLossPct)
	b.rng = rand.New(rand.NewSource(rng.Int63()))
	if err := warm(b, fleetWarm); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *fleetBench) clients() int { return 1 }

// writableHome returns the machine that may write segment k now.
func (b *fleetBench) writableHome(k int) (*netshm.Node, error) {
	if si, err := b.home[k].Info(b.paths[k]); err == nil && si.Writable() {
		return b.home[k], nil
	}
	for _, n := range b.nodes {
		if si, err := n.Info(b.paths[k]); err == nil && si.Writable() {
			b.home[k] = n
			return n, nil
		}
	}
	return nil, fmt.Errorf("%s has no writable home", b.paths[k])
}

// prepare draws the next update.
func (b *fleetBench) prepare(int) {
	p := b.rng.Intn(100)
	switch {
	case p < 70:
		b.kind = homeWrite
	case p < 85:
		b.kind = fwdWrite
	default:
		b.kind = txnWrite
	}
	b.seg = b.rng.Intn(fleetSegs)
	if b.kind == txnWrite {
		// Two words at word-aligned offsets: the first draws the offset,
		// the second follows it, so the write set is one range.
		b.off = 4 * uint32(b.rng.Intn(fleetSegSize/4-1))
		b.data = binary.BigEndian.AppendUint64(b.buf[:0], b.rng.Uint64())
	} else {
		n := 8 + b.rng.Intn(57)
		b.off = uint32(b.rng.Intn(fleetSegSize - n))
		b.data = b.buf[:n]
		b.rng.Read(b.data)
	}
	b.buf = b.data[:0]
	b.from = b.rng.Intn(fleetMachines)
	b.readAt = b.nodes[b.rng.Intn(fleetMachines)]
}

// send issues the update once.
func (b *fleetBench) send(rec *recorder) error {
	path := b.paths[b.seg]
	b.txid = 0
	switch b.kind {
	case homeWrite:
		home, err := b.writableHome(b.seg)
		if err != nil {
			return err
		}
		i := rec.begin("netshm/Node.Write")
		err = home.Write(path, b.off, b.data)
		rec.end(i)
		return err
	case fwdWrite:
		from := b.nodes[b.from]
		if from == b.home[b.seg] {
			from = b.nodes[(b.from+1)%fleetMachines]
		}
		i := rec.begin("netshm/Node.WriteAny")
		err := from.WriteAny(path, b.off, b.data)
		rec.end(i)
		return err
	default:
		i := rec.begin("netshm/Txn.Commit")
		t := b.nodes[b.from].Begin()
		t.WriteWord(path, b.off, binary.BigEndian.Uint32(b.data))
		t.WriteWord(path, b.off+4, binary.BigEndian.Uint32(b.data[4:]))
		txid, err := t.Commit()
		rec.end(i)
		b.txid = txid
		return err
	}
}

// landed reports whether the home holds the update's bytes.
func (b *fleetBench) landed() bool {
	home := b.home[b.seg]
	got := make([]byte, len(b.data))
	if _, err := home.Sys().FS.ReadAt(b.paths[b.seg], b.off, got, 0); err != nil {
		return false
	}
	return bytes.Equal(got, b.data)
}

// op sends one update, then runs the loop WaitConverged runs — Converged,
// else Tick — with each call its own span, until the fleet agrees and the
// home holds the update. Forwarded writes and remote transactions are
// fire-and-forget; one that was lost is sent again.
func (b *fleetBench) op(_ int, rec *recorder) error {
	path := b.paths[b.seg]
	b.ticks, b.resends = 0, 0
	if err := b.send(rec); err != nil {
		return err
	}
	sentAt := 0
	for {
		i := rec.begin("netshm/Fleet.Converged")
		conv := b.f.Converged(path)
		rec.end(i)
		if conv && b.landed() {
			break
		}
		if conv && b.lost(sentAt) {
			b.resends++
			b.total++
			if b.resends > fleetResends {
				return fmt.Errorf("%s to %s lost %d times", fleetKind[b.kind], path, b.resends)
			}
			if err := b.send(rec); err != nil {
				return err
			}
			sentAt = b.ticks
		}
		if b.ticks >= fleetMaxTicks {
			return fmt.Errorf("%s to %s: no convergence in %d ticks", fleetKind[b.kind], path, b.ticks)
		}
		i = rec.begin("netshm/Fleet.Tick")
		b.f.Tick()
		rec.end(i)
		if rec != nil {
			b.tickNs += rec.dur(i)
			b.tickN++
		}
		b.ticks++
	}
	if rec != nil {
		if b.traced++; b.traced%fleetTrendOps == 0 {
			b.trend = append(b.trend, float64(b.tickNs)/float64(max(b.tickN, 1))/1e3)
			b.tickNs, b.tickN = 0, 0
		}
	}
	i := rec.begin("netshm/Node.Read")
	got, _, err := b.readAt.Read(path, b.off, uint32(len(b.data)))
	rec.end(i)
	b.got = got
	return err
}

// lost reports whether a converged fleet without the update has lost it:
// a forwarded write is delivered within one tick of its send, and a
// remote transaction's origin retries until it gives up.
func (b *fleetBench) lost(sentAt int) bool {
	switch {
	case b.kind == fwdWrite:
		return b.ticks > sentAt
	case b.txid != 0:
		st := b.nodes[b.from].TxnStatus(b.txid)
		return st == netshm.TxnLost || st == netshm.TxnAborted
	}
	return false
}

func (b *fleetBench) check(int) error {
	copy(b.shadow[b.seg][b.off:], b.data)
	if !bytes.Equal(b.got, b.data) {
		return fmt.Errorf("replica %s read %x at %s+%d, want %x", b.readAt.Name(), b.got, b.paths[b.seg], b.off, b.data)
	}
	return nil
}

// counters is the fleet's registry plus the benchmark's own resend count.
func (b *fleetBench) counters() obsv.Snapshot {
	s := b.f.Reg.Snapshot()
	s.Counters["bench.resends"] = b.total
	return s
}

func (b *fleetBench) layers(ph *phase, m map[string]float64) {
	t := ph.trace
	var upd []int64
	for _, k := range []string{"netshm/Node.Write", "netshm/Node.WriteAny", "netshm/Txn.Commit"} {
		upd = append(upd, t.durs[k]...)
	}
	m["netshm.update_us"] = medianUs(sortedCopy(upd))
	m["netshm.tick_us"] = t.meanus("netshm/Fleet.Tick")
	m["netshm.converged_us"] = t.p50us("netshm/Fleet.Converged")
	m["netshm.read_us"] = t.p50us("netshm/Node.Read")
	m["netshm.ticks_per_op"] = ph.perOp(float64(len(t.durs["netshm/Fleet.Tick"])))
	m["netsim.bytes_per_op"] = ph.perOp(ph.delta("netsim.bytes_sent"))
	m["netsim.datagrams_per_op"] = ph.perOp(ph.delta("netsim.delivered") + ph.delta("netsim.dropped"))
	m["netsim.alloc_kb_per_op"] = ph.perOp(ph.delta("netsim.alloc_bytes") / 1024)
	d, f := ph.delta("netshm.delta_pages"), ph.delta("netshm.full_pages")
	m["netshm.delta_page_ratio"] = ratio(d, d+f)
	m["netshm.retries_per_op"] = ph.perOp(ph.delta("netshm.retries"))
	m["netshm.resends_per_op"] = ph.perOp(ph.delta("bench.resends"))
	fmt.Printf("fleet: mean Fleet.Tick span per %d traced ops, in us: %.1f\n", fleetTrendOps, b.trend)
}

// finish checks that every machine holds the same bytes of every segment,
// and that the home's bytes are the ones the ops wrote.
func (b *fleetBench) finish() error {
	var errs []error
	for k, path := range b.paths {
		want, err := b.home[k].Digest(path)
		if err != nil {
			return err
		}
		for _, n := range b.nodes {
			if d, err := n.Digest(path); err != nil || d != want {
				errs = append(errs, fmt.Errorf("%s on %s: digest %x (%v), home has %x", path, n.Name(), d, err, want))
			}
		}
		got := make([]byte, fleetSegSize)
		if _, err := b.home[k].Sys().FS.ReadAt(path, 0, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, b.shadow[k]) {
			errs = append(errs, fmt.Errorf("%s: home content differs from the updates applied", path))
		}
	}
	return errors.Join(errs...)
}

func (b *fleetBench) close() {}
