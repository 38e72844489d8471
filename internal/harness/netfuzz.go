package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"hemlock/internal/core"
	"hemlock/internal/netshm"
	"hemlock/internal/netsim"
	"hemlock/internal/shmfs"
)

// The netshm network fuzzer: a seeded adversary over the simulated LAN.
// One run builds a small fleet, homes segments on different machines, then
// interleaves home-side writes, home migrations, replica reads (the lease
// path), and TL2 transactions with fleet ticks while the adversary drops,
// duplicates, delays and reorders datagrams — all decisions pure functions
// of (seed, from, to, seq), so a run replays exactly. Midway a new machine
// joins the established fleet (the announce-triggered anti-entropy path).
// Afterwards the adversary is switched off and the fleet must converge:
// every replica byte-identical to the model of what each home wrote, every
// node's (epoch, generation) view having grown monotonically throughout,
// and — the transactional invariant — no machine EVER observing a partial
// multi-word commit, checked on every tick of every schedule against a
// marker block that straddles a page boundary.

// netfuzzQuiesceTicks bounds the healing phase after the adversary stops.
// Generous on purpose: bounded retries may be exhausted, leaving recovery
// to announce-triggered pulls on the announce period, and an aborted
// migration needs a further announce round to re-sync the fleet onto the
// post-abort epoch.
const netfuzzQuiesceTicks = 600

// The transactional segment's marker block: eight words written only by
// whole transactions, placed so the block straddles the first page
// boundary. If any machine ever sees two marker words differ, a
// multi-word commit was observed partially.
const (
	markerWords = 8
	markerOff   = netshm.PageSize - (markerWords / 2 * 4)
)

// adversary derives deterministic drop/dup/reorder/delay decisions from a
// run-specific salt. Each knob gets an independent hash stream (the knob
// id is mixed in) so, e.g., dropping a datagram is uncorrelated with
// delaying it.
type adversary struct {
	salt               uint64
	drop, dup, reorder uint32 // per-mille probabilities
	delayP             uint32 // per-mille probability of delaying
	delayMax           int    // 1..delayMax ticks when delayed
}

func newAdversary(rng *rand.Rand) *adversary {
	return &adversary{
		salt:     rng.Uint64(),
		drop:     uint32(rng.Intn(150)), // up to 15% loss
		dup:      uint32(rng.Intn(200)), // up to 20% duplicated
		reorder:  uint32(rng.Intn(300)), // up to 30% queue-jumping
		delayP:   uint32(rng.Intn(250)), // up to 25% delayed
		delayMax: 1 + rng.Intn(4),       // by 1..4 ticks
	}
}

// roll hashes (salt, knob, from, to, seq) into [0, 1000).
func (a *adversary) roll(knob byte, from, to string, seq uint64) uint32 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(a.salt >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte{knob})
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	for i := range b {
		b[i] = byte(seq >> (8 * i))
	}
	h.Write(b[:])
	return uint32(h.Sum64() % 1000)
}

// arm installs the adversary's knobs on the network.
func (a *adversary) arm(net *netsim.Network) {
	net.Drop = func(from, to string, seq uint64) bool {
		return a.roll(0, from, to, seq) < a.drop
	}
	net.Dup = func(from, to string, seq uint64) bool {
		return a.roll(1, from, to, seq) < a.dup
	}
	net.Reorder = func(from, to string, seq uint64) bool {
		return a.roll(2, from, to, seq) < a.reorder
	}
	net.DelayTicks = func(from, to string, seq uint64) int {
		if a.roll(3, from, to, seq) < a.delayP {
			return 1 + int(a.roll(4, from, to, seq))%a.delayMax
		}
		return 0
	}
}

// disarm restores a faithful LAN.
func (a *adversary) disarm(net *netsim.Network) {
	net.Drop, net.Dup, net.Reorder, net.DelayTicks = nil, nil, nil, nil
}

// genWatch tracks one node's view of one segment and fails on any
// regression of the (epoch, generation) order — the sequence monotonicity
// invariant. A generation may restart when the node adopts a higher epoch
// (a migration, or an abandoned offer's epoch skip), never within one.
type genWatch struct {
	epoch, applied, highest uint64
}

// pendingTxn is a forwarded transaction awaiting its home's verdict.
type pendingTxn struct {
	node *netshm.Node
	txid uint64
}

// netfuzzRun is one fuzzed fleet plus the model of every homed segment.
type netfuzzRun struct {
	s     *Scenario
	rng   *rand.Rand
	fleet *netshm.Fleet
	adv   *adversary
	// model[path] is the byte-exact content the home has written so far.
	model map[string][]byte
	paths []string                        // deterministic iteration order for rng picks
	watch map[string]map[string]*genWatch // node -> path -> last seen view

	// Transactional-segment state.
	txnPath string
	txnCtr  uint32          // next marker value to stage
	staged  map[uint32]bool // every value any txn ever staged
	pending []pendingTxn
}

// checkGens asserts, for every node and every segment it knows, that the
// (epoch, applied) and (epoch, highest) views never move backwards.
func (r *netfuzzRun) checkGens(seed int64, tick int) {
	for _, n := range r.fleet.Nodes() {
		w := r.watch[n.Name()]
		if w == nil {
			w = map[string]*genWatch{}
			r.watch[n.Name()] = w
		}
		for path := range r.model {
			si, err := n.Info(path)
			if err != nil {
				continue // node hasn't heard of the segment yet
			}
			g := w[path]
			if g == nil {
				g = &genWatch{}
				w[path] = g
			}
			switch {
			case si.Epoch < g.epoch:
				r.s.Failf("netfuzz seed=%d tick=%d: %s epoch of %s went backwards: %d -> %d",
					seed, tick, n.Name(), path, g.epoch, si.Epoch)
			case si.Epoch > g.epoch:
				// New home lineage: generations legitimately restart.
				g.epoch, g.applied, g.highest = si.Epoch, si.Gen, si.Highest
			default:
				if si.Gen < g.applied {
					r.s.Failf("netfuzz seed=%d tick=%d: %s applied gen of %s went backwards at epoch %d: %d -> %d",
						seed, tick, n.Name(), path, si.Epoch, g.applied, si.Gen)
				}
				if si.Highest < g.highest {
					r.s.Failf("netfuzz seed=%d tick=%d: %s highest gen of %s went backwards at epoch %d: %d -> %d",
						seed, tick, n.Name(), path, si.Epoch, g.highest, si.Highest)
				}
				g.applied, g.highest = si.Gen, si.Highest
			}
		}
	}
}

// homeOf finds the machine currently holding the segment's home role,
// preferring the highest epoch when a migration handshake has two
// claimants in flight. Nil when nobody claims it (mid-promotion).
func (r *netfuzzRun) homeOf(path string) *netshm.Node {
	var best *netshm.Node
	var bestEpoch uint64
	for _, n := range r.fleet.Nodes() {
		si, err := n.Info(path)
		if err != nil || !si.IsHome {
			continue
		}
		if best == nil || si.Epoch > bestEpoch {
			best, bestEpoch = n, si.Epoch
		}
	}
	return best
}

// writeSomewhere performs one home-side write on a random segment and
// updates the model. Writes refused because the home is frozen
// mid-migration (or demoted in the same tick) are skipped, not modeled.
func (r *netfuzzRun) writeSomewhere(seed int64, tick int) {
	path := r.paths[r.rng.Intn(len(r.paths))]
	m := r.model[path]
	off := r.rng.Intn(len(m))
	n := 1 + r.rng.Intn(64)
	if off+n > len(m) {
		n = len(m) - off
	}
	data := make([]byte, n)
	r.rng.Read(data)
	home := r.homeOf(path)
	if home == nil {
		return // promotion in flight; nobody owns the segment this tick
	}
	err := home.Write(path, uint32(off), data)
	switch {
	case errors.Is(err, netshm.ErrMigrating), errors.Is(err, netshm.ErrNotHome):
		return // frozen or just demoted: the write never happened
	case err != nil:
		r.s.Failf("netfuzz seed=%d tick=%d: write %s on %s: %v", seed, tick, path, home.Name(), err)
	}
	copy(m[off:], data)
	r.s.Reg.Counter("harness.netfuzz.writes").Inc()
}

// migrateSomewhere offers a random segment's home role to a random other
// machine, exercising the freeze/offer/promote/demote handshake (and its
// abort path when the adversary eats the offer).
func (r *netfuzzRun) migrateSomewhere(seed int64, tick int) {
	paths := append(append([]string{}, r.paths...), r.txnPath)
	path := paths[r.rng.Intn(len(paths))]
	home := r.homeOf(path)
	if home == nil {
		return
	}
	nodes := r.fleet.Nodes()
	target := nodes[r.rng.Intn(len(nodes))]
	if target.Name() == home.Name() {
		return
	}
	err := home.MigrateTo(path, target.Name())
	switch {
	case errors.Is(err, netshm.ErrMigrating), errors.Is(err, netshm.ErrNotHome),
		errors.Is(err, netshm.ErrUnknownSeg):
		return // already mid-handshake, raced a demotion, or target is the latecomer
	case err != nil:
		r.s.Failf("netfuzz seed=%d tick=%d: migrate %s %s->%s: %v",
			seed, tick, path, home.Name(), target.Name(), err)
	}
	r.s.Reg.Counter("harness.netfuzz.migrations").Inc()
}

// readSomewhere reads through a random replica, driving the lease grant,
// expiry and renew machinery (and stale-read pulls) under the adversary.
func (r *netfuzzRun) readSomewhere() {
	nodes := r.fleet.Nodes()
	n := nodes[r.rng.Intn(len(nodes))]
	path := r.paths[r.rng.Intn(len(r.paths))]
	size := len(r.model[path])
	off := r.rng.Intn(size)
	want := 1 + r.rng.Intn(32)
	if off+want > size {
		want = size - off
	}
	if _, _, err := n.Read(path, uint32(off), uint32(want)); err == nil {
		r.s.Reg.Counter("harness.netfuzz.reads").Inc()
	}
}

// txnSomewhere runs one whole-marker transaction from a random machine:
// all eight marker words staged to one fresh value, committed either
// locally (at the home) or by forwarding (from a replica). Every staged
// value is recorded; the final marker must be one of them.
func (r *netfuzzRun) txnSomewhere(seed int64, tick int) {
	nodes := r.fleet.Nodes()
	n := nodes[r.rng.Intn(len(nodes))]
	v := r.txnCtr
	r.txnCtr++
	t := n.Begin()
	if r.rng.Intn(2) == 0 {
		if _, err := t.Read(r.txnPath, markerOff, 4); err != nil {
			return // latecomer that hasn't adopted the segment yet
		}
	}
	for i := 0; i < markerWords; i++ {
		t.WriteWord(r.txnPath, markerOff+uint32(4*i), v)
	}
	txid, err := t.Commit()
	switch {
	case errors.Is(err, netshm.ErrTxnConflict):
		r.s.Reg.Counter("harness.netfuzz.txn_aborts").Inc()
		return
	case errors.Is(err, netshm.ErrMigrating), errors.Is(err, netshm.ErrTxnCrossHome),
		errors.Is(err, netshm.ErrUnknownSeg):
		return
	case err != nil:
		r.s.Failf("netfuzz seed=%d tick=%d: txn on %s: %v", seed, tick, n.Name(), err)
	}
	r.staged[v] = true
	if txid == 0 {
		r.s.Reg.Counter("harness.netfuzz.txn_commits").Inc()
		return
	}
	r.pending = append(r.pending, pendingTxn{node: n, txid: txid})
	r.s.Reg.Counter("harness.netfuzz.txn_forwards").Inc()
}

// conflictTxn deliberately stales a transaction's read set — a plain
// write lands between its read and its commit — and asserts the
// validate-on-commit step catches it.
func (r *netfuzzRun) conflictTxn(seed int64, tick int) {
	home := r.homeOf(r.txnPath)
	if home == nil {
		return
	}
	t := home.Begin()
	if _, err := t.Read(r.txnPath, markerOff, 4); err != nil {
		return
	}
	// Interleaved plain write, away from the marker block.
	data := make([]byte, 1+r.rng.Intn(16))
	r.rng.Read(data)
	if err := home.Write(r.txnPath, uint32(r.rng.Intn(markerOff-32)), data); err != nil {
		return // frozen mid-migration: the read set is still valid, skip
	}
	t.WriteWord(r.txnPath, markerOff, r.txnCtr) // never staged: must not commit
	if _, err := t.Commit(); !errors.Is(err, netshm.ErrTxnConflict) {
		r.s.Failf("netfuzz seed=%d tick=%d: stale txn on %s committed (err=%v), want ErrTxnConflict",
			seed, tick, home.Name(), err)
	}
	r.s.Reg.Counter("harness.netfuzz.txn_aborts").Inc()
}

// pollTxns drains forwarded transactions that reached a verdict.
func (r *netfuzzRun) pollTxns() {
	kept := r.pending[:0]
	for _, p := range r.pending {
		switch p.node.TxnStatus(p.txid) {
		case netshm.TxnCommitted:
			r.s.Reg.Counter("harness.netfuzz.txn_commits").Inc()
		case netshm.TxnAborted:
			r.s.Reg.Counter("harness.netfuzz.txn_aborts").Inc()
		case netshm.TxnLost:
			r.s.Reg.Counter("harness.netfuzz.txn_lost").Inc()
		default:
			kept = append(kept, p)
		}
	}
	r.pending = kept
}

// checkMarker asserts that no machine observes a partial multi-word
// commit: all eight marker words — straddling a page boundary — must be
// equal on every machine that holds the segment, on every tick.
func (r *netfuzzRun) checkMarker(seed int64, tick int) {
	buf := make([]byte, markerWords*4)
	for _, n := range r.fleet.Nodes() {
		if _, err := n.Info(r.txnPath); err != nil {
			continue
		}
		if _, err := n.Sys().FS.ReadAt(r.txnPath, markerOff, buf, 0); err != nil {
			r.s.Failf("netfuzz seed=%d tick=%d: %s read marker: %v", seed, tick, n.Name(), err)
		}
		first := binary.BigEndian.Uint32(buf)
		for i := 1; i < markerWords; i++ {
			w := binary.BigEndian.Uint32(buf[4*i:])
			if w != first {
				r.s.Failf("netfuzz seed=%d tick=%d: %s observed a PARTIAL multi-word commit: marker[0]=%d marker[%d]=%d (block % x)",
					seed, tick, n.Name(), first, i, w, buf)
			}
		}
	}
}

// publishOn homes one segment with the given content on a machine, at an
// explicitly disjoint inode slot (CreateAt): independent Create calls on
// fresh machines would hand two homes the same slot, and the same-VA
// invariant would (correctly) refuse the second segment everywhere as an
// address clash.
func (r *netfuzzRun) publishOn(seed int64, homeName, path string, slot int, content []byte) {
	home := r.fleet.Node(homeName)
	fs := home.Sys().FS
	if err := fs.MkdirAll("/lib", shmfs.DefaultDirMode, 0); err != nil {
		r.s.Failf("netfuzz seed=%d: mkdir /lib on %s: %v", seed, homeName, err)
	}
	if _, err := fs.CreateAt(path, slot, shmfs.DefaultFileMode|shmfs.ModeOtherWrite, 0); err != nil {
		r.s.Failf("netfuzz seed=%d: create %s on %s: %v", seed, path, homeName, err)
	}
	if _, err := fs.WriteAt(path, 0, content, 0); err != nil {
		r.s.Failf("netfuzz seed=%d: write %s on %s: %v", seed, path, homeName, err)
	}
	if err := home.Serve(path); err != nil {
		r.s.Failf("netfuzz seed=%d: serve %s on %s: %v", seed, path, homeName, err)
	}
	if err := home.MarkDirty(path, 0, uint32(len(content))); err != nil {
		r.s.Failf("netfuzz seed=%d: push %s on %s: %v", seed, path, homeName, err)
	}
}

// NetFuzzOne runs one seeded adversarial fleet scenario: publish, churn
// under fire — writes, migrations, lease reads, transactions — a late
// join, quiesce, converge, verify. It returns the fleet's final counters,
// which a replay of the same seed must reproduce exactly.
func NetFuzzOne(s *Scenario, fuzzSeed int64) map[string]uint64 {
	rng := rand.New(rand.NewSource(fuzzSeed))
	net := netsim.New()
	// Short leases and a low auto-migration threshold so lease expiry,
	// renewals, and counter-driven home migration all fire within a run.
	fleet := netshm.NewFleet(net, netshm.Config{
		LeaseTicks:       uint64(8 + rng.Intn(32)),
		MigrateThreshold: 16,
	})
	for i := 0; i < 3; i++ {
		fleet.Add(fmt.Sprintf("m%d", i), core.NewSystem())
	}

	r := &netfuzzRun{
		s: s, rng: rng, fleet: fleet,
		model:   map[string][]byte{},
		watch:   map[string]map[string]*genWatch{},
		txnPath: "/lib/txn",
		txnCtr:  1,
		staged:  map[uint32]bool{0: true}, // the published all-zero marker
	}

	// Two plain segments homed on different machines, so update traffic
	// and acks cross in both directions through the adversary.
	for i, path := range []string{"/lib/alpha", "/lib/beta"} {
		homeName := fmt.Sprintf("m%d", i)
		size := 1024 + rng.Intn(3*netshm.PageSize)
		content := make([]byte, size)
		rng.Read(content)
		r.publishOn(fuzzSeed, homeName, path, 8+i, content)
		r.model[path] = content
		r.paths = append(r.paths, path)
	}
	// The transactional segment: two pages, random content, except the
	// marker block (straddling the page boundary) which starts all-zero.
	txnContent := make([]byte, 2*netshm.PageSize)
	rng.Read(txnContent)
	for i := range txnContent[markerOff : markerOff+markerWords*4] {
		txnContent[markerOff+uint32(i)] = 0
	}
	r.publishOn(fuzzSeed, "m2", r.txnPath, 10, txnContent)
	r.model[r.txnPath] = nil // consistency-checked, not modeled

	adv := newAdversary(rng)
	adv.arm(net)
	r.adv = adv

	churn := 60 + rng.Intn(120)
	joinAt := churn / 3 * (1 + rng.Intn(2)) // one-third or two-thirds in
	joined := false
	ctrTicks := s.Reg.Counter("harness.netfuzz.ticks")
	for tick := 0; tick < churn; tick++ {
		if tick == joinAt && !joined {
			fleet.Add("late", core.NewSystem())
			joined = true
			s.Reg.Counter("harness.netfuzz.joins").Inc()
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			r.writeSomewhere(fuzzSeed, tick)
		case 4, 5:
			r.txnSomewhere(fuzzSeed, tick)
		case 6:
			r.readSomewhere()
		case 7:
			r.migrateSomewhere(fuzzSeed, tick)
		case 8:
			r.conflictTxn(fuzzSeed, tick)
		}
		fleet.Tick()
		ctrTicks.Inc()
		r.pollTxns()
		r.checkGens(fuzzSeed, tick)
		r.checkMarker(fuzzSeed, tick)
	}

	// Quiesce: faithful LAN again; the protocol must heal everything the
	// adversary broke — including any migration handshake still in flight
	// and every forwarded transaction. Gens stay monotone and commits
	// stay whole through recovery too.
	adv.disarm(net)
	deadline := -1
	for tick := 0; tick < netfuzzQuiesceTicks; tick++ {
		fleet.Tick()
		ctrTicks.Inc()
		r.pollTxns()
		r.checkGens(fuzzSeed, churn+tick)
		r.checkMarker(fuzzSeed, churn+tick)
		allDone := len(r.pending) == 0
		for path := range r.model {
			if !fleet.Converged(path) {
				allDone = false
				break
			}
		}
		if allDone && net.InFlight() == 0 {
			deadline = tick
			break
		}
	}
	if deadline < 0 {
		snap := fleet.Reg.Snapshot().Text()
		s.Failf("netfuzz seed=%d: fleet did not converge within %d quiesce ticks (%d txns unresolved)\nfleet counters:\n%s",
			fuzzSeed, netfuzzQuiesceTicks, len(r.pending), snap)
	}

	// Every machine — including the latecomer — must hold byte-identical
	// content and the home's exact (epoch, generation) for every segment.
	for path := range r.model {
		home := r.homeOf(path)
		if home == nil {
			s.Failf("netfuzz seed=%d: no machine claims the home role for %s after quiesce", fuzzSeed, path)
		}
		hsi, err := home.Info(path)
		if err != nil {
			s.Failf("netfuzz seed=%d: home info %s: %v", fuzzSeed, path, err)
		}
		want := r.model[path]
		if want == nil {
			// The transactional segment is consistency-checked: every
			// machine must match the home's bytes exactly.
			st, err := home.Sys().FS.StatPath(path)
			if err != nil {
				s.Failf("netfuzz seed=%d: home stat %s: %v", fuzzSeed, path, err)
			}
			want = make([]byte, st.Size)
			if _, err := home.Sys().FS.ReadAt(path, 0, want, 0); err != nil {
				s.Failf("netfuzz seed=%d: home read %s: %v", fuzzSeed, path, err)
			}
		}
		for _, n := range r.fleet.Nodes() {
			si, err := n.Info(path)
			if err != nil {
				s.Failf("netfuzz seed=%d: %s never adopted %s: %v", fuzzSeed, n.Name(), path, err)
			}
			if si.Epoch != hsi.Epoch || si.Gen != hsi.Gen {
				s.Failf("netfuzz seed=%d: %s at epoch/gen %d/%d of %s, home %s at %d/%d",
					fuzzSeed, n.Name(), si.Epoch, si.Gen, path, home.Name(), hsi.Epoch, hsi.Gen)
			}
			st, err := n.Sys().FS.StatPath(path)
			if err != nil {
				s.Failf("netfuzz seed=%d: %s stat %s: %v", fuzzSeed, n.Name(), path, err)
			}
			got := make([]byte, st.Size)
			if _, err := n.Sys().FS.ReadAt(path, 0, got, 0); err != nil {
				s.Failf("netfuzz seed=%d: %s read %s: %v", fuzzSeed, n.Name(), path, err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				s.Failf("netfuzz seed=%d: %s content of %s diverges from model at byte %d (len %d vs %d)",
					fuzzSeed, n.Name(), path, i, len(got), len(want))
			}
		}
	}

	// The final marker value must be one the run actually staged.
	homeT := r.homeOf(r.txnPath)
	buf := make([]byte, 4)
	if _, err := homeT.Sys().FS.ReadAt(r.txnPath, markerOff, buf, 0); err != nil {
		s.Failf("netfuzz seed=%d: final marker read: %v", fuzzSeed, err)
	}
	if v := binary.BigEndian.Uint32(buf); !r.staged[v] {
		s.Failf("netfuzz seed=%d: final marker value %d was never staged by any transaction", fuzzSeed, v)
	}
	s.Reg.Counter("harness.netfuzz.runs").Inc()
	return fleet.Reg.Snapshot().Counters
}
