// Package netshm extends Hemlock's shared segments across a network of
// simulated machines. Each machine is a full kernel + shmfs + address
// space; netshm replicates public segments between them over netsim,
// preserving the Hemlock invariant that a public module occupies the same
// virtual address on every machine — the home machine dictates the inode
// slot, and replicas materialise the segment at that exact slot
// (shmfs.CreateAt), so a pointer stored into the segment on one machine
// dereferences correctly on all of them.
//
// Coherence is page-granularity and single-home per epoch:
//
//   - every segment has one home machine per epoch; all writes happen
//     there (remote writers forward with WriteAny, and the home migrates
//     to the hottest writer — each migration bumps the segment's epoch);
//   - versions order lexicographically by (epoch, generation): a higher
//     epoch supersedes any generation of a lower one, and a replica that
//     adopts a new epoch resyncs its full content from the new home
//     before trusting any incremental update again;
//   - the home pushes sequence-numbered updates (one generation per write
//     batch) carrying coalesced dirty byte-range deltas — or full pages
//     when delta tracking cannot vouch for a page;
//   - replicas apply updates idempotently and strictly in order,
//     acknowledging their applied generation;
//   - replicas hold time-bounded read leases granted and renewed by every
//     home-originated message, so fresh reads skip the home entirely
//     until the lease expires or an invalidation arrives;
//   - the home retries lagging replicas with catch-up syncs (full pages)
//     — bounded attempts, exponential backoff, all driven by the fleet's
//     virtual clock so tests are deterministic;
//   - a pull-based anti-entropy round — triggered by a read of a stale
//     generation, a joining node, or an epoch adoption — heals whatever
//     the lossy LAN and the bounded retries left behind;
//   - the home periodically announces (path, base, epoch, generation),
//     which is how latecomers discover segments, how replicas learn they
//     are stale, and how a deposed home learns to demote itself;
//   - multi-word writes commit atomically through the TL2-style Txn API:
//     per-segment version clocks, validate-on-commit, one generation per
//     segment carrying the whole write set.
//
// Every protocol action is counted in the fleet's obsv registry
// ("netshm.*"), next to the network's own delivery/loss counters.
package netshm

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"hemlock/internal/core"
	"hemlock/internal/mem"
	"hemlock/internal/netsim"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
)

// Errors.
var (
	ErrNotHome    = errors.New("netshm: segment is homed on another machine")
	ErrUnknownSeg = errors.New("netshm: unknown segment")
	ErrAddrClash  = errors.New("netshm: segment address differs between machines")
	ErrMigrating  = errors.New("netshm: segment home is migrating; writes are frozen")
)

// PageSize is the replication granularity: the machine page.
const PageSize = mem.PageSize

// Config tunes the protocol's virtual-clock behaviour. The zero value
// selects the defaults.
type Config struct {
	RetryTicks    uint64 // ticks before the first catch-up retry (default 2)
	RetryMax      int    // bounded retry: attempts per lag episode (default 8)
	BackoffCap    uint64 // ceiling on the backoff interval (default 16)
	AnnounceTicks uint64 // announce period for home segments (default 4)

	// LeaseTicks is the read-lease duration granted by every
	// home-originated message (default 64). A replica whose lease expired
	// keeps serving local reads but counts them and asks the home for a
	// renewal, which doubles as a liveness probe.
	LeaseTicks uint64

	// MigrateThreshold moves a segment's home to a remote writer once it
	// has forwarded that many writes and leads the current home's own
	// count (default 64). Negative disables auto-migration; explicit
	// MigrateTo always works.
	MigrateThreshold int

	// FullPage disables dirty-byte delta encoding: every update carries
	// full pages, as the pre-v3 protocol did. Its users are the reference
	// side of TestDeltaMatchesFullPage and the full-page side of
	// BenchmarkNetShmDeltaBytes, which feeds benchcheck's delta gate.
	FullPage bool
}

func (c Config) withDefaults() Config {
	if c.RetryTicks == 0 {
		c.RetryTicks = 2
	}
	if c.RetryMax == 0 {
		c.RetryMax = 8
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 16
	}
	if c.AnnounceTicks == 0 {
		c.AnnounceTicks = 4
	}
	if c.LeaseTicks == 0 {
		c.LeaseTicks = 64
	}
	if c.MigrateThreshold == 0 {
		c.MigrateThreshold = 64
	}
	return c
}

// seg is one replicated segment as seen by one machine.
type seg struct {
	path   string
	base   uint32
	size   uint32
	home   string
	isHome bool

	epoch   uint64 // home epoch; bumped by every migration (and by 2 on abort)
	gen     uint64 // applied generation (home: current generation)
	highest uint64 // highest generation heard of at the current epoch
	tv      uint64 // transactional version clock: commits applied at this seg

	// Home-side replication state.
	pageGen  []uint64              // generation at which each page last changed
	pageVer  []uint64              // frame store-version snapshot at last push (delta fallback)
	frames   []*mem.Frame          // pinned backing frames, dirty-watermark tracked
	peers    map[string]*peerState // keyed by replica name, discovered via acks
	writeCnt map[string]uint64     // per-origin write counter (migration driver)

	// Home-side migration handshake.
	migrating    string // non-empty: offer to this target is in flight; writes frozen
	migrateAt    uint64 // virtual tick of the next offer retry
	migrateTries int

	// Replica-side anti-entropy state.
	pullArmed bool   // a pull round is in flight or due
	pullAt    uint64 // virtual tick to (re)send the pull
	needFull  bool   // adopted a new epoch: only a full resync restores trust

	// Replica-side lease state.
	leaseUntil uint64 // virtual tick the read lease expires; 0 = never granted
	renewAt    uint64 // rate limit on lease-renew requests

	// Lazily-fetched per-segment instruments (apply path).
	lagHist *obsv.Histogram // netshm.lag_ticks:<path> — send→apply ticks
	staleG  *obsv.Gauge     // netshm.staleness:<machine>:<path> — highest-gen gap
}

// peerState is the home's view of one replica.
type peerState struct {
	acked    uint64 // highest generation the replica acknowledged (current epoch)
	attempts int    // catch-up retries since last progress
	nextTry  uint64 // virtual tick of the next retry
}

func (s *seg) pages() int { return int((s.size + PageSize - 1) / PageSize) }

func (s *seg) growPageGen() {
	for len(s.pageGen) < s.pages() {
		s.pageGen = append(s.pageGen, 0)
	}
	for len(s.pageVer) < s.pages() {
		s.pageVer = append(s.pageVer, 0)
	}
}

// Node is one machine's netshm endpoint: its Hemlock system plus the
// protocol state for every segment it homes or replicates.
type Node struct {
	name  string
	sys   *core.System
	net   *netsim.Network
	nd    *netsim.Node
	fleet *Fleet
	cfg   Config
	idx   int // fleet index (Add order): the event PID / Chrome track

	mu    sync.Mutex
	segs  map[string]*seg
	onApp func(from string, payload []byte)

	// Outbound transaction state (Txn forwards).
	txnNext    uint64
	txnPending map[uint64]*fwdTxn
	// Inbound transaction dedup (home side): txid -> result flag.
	txnSeen  map[txnKey]byte
	txnOrder []txnKey
	// Guest syscall staging (per pid).
	gtxns map[int]*Txn

	ctrUpdatesSent    *obsv.Counter
	ctrUpdatesApplied *obsv.Counter
	ctrUpdatesDup     *obsv.Counter
	ctrAcksRecv       *obsv.Counter
	ctrRetries        *obsv.Counter
	ctrAntiEntropy    *obsv.Counter
	ctrPullsServed    *obsv.Counter
	ctrStaleReads     *obsv.Counter
	ctrAddrClash      *obsv.Counter
	ctrDeltaPages     *obsv.Counter
	ctrFullPages      *obsv.Counter
	ctrLeaseExpired   *obsv.Counter
	ctrLeaseGrants    *obsv.Counter
	ctrLeaseRenews    *obsv.Counter
	ctrMigrations     *obsv.Counter
	ctrMigrateAborts  *obsv.Counter
	ctrEpochResyncs   *obsv.Counter
	ctrWriteFwd       *obsv.Counter
	ctrTxnCommits     *obsv.Counter
	ctrTxnAborts      *obsv.Counter
}

// Name returns the machine name.
func (n *Node) Name() string { return n.name }

// emit sends a protocol event to the fleet tracer, stamped with this
// machine's fleet index so each machine is one track in a merged trace.
func (n *Node) emit(e obsv.Event) {
	if t := n.fleet.Trace; t.Enabled() {
		e.Subsys = "netshm"
		e.PID = n.idx
		t.Emit(e)
	}
}

// stamp fills the message's trace context at send time.
func (n *Node) stamp(m *msg) *msg {
	m.origin = n.name
	m.stick = n.fleet.Now()
	return m
}

// noteStale refreshes the segment's staleness gauge (how many generations
// behind the highest heard this machine's replica is).
func (n *Node) noteStale(s *seg) {
	if s.staleG == nil {
		s.staleG = n.fleet.Reg.Gauge("netshm.staleness:" + n.name + ":" + s.path)
	}
	lag := int64(0)
	if s.highest > s.gen {
		lag = int64(s.highest - s.gen)
	}
	s.staleG.Set(lag)
}

// Sys returns the machine's Hemlock system.
func (n *Node) Sys() *core.System { return n.sys }

func (n *Node) wire(r *obsv.Registry) {
	n.ctrUpdatesSent = r.Counter("netshm.updates_sent")
	n.ctrUpdatesApplied = r.Counter("netshm.updates_applied")
	n.ctrUpdatesDup = r.Counter("netshm.updates_dup")
	n.ctrAcksRecv = r.Counter("netshm.acks_recv")
	n.ctrRetries = r.Counter("netshm.retries")
	n.ctrAntiEntropy = r.Counter("netshm.anti_entropy_rounds")
	n.ctrPullsServed = r.Counter("netshm.pulls_served")
	n.ctrStaleReads = r.Counter("netshm.stale_reads")
	n.ctrAddrClash = r.Counter("netshm.addr_mismatch")
	n.ctrDeltaPages = r.Counter("netshm.delta_pages")
	n.ctrFullPages = r.Counter("netshm.full_pages")
	n.ctrLeaseExpired = r.Counter("netshm.lease_expired_reads")
	n.ctrLeaseGrants = r.Counter("netshm.lease_grants")
	n.ctrLeaseRenews = r.Counter("netshm.lease_renews")
	n.ctrMigrations = r.Counter("netshm.migrations")
	n.ctrMigrateAborts = r.Counter("netshm.migrate_aborts")
	n.ctrEpochResyncs = r.Counter("netshm.epoch_resyncs")
	n.ctrWriteFwd = r.Counter("netshm.write_fwd")
	n.ctrTxnCommits = r.Counter("netshm.txn_commits")
	n.ctrTxnAborts = r.Counter("netshm.txn_aborts")
}

// ---- home-side API -----------------------------------------------------------

// Serve registers an existing shmfs file as a segment homed here. Its
// current content is generation 0 — the state identically-booted replicas
// already hold (the rwho whod table, for instance).
func (n *Node) Serve(path string) error {
	st, err := n.sys.FS.StatPath(path)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.segs[path]; ok {
		return fmt.Errorf("netshm: %s already registered on %s", path, n.name)
	}
	s := &seg{path: path, base: st.Addr, size: st.Size, home: n.name, isHome: true,
		peers: map[string]*peerState{}, writeCnt: map[string]uint64{}}
	s.growPageGen()
	n.pinFramesLocked(s)
	n.segs[path] = s
	return nil
}

// Publish creates a new segment homed here with the given content and
// pushes it to every machine on the network as generation 1.
func (n *Node) Publish(path string, data []byte) error {
	return n.publish(path, data, -1)
}

// PublishAt is Publish pinned to a specific inode slot — the
// fleet-coordinated slot assignment behind Fleet.PublishSharded, which
// keeps independently-homed segments from colliding at the same virtual
// address.
func (n *Node) PublishAt(path string, data []byte, ino int) error {
	return n.publish(path, data, ino)
}

func (n *Node) publish(path string, data []byte, ino int) error {
	if err := n.sys.FS.MkdirAll(parentDir(path), shmfs.DefaultDirMode, 0); err != nil {
		return err
	}
	var err error
	if ino >= 0 {
		_, err = n.sys.FS.CreateAt(path, ino, shmfs.DefaultFileMode|shmfs.ModeOtherWrite, 0)
	} else {
		_, err = n.sys.FS.Create(path, shmfs.DefaultFileMode|shmfs.ModeOtherWrite, 0)
	}
	if err != nil {
		return err
	}
	if _, err := n.sys.FS.WriteAt(path, 0, data, 0); err != nil {
		return err
	}
	if err := n.Serve(path); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dirtyRangesLocked(n.segs[path], [][2]uint32{{0, uint32(len(data))}})
	return nil
}

// Write stores data into a segment homed here (through the file interface
// — the very frames every local mapping sees) and replicates the dirtied
// pages.
func (n *Node) Write(path string, off uint32, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, err := n.writableLocked(path)
	if err != nil {
		return err
	}
	if _, err := n.sys.FS.WriteAt(path, off, data, 0); err != nil {
		return err
	}
	s.writeCnt[n.name]++
	n.dirtyRangesLocked(s, [][2]uint32{{off, uint32(len(data))}})
	return nil
}

// MarkDirty replicates a range that was already written through a local
// mapping of the segment (a hosted daemon storing through Var, a compiled
// program storing through the MMU): same frames, so the content is already
// there — only the protocol needs telling.
func (n *Node) MarkDirty(path string, off, length uint32) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, err := n.writableLocked(path)
	if err != nil {
		return err
	}
	s.writeCnt[n.name]++
	n.dirtyRangesLocked(s, [][2]uint32{{off, length}})
	return nil
}

// WriteAny stores data into a segment regardless of where it is homed: a
// local write at the home, a forwarded write (fire-and-forget, like every
// other datagram of the protocol) everywhere else. Forwarded writes feed
// the home's per-origin write counters — the signal auto-migration moves
// the home on.
func (n *Node) WriteAny(path string, off uint32, data []byte) error {
	n.mu.Lock()
	s, ok := n.segs[path]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	if s.isHome {
		n.mu.Unlock()
		return n.Write(path, off, data)
	}
	defer n.mu.Unlock()
	m := n.stamp(&msg{typ: msgWriteFwd, path: s.path, base: s.base, epoch: s.epoch,
		pages: rangesToPages(off, data)})
	n.ctrWriteFwd.Inc()
	return n.nd.Send(s.home, m.encode())
}

// writableLocked resolves a segment this machine may write right now.
func (n *Node) writableLocked(path string) (*seg, error) {
	s, ok := n.segs[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	if !s.isHome {
		return nil, fmt.Errorf("%w: %s is homed on %s", ErrNotHome, path, s.home)
	}
	if s.migrating != "" {
		return nil, fmt.Errorf("%w: %s -> %s", ErrMigrating, path, s.migrating)
	}
	return s, nil
}

// rangesToPages splits one byte range into per-page delta entries.
func rangesToPages(off uint32, data []byte) []page {
	var pages []page
	for len(data) > 0 {
		idx := off / PageSize
		po := off % PageSize
		take := PageSize - po
		if take > uint32(len(data)) {
			take = uint32(len(data))
		}
		cp := append([]byte(nil), data[:take]...)
		pages = append(pages, page{idx: idx, deltas: []rng{{off: po, data: cp}}})
		off += take
		data = data[take:]
	}
	return pages
}

// pinFramesLocked pins the segment's backing frames and turns on their
// dirty-byte watermarks, snapshotting the store-version counters so any
// write the watermark cannot vouch for falls back to a full-page push.
func (n *Node) pinFramesLocked(s *seg) {
	frames, _, err := n.sys.FS.Frames(s.path, s.size, 0, false)
	if err != nil {
		s.frames = nil
		return
	}
	for i := len(s.frames); i < len(frames); i++ {
		frames[i].SetTracked(true)
	}
	s.frames = frames
	s.growPageGen()
	for i, f := range frames {
		if i < len(s.pageVer) && s.pageVer[i] == 0 {
			s.pageVer[i] = f.Version()
		}
	}
}

// unpinFramesLocked turns the watermarks off (demotion).
func (n *Node) unpinFramesLocked(s *seg) {
	for _, f := range s.frames {
		f.SetTracked(false)
	}
	s.frames = nil
	for i := range s.pageVer {
		s.pageVer[i] = 0
	}
}

// dirtyRangesLocked advances the segment one generation covering every
// given (off, length) range — one generation per call, which is what makes
// a multi-range transactional commit atomic on every replica — and pushes
// the update to every other machine. Each touched page ships either the
// coalesced dirty byte range (declared ranges widened by the frame
// watermark) or the full page when the watermark cannot vouch for it.
func (n *Node) dirtyRangesLocked(s *seg, ranges [][2]uint32) {
	if st, err := n.sys.FS.StatPath(s.path); err == nil && st.Size > s.size {
		s.size = st.Size
	}
	s.gen++
	s.growPageGen()
	n.pinFramesLocked(s)

	// Merge the declared ranges per page.
	type span struct {
		lo, end uint32
		have    bool
	}
	perPage := map[int]*span{}
	declared := 0
	for _, r := range ranges {
		off, length := r[0], r[1]
		if length == 0 {
			continue
		}
		declared++
		first := int(off / PageSize)
		last := int((off + length - 1) / PageSize)
		for p := first; p <= last && p < s.pages(); p++ {
			lo, end := uint32(0), uint32(PageSize)
			if p == first {
				lo = off % PageSize
			}
			if p == last {
				end = (off+length-1)%PageSize + 1
			}
			sp := perPage[p]
			if sp == nil {
				perPage[p] = &span{lo: lo, end: end, have: true}
				continue
			}
			if lo < sp.lo {
				sp.lo = lo
			}
			if end > sp.end {
				sp.end = end
			}
		}
	}
	if declared == 0 && len(s.frames) == 0 {
		return // pure generation bump (MarkDirty of a zero range)
	}

	var pages []page
	for p := 0; p < s.pages(); p++ {
		sp := span{}
		if d := perPage[p]; d != nil {
			sp = *d
		}
		var verNow uint64
		tracked := p < len(s.frames)
		if tracked {
			verNow = s.frames[p].Version()
			if wlo, wend, ok := s.frames[p].TakeDirtyRange(); ok {
				if !sp.have || wlo < sp.lo {
					sp.lo = wlo
				}
				if !sp.have || wend > sp.end {
					sp.end = wend
				}
				sp.have = true
			}
		}
		full := n.cfg.FullPage || !tracked
		if !sp.have {
			// Nothing declared and no watermark: push the full page only
			// if the store-version moved behind the watermark's back.
			if !tracked || verNow == s.pageVer[p] {
				continue
			}
			full = true
		}
		s.pageGen[p] = s.gen
		if tracked {
			s.pageVer[p] = verNow
		}
		if full {
			pages = append(pages, n.readPage(s, p))
			n.ctrFullPages.Inc()
			continue
		}
		if end := (s.size - 1) % PageSize; p == s.pages()-1 && sp.end > end+1 {
			sp.end = end + 1 // clip the watermark to the tail page's content
		}
		if sp.end <= sp.lo {
			continue
		}
		buf := make([]byte, sp.end-sp.lo)
		n.sys.FS.ReadAt(s.path, uint32(p)*PageSize+sp.lo, buf, 0)
		pages = append(pages, page{idx: uint32(p), gen: s.gen, deltas: []rng{{off: sp.lo, data: buf}}})
		n.ctrDeltaPages.Inc()
	}
	if len(pages) == 0 && declared == 0 {
		return
	}

	n.emit(obsv.Event{Name: "write", Mod: s.path, Addr: s.base, Val: s.gen})
	n.emit(obsv.Event{Name: "repl", Phase: obsv.PhaseFlowStart, Mod: s.path,
		Val: s.gen, Flow: obsv.FlowID(s.path, s.gen)})
	m := n.stamp(&msg{typ: msgUpdate, path: s.path, base: s.base, size: s.size,
		epoch: s.epoch, gen: s.gen, tv: s.tv, lease: n.cfg.LeaseTicks, pages: pages})
	b := m.encode()
	for _, peer := range n.net.Nodes() {
		if peer == n.name {
			continue
		}
		n.nd.Send(peer, b)
		n.ctrUpdatesSent.Inc()
		n.emit(obsv.Event{Name: "push", Mod: peer, Val: s.gen})
		// A push obligates the peer: retry until acked or out of attempts.
		ps, ok := s.peers[peer]
		if !ok {
			ps = &peerState{}
			s.peers[peer] = ps
		}
		ps.attempts = 0
		ps.nextTry = n.fleet.Now() + n.cfg.RetryTicks
	}
}

// readPage copies one page of segment content out of the file.
func (n *Node) readPage(s *seg, idx int) page {
	off := uint32(idx) * PageSize
	length := s.size - off
	if length > PageSize {
		length = PageSize
	}
	buf := make([]byte, length)
	n.sys.FS.ReadAt(s.path, off, buf, 0)
	return page{idx: uint32(idx), gen: s.pageGen[idx], full: buf}
}

// ---- home migration ----------------------------------------------------------

// MigrateTo starts a home migration: the current home freezes writes,
// offers the segment (full snapshot, epoch+1) to the target, and demotes
// itself when the target acknowledges its promotion. If the handshake
// never completes — the offer or the ack lost beyond the bounded retries —
// the home aborts, skips past the offered epoch (epoch+2), and resumes.
func (n *Node) MigrateTo(path, target string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, err := n.writableLocked(path)
	if err != nil {
		return err
	}
	if target == n.name {
		return nil
	}
	n.startMigrationLocked(s, target)
	return nil
}

func (n *Node) startMigrationLocked(s *seg, target string) {
	s.migrating = target
	s.migrateTries = 1
	s.migrateAt = n.fleet.Now() + n.cfg.RetryTicks
	n.emit(obsv.Event{Name: "migrate_offer", Mod: s.path, Val: s.epoch + 1})
	n.sendMigrateLocked(s)
}

// sendMigrateLocked ships the full snapshot offer to the migration target.
func (n *Node) sendMigrateLocked(s *seg) {
	var pages []page
	for p := 0; p < s.pages(); p++ {
		pages = append(pages, n.readPage(s, p))
	}
	m := n.stamp(&msg{typ: msgMigrate, path: s.path, base: s.base, size: s.size,
		epoch: s.epoch + 1, gen: s.gen, tv: s.tv, home: s.migrating,
		lease: n.cfg.LeaseTicks, pages: pages})
	n.nd.Send(s.migrating, m.encode())
}

// maybeAutoMigrateLocked moves the home toward the hottest forwarded
// writer once it clears the threshold and leads the home's own count.
func (n *Node) maybeAutoMigrateLocked(s *seg, origin string) {
	if n.cfg.MigrateThreshold < 0 || s.migrating != "" || origin == n.name {
		return
	}
	if s.writeCnt[origin] >= uint64(n.cfg.MigrateThreshold) && s.writeCnt[origin] > s.writeCnt[n.name] {
		n.startMigrationLocked(s, origin)
		s.writeCnt = map[string]uint64{}
	}
}

// ---- replica-side API --------------------------------------------------------

// Attach registers a segment homed on another machine. The local file must
// already exist (an identically-booted machine) at the same address, or
// not exist at all — in which case it is created at the home's slot on
// first contact.
func (n *Node) Attach(path, home string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.segs[path]; ok {
		return fmt.Errorf("netshm: %s already registered on %s", path, n.name)
	}
	s := &seg{path: path, home: home}
	if st, err := n.sys.FS.StatPath(path); err == nil {
		s.base, s.size = st.Addr, st.Size
	}
	n.segs[path] = s
	return nil
}

// Read returns length bytes of the local replica at off. The second result
// reports freshness: false means the replica knows a higher generation
// exists, in which case the read still returns the stale local content but
// triggers an anti-entropy pull. A fresh read under a valid lease costs no
// network traffic at all; a fresh read whose lease expired is counted and
// asks the home for a renewal.
func (n *Node) Read(path string, off, length uint32) ([]byte, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.segs[path]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	buf := make([]byte, length)
	if _, err := n.sys.FS.ReadAt(path, off, buf, 0); err != nil {
		return nil, false, err
	}
	fresh := s.isHome || (s.highest <= s.gen && !s.needFull)
	switch {
	case !fresh:
		n.ctrStaleReads.Inc()
		n.pullLocked(s)
	case !s.isHome && s.leaseUntil > 0 && n.fleet.Now() > s.leaseUntil:
		n.ctrLeaseExpired.Inc()
		if now := n.fleet.Now(); now >= s.renewAt {
			s.renewAt = now + n.cfg.RetryTicks
			m := n.stamp(&msg{typ: msgLeaseRenew, path: s.path, base: s.base,
				epoch: s.epoch, gen: s.gen})
			n.nd.Send(s.home, m.encode())
		}
	}
	return buf, fresh, nil
}

// Gen reports the segment's applied and highest-heard generations.
func (n *Node) Gen(path string) (applied, highest uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.segs[path]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	return s.gen, s.highest, nil
}

// Base returns the segment's globally-agreed virtual address.
func (n *Node) Base(path string) (uint32, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.segs[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	return s.base, nil
}

// Segments lists the registered segment paths.
func (n *Node) Segments() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.segs))
	for p := range n.segs {
		out = append(out, p)
	}
	return out
}

// SegInfo is one machine's view of one replicated segment, as reported by
// Info — the doctor's raw material for staleness, divergence, orphaned-
// home, lease and transactional version-clock checks.
type SegInfo struct {
	Path       string
	Base       uint32
	Size       uint32
	Home       string
	IsHome     bool
	Migrating  bool   // home side: an offer is in flight; writes are frozen
	Epoch      uint64 // home epoch; (Epoch, Gen) orders lexicographically
	Gen        uint64 // applied generation
	Highest    uint64 // highest generation heard of (current epoch)
	Tv         uint64 // transactional version clock at Gen
	LeaseUntil uint64 // replica: read lease expiry tick (0 = never granted)
}

// Stale reports whether this replica knows it lags the home.
func (si SegInfo) Stale() bool { return !si.IsHome && si.Highest > si.Gen }

// Writable reports whether this machine accepts writes for the segment
// right now — the doctor's orphaned-home check needs one machine fleet-
// wide for which this is true.
func (si SegInfo) Writable() bool { return si.IsHome && !si.Migrating }

// Info returns this machine's protocol view of the segment at path.
func (n *Node) Info(path string) (SegInfo, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.segs[path]
	if !ok {
		return SegInfo{}, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	return SegInfo{Path: s.path, Base: s.base, Size: s.size, Home: s.home,
		IsHome: s.isHome, Migrating: s.migrating != "", Epoch: s.epoch,
		Gen: s.gen, Highest: s.highest, Tv: s.tv, LeaseUntil: s.leaseUntil}, nil
}

// Digest returns an FNV-1a hash of the segment's local content (the bytes
// every local mapping sees). Two converged machines must agree on it; a
// disagreement after quiesce means replication delivered divergent bytes —
// the doctor's divergence check compares digests across the fleet.
func (n *Node) Digest(path string) (uint64, error) {
	n.mu.Lock()
	s, ok := n.segs[path]
	if !ok {
		n.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	size := s.size
	n.mu.Unlock()
	if st, err := n.sys.FS.StatPath(path); err == nil && st.Size > size {
		size = st.Size
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	buf := make([]byte, PageSize)
	for off := uint32(0); off < size; off += PageSize {
		want := size - off
		if want > PageSize {
			want = PageSize
		}
		nr, err := n.sys.FS.ReadAt(path, off, buf[:want], 0)
		if err != nil {
			return 0, err
		}
		for _, b := range buf[:nr] {
			h ^= uint64(b)
			h *= prime64
		}
		// Short reads past EOF hash as absent; the size header below keeps
		// digests of different sizes distinct.
		if uint32(nr) < want {
			break
		}
	}
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(size >> (8 * i)))
		h *= prime64
	}
	return h, nil
}

// pullLocked starts (or re-arms) an anti-entropy round for a stale
// replica segment. A replica that adopted a new epoch pulls with epoch 0,
// which the home answers with a full resync — nothing of the old lineage
// survives.
func (n *Node) pullLocked(s *seg) {
	now := n.fleet.Now()
	if s.pullArmed && now < s.pullAt {
		return // a round is already in flight
	}
	s.pullArmed = true
	s.pullAt = now + n.cfg.RetryTicks
	n.ctrAntiEntropy.Inc()
	epoch := s.epoch
	if s.needFull {
		epoch = 0
	}
	m := n.stamp(&msg{typ: msgPull, path: s.path, base: s.base, epoch: epoch, gen: s.gen})
	n.nd.Send(s.home, m.encode())
}

// ---- application payloads ----------------------------------------------------

// OnApp installs the handler for application datagrams multiplexed over
// the protocol NIC (rwho status packets travelling to the segment's home).
func (n *Node) OnApp(fn func(from string, payload []byte)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onApp = fn
}

// SendApp unicasts an application payload to another machine.
func (n *Node) SendApp(to string, payload []byte) error {
	m := n.stamp(&msg{typ: msgApp, payload: payload})
	return n.nd.Send(to, m.encode())
}

// ---- the per-tick protocol engine --------------------------------------------

// Step runs one virtual-clock tick of the protocol: drain the inbox, run
// the home-side retry / announce / migration timers, and re-send overdue
// pulls. Fleet.Tick calls it for every machine in a deterministic order.
func (n *Node) Step() {
	for {
		d, ok := n.nd.Recv()
		if !ok {
			break
		}
		m, err := decodeMsg(d.Payload)
		// decodeMsg copies every field, so the datagram buffer can back a
		// future datagram immediately.
		n.net.Recycle(d.Payload)
		if err != nil {
			continue // runt or foreign datagram; drop like rwhod does
		}
		n.handle(d.From, m)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.fleet.Now()
	for _, s := range n.segs {
		if s.isHome {
			if s.migrating != "" && now >= s.migrateAt {
				if s.migrateTries >= n.cfg.RetryMax {
					// Abort: skip PAST the offered epoch, so even if the
					// target promoted and our ack back never arrives, this
					// home's resumed lineage outranks the target's.
					s.epoch += 2
					s.migrating = ""
					n.ctrMigrateAborts.Inc()
					n.emit(obsv.Event{Name: "migrate_abort", Mod: s.path, Val: s.epoch})
					n.announceLocked(s)
				} else {
					n.sendMigrateLocked(s)
					s.migrateTries++
					backoff := n.cfg.RetryTicks << uint(s.migrateTries)
					if backoff > n.cfg.BackoffCap {
						backoff = n.cfg.BackoffCap
					}
					s.migrateAt = now + backoff
				}
			}
			n.retryLocked(s, now)
			if n.cfg.AnnounceTicks > 0 && now%n.cfg.AnnounceTicks == 0 {
				n.announceLocked(s)
			}
		} else if s.pullArmed && now >= s.pullAt && (s.needFull || s.highest > s.gen) {
			s.pullArmed = false
			n.pullLocked(s) // the previous round was lost; go again
		}
	}
	n.stepTxnLocked(now)
}

// announceLocked broadcasts the segment's existence and version.
func (n *Node) announceLocked(s *seg) {
	a := n.stamp(&msg{typ: msgAnnounce, path: s.path, base: s.base, size: s.size,
		epoch: s.epoch, gen: s.gen, tv: s.tv, home: n.name, lease: n.cfg.LeaseTicks})
	n.nd.Broadcast(a.encode())
}

// retryLocked sends catch-up syncs to replicas whose acked generation
// lags, with exponential backoff and a bounded attempt count.
func (n *Node) retryLocked(s *seg, now uint64) {
	for peer, ps := range s.peers {
		if ps.acked >= s.gen || now < ps.nextTry || ps.attempts >= n.cfg.RetryMax {
			continue
		}
		n.sendSyncLocked(s, peer, ps.acked)
		n.ctrRetries.Inc()
		ps.attempts++
		backoff := n.cfg.RetryTicks << uint(ps.attempts)
		if backoff > n.cfg.BackoffCap {
			backoff = n.cfg.BackoffCap
		}
		ps.nextTry = now + backoff
	}
}

// sendSyncLocked ships every page newer than sinceGen to one replica,
// full-page (syncs are the out-of-order path, deltas need in-order).
func (n *Node) sendSyncLocked(s *seg, to string, sinceGen uint64) {
	var pages []page
	for p := 0; p < s.pages(); p++ {
		if s.pageGen[p] > sinceGen {
			pages = append(pages, n.readPage(s, p))
		}
	}
	m := n.stamp(&msg{typ: msgSync, path: s.path, base: s.base, size: s.size,
		epoch: s.epoch, gen: s.gen, tv: s.tv, lease: n.cfg.LeaseTicks, pages: pages})
	n.nd.Send(to, m.encode())
}

// sendFullSyncLocked ships every page — the answer to a lower-epoch pull:
// the puller's lineage cannot be trusted at all, so all of it is replaced.
func (n *Node) sendFullSyncLocked(s *seg, to string) {
	var pages []page
	for p := 0; p < s.pages(); p++ {
		pages = append(pages, n.readPage(s, p))
	}
	m := n.stamp(&msg{typ: msgSync, flag: flagFull, path: s.path, base: s.base,
		size: s.size, epoch: s.epoch, gen: s.gen, tv: s.tv,
		lease: n.cfg.LeaseTicks, pages: pages})
	n.ctrEpochResyncs.Inc()
	n.nd.Send(to, m.encode())
}

// handle dispatches one decoded protocol message.
func (n *Node) handle(from string, m *msg) {
	if m.typ == msgApp {
		n.mu.Lock()
		fn := n.onApp
		n.mu.Unlock()
		if fn != nil {
			fn(from, m.payload)
		}
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch m.typ {
	case msgUpdate, msgSync:
		s := n.adoptLocked(from, m)
		if s == nil {
			return
		}
		n.recvContentLocked(from, m, s)
	case msgAck:
		s, ok := n.segs[m.path]
		if !ok || !s.isHome || m.epoch != s.epoch {
			return
		}
		n.ctrAcksRecv.Inc()
		ps, okp := s.peers[from]
		if !okp {
			ps = &peerState{}
			s.peers[from] = ps
		}
		if m.gen > ps.acked {
			ps.acked = m.gen
			ps.attempts = 0
			ps.nextTry = n.fleet.Now() + n.cfg.RetryTicks
		}
	case msgPull:
		s, ok := n.segs[m.path]
		if !ok || !s.isHome {
			return
		}
		n.ctrPullsServed.Inc()
		if m.epoch < s.epoch {
			n.sendFullSyncLocked(s, from)
		} else {
			n.sendSyncLocked(s, from, m.gen)
		}
	case msgAnnounce:
		s, ok := n.segs[m.path]
		if !ok {
			// A machine joining an established fleet: materialise the
			// segment and pull its content — the join-triggered
			// anti-entropy round.
			s = n.adoptLocked(from, m)
			if s == nil {
				return
			}
		}
		if s.isHome {
			if m.epoch > s.epoch {
				// A higher-epoch home exists: this machine was deposed
				// (its migrate-ack or abort-announce raced). Demote and
				// resync — higher epoch always wins.
				n.adoptAuthorityLocked(s, m, from, true)
			}
			return
		}
		if m.epoch < s.epoch {
			return
		}
		if m.epoch > s.epoch {
			n.adoptAuthorityLocked(s, m, from, true)
			return
		}
		if m.gen > s.highest {
			s.highest = m.gen
		}
		n.noteStale(s)
		n.leaseLocked(s, m)
		if (s.highest > s.gen || s.needFull) && !s.pullArmed {
			n.pullLocked(s)
		}
	case msgMigrate:
		n.recvMigrateLocked(from, m)
	case msgMigrateAck:
		s, ok := n.segs[m.path]
		if !ok || !s.isHome || s.migrating != from || m.epoch != s.epoch+1 {
			return
		}
		// Target promoted: demote. Content here is current at gen, so no
		// resync is needed — this machine becomes an up-to-date replica.
		n.unpinFramesLocked(s)
		s.isHome = false
		s.home = from
		s.epoch = m.epoch
		s.migrating = ""
		s.highest = s.gen
		s.needFull = false
		s.peers = nil
		s.writeCnt = nil
		n.emit(obsv.Event{Name: "migrate_done", Mod: s.path, Val: s.epoch})
	case msgLeaseRenew:
		s, ok := n.segs[m.path]
		if !ok || !s.isHome {
			return
		}
		n.ctrLeaseRenews.Inc()
		if m.epoch == s.epoch && m.gen >= s.gen {
			g := n.stamp(&msg{typ: msgLeaseGrant, path: s.path, base: s.base,
				epoch: s.epoch, gen: s.gen, tv: s.tv, lease: n.cfg.LeaseTicks})
			n.ctrLeaseGrants.Inc()
			n.nd.Send(from, g.encode())
		} else if m.epoch < s.epoch {
			n.sendFullSyncLocked(s, from)
		} else {
			n.sendSyncLocked(s, from, m.gen)
		}
	case msgLeaseGrant:
		s, ok := n.segs[m.path]
		if !ok || s.isHome || m.epoch != s.epoch {
			return
		}
		n.leaseLocked(s, m)
	case msgWriteFwd:
		n.recvWriteFwdLocked(from, m)
	case msgTxnFwd:
		n.recvTxnFwdLocked(from, m)
	case msgTxnResult:
		n.recvTxnResultLocked(from, m)
	}
}

// leaseLocked extends the replica's read lease from a home-originated
// message at the current epoch.
func (n *Node) leaseLocked(s *seg, m *msg) {
	if s.isHome || m.lease == 0 {
		return
	}
	if until := n.fleet.Now() + m.lease; until > s.leaseUntil {
		s.leaseUntil = until
	}
}

// adoptAuthorityLocked records a new (higher-epoch) home for the segment.
// The local content — possibly from an abandoned lineage — is kept for
// reads but trusted for nothing else until a full resync arrives; armPull
// starts that resync immediately.
func (n *Node) adoptAuthorityLocked(s *seg, m *msg, from string, armPull bool) {
	if s.isHome {
		n.unpinFramesLocked(s)
		s.isHome = false
		s.migrating = ""
		s.peers = nil
		s.writeCnt = nil
	}
	s.epoch = m.epoch
	s.home = from
	if m.home != "" && m.typ == msgAnnounce {
		s.home = m.home
	}
	s.highest = m.gen
	s.needFull = true
	s.leaseUntil = 0
	s.pullArmed = false
	n.noteStale(s)
	if armPull {
		n.pullLocked(s)
	}
}

// recvContentLocked is the replica-side acceptance logic for updates and
// syncs, ordered by (epoch, gen).
func (n *Node) recvContentLocked(from string, m *msg, s *seg) {
	if s.isHome {
		if m.epoch > s.epoch {
			n.adoptAuthorityLocked(s, m, from, true)
		}
		return // own or stale-epoch traffic: a home takes content from no one
	}
	if m.epoch < s.epoch {
		n.ctrUpdatesDup.Inc()
		return
	}
	if m.epoch > s.epoch {
		if m.typ == msgSync && m.flag&flagFull != 0 {
			// A full resync from the new authority: adopt and apply in one
			// step — every page is replaced, nothing of this lineage
			// survives.
			n.adoptAuthorityLocked(s, m, from, false)
			n.applyLocked(s, m)
			n.ctrUpdatesApplied.Inc()
			s.needFull = false
			s.highest = m.gen
		} else {
			n.adoptAuthorityLocked(s, m, from, true)
		}
		n.ackLocked(s)
		return
	}
	// Same epoch: the classic generation protocol.
	switch m.typ {
	case msgUpdate:
		switch {
		case m.gen <= s.gen: // duplicate: already applied; re-ack idempotently
			n.ctrUpdatesDup.Inc()
		case m.gen == s.gen+1 && !s.needFull: // in order: apply
			n.applyLocked(s, m)
			n.ctrUpdatesApplied.Inc()
		default: // gap (or untrusted lineage): remember we're stale; the ack tells the home
			if m.gen > s.highest {
				s.highest = m.gen
			}
			n.noteStale(s)
		}
	case msgSync:
		full := m.flag&flagFull != 0
		switch {
		case full && (s.needFull || m.gen >= s.gen):
			// A full resync replaces everything, even when the abandoned
			// lineage's generation counter ran ahead of the authority's.
			// Within one epoch gens are totally ordered by the single home,
			// so highest only ever moves up: a delayed resync must not make
			// the replica forget a newer announced generation.
			n.applyLocked(s, m)
			n.ctrUpdatesApplied.Inc()
			s.gen = m.gen
			if m.gen > s.highest {
				s.highest = m.gen
			}
			s.needFull = false
			s.pullArmed = false
			n.noteStale(s)
			if s.highest > s.gen {
				n.pullLocked(s)
			}
		case !full && !s.needFull && m.gen > s.gen:
			n.applyLocked(s, m)
			n.ctrUpdatesApplied.Inc()
			s.pullArmed = false
		default:
			n.ctrUpdatesDup.Inc()
		}
	}
	n.leaseLocked(s, m)
	n.ackLocked(s)
}

// recvMigrateLocked handles a home-migration offer: promote, ack, and
// announce the new reign.
func (n *Node) recvMigrateLocked(from string, m *msg) {
	s := n.adoptLocked(from, m)
	if s == nil {
		return
	}
	if m.epoch <= s.epoch {
		if s.isHome && m.epoch == s.epoch {
			// Duplicate offer for the epoch this machine already rules:
			// the ack was lost; re-ack idempotently.
			a := n.stamp(&msg{typ: msgMigrateAck, path: s.path, base: s.base, epoch: s.epoch})
			n.nd.Send(from, a.encode())
		}
		return
	}
	// Promote: apply the full snapshot, take the home role at the offered
	// epoch, and tell everyone.
	n.applyLocked(s, m)
	s.isHome = true
	s.home = n.name
	s.epoch = m.epoch
	s.gen = m.gen
	s.tv = m.tv
	s.highest = m.gen
	s.size = m.size
	s.needFull = false
	s.pullArmed = false
	s.migrating = ""
	s.leaseUntil = 0
	s.growPageGen()
	for _, p := range m.pages {
		if int(p.idx) < len(s.pageGen) {
			s.pageGen[p.idx] = p.gen
		}
	}
	s.peers = map[string]*peerState{}
	s.writeCnt = map[string]uint64{}
	s.frames = nil
	for i := range s.pageVer {
		s.pageVer[i] = 0
	}
	n.pinFramesLocked(s)
	n.ctrMigrations.Inc()
	n.emit(obsv.Event{Name: "migrate_promote", Mod: s.path, Val: s.epoch})
	a := n.stamp(&msg{typ: msgMigrateAck, path: s.path, base: s.base, epoch: s.epoch})
	n.nd.Send(from, a.encode())
	n.announceLocked(s)
}

// recvWriteFwdLocked applies a forwarded write at the home and feeds the
// migration heuristic. A frozen (migrating) or deposed home drops the
// write — forwarded writes are datagrams, with datagram guarantees; the
// writer's own retry or the application's idempotence covers the loss.
func (n *Node) recvWriteFwdLocked(from string, m *msg) {
	s, ok := n.segs[m.path]
	if !ok || !s.isHome || s.migrating != "" {
		return
	}
	var ranges [][2]uint32
	for _, p := range m.pages {
		for _, r := range p.deltas {
			off := p.idx*PageSize + r.off
			n.sys.FS.WriteAt(s.path, off, r.data, 0)
			ranges = append(ranges, [2]uint32{off, uint32(len(r.data))})
		}
	}
	if len(ranges) == 0 {
		return
	}
	s.writeCnt[m.origin]++
	n.dirtyRangesLocked(s, ranges)
	n.maybeAutoMigrateLocked(s, m.origin)
}

// adoptLocked resolves the local seg for a home-originated message,
// creating both the protocol state and — for a genuinely new machine —
// the backing file at the home's exact inode slot. A segment whose local
// address disagrees with the home's is refused and counted.
func (n *Node) adoptLocked(from string, m *msg) *seg {
	if s, ok := n.segs[m.path]; ok {
		if s.base == 0 {
			s.base = m.base
		}
		if s.base != m.base {
			n.ctrAddrClash.Inc()
			return nil
		}
		return s
	}
	st, err := n.sys.FS.StatPath(m.path)
	switch {
	case err == nil:
		if st.Addr != m.base {
			n.ctrAddrClash.Inc()
			return nil
		}
	default:
		ino, err := shmfs.InodeAt(m.base)
		if err != nil {
			n.ctrAddrClash.Inc()
			return nil
		}
		if err := n.sys.FS.MkdirAll(parentDir(m.path), shmfs.DefaultDirMode, 0); err != nil {
			return nil
		}
		if _, err := n.sys.FS.CreateAt(m.path, ino, shmfs.DefaultFileMode|shmfs.ModeOtherWrite, 0); err != nil {
			n.ctrAddrClash.Inc() // slot taken by something else locally
			return nil
		}
	}
	s := &seg{path: m.path, base: m.base, home: from}
	n.segs[m.path] = s
	return s
}

// applyLocked writes a message's pages into the local replica and adopts
// its generation, version clock and size. Page writes go through the file
// interface, so every local mapping of the segment sees them instantly.
// Delta pages patch only the carried byte ranges; full pages replace.
func (n *Node) applyLocked(s *seg, m *msg) {
	for _, p := range m.pages {
		if p.full != nil {
			n.sys.FS.WriteAt(s.path, p.idx*PageSize, p.full, 0)
			continue
		}
		for _, r := range p.deltas {
			n.sys.FS.WriteAt(s.path, p.idx*PageSize+r.off, r.data, 0)
		}
	}
	s.gen = m.gen
	s.size = m.size
	s.tv = m.tv
	if m.gen > s.highest {
		s.highest = m.gen
	}
	if m.stick > 0 {
		if s.lagHist == nil {
			s.lagHist = n.fleet.Reg.Histogram("netshm.lag_ticks:" + s.path)
		}
		now := n.fleet.Now()
		lag := uint64(0)
		if now > m.stick {
			lag = now - m.stick
		}
		s.lagHist.Observe(lag)
	}
	n.noteStale(s)
	n.emit(obsv.Event{Name: "apply", Mod: s.path, Addr: s.base, Val: m.gen})
	n.emit(obsv.Event{Name: "repl", Phase: obsv.PhaseFlowEnd, Mod: s.path,
		Val: m.gen, Flow: obsv.FlowID(s.path, m.gen)})
}

// ackLocked reports the replica's applied generation to the home.
func (n *Node) ackLocked(s *seg) {
	m := n.stamp(&msg{typ: msgAck, path: s.path, base: s.base, epoch: s.epoch, gen: s.gen})
	n.nd.Send(s.home, m.encode())
}

func parentDir(p string) string {
	p = shmfs.Clean(p)
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}
