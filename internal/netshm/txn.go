package netshm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"hemlock/internal/kern"
	"hemlock/internal/wire"
)

// Transactional writes: a TL2-style optimistic protocol over the
// per-segment version clock (seg.tv, carried on every update so replicas
// track it).
//
// A Txn accumulates a read set (the (epoch, gen, tv) version triple of
// every segment read) and a write set (byte ranges). Commit validates
// that every read segment is still at its recorded version, then applies
// the whole write set — one generation per segment, carrying every range
// that segment received, which is what makes the commit atomic: a replica
// applies that generation in one Step or not at all, so no machine ever
// observes half of a multi-word commit.
//
// Commits whose write set is homed locally validate and apply under the
// node lock. Commits whose write set is homed on one remote machine are
// forwarded (msgTxnFwd) with bounded virtual-clock retries and
// deduplicated by (origin, txid) at the home; the origin polls TxnStatus
// until the result datagram lands. The origin's Step visits only the
// commits still unresolved; a resolved outcome moves to a ring of the
// last txnDoneMax, after which TxnStatus no longer knows the txid. Write
// sets spanning multiple homes are refused — Hemlock segments are
// single-home, and the fleet's atomicity guarantee is per-home.
var (
	ErrTxnConflict  = errors.New("netshm: transaction conflict (read set changed)")
	ErrTxnCrossHome = errors.New("netshm: transaction write set spans multiple homes")
)

// TxnState is the origin's view of a commit's fate.
type TxnState int

const (
	TxnPending   TxnState = iota // forwarded, no result yet
	TxnCommitted                 // applied at the home
	TxnAborted                   // validation failed (or the home refused)
	TxnLost                      // retries exhausted without a result
	TxnUnknown                   // no such transaction id, or its outcome left the ring
)

func (s TxnState) String() string {
	switch s {
	case TxnPending:
		return "pending"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	case TxnLost:
		return "lost"
	}
	return "unknown"
}

// txnRead is one read-set entry: the version triple observed.
type txnRead struct {
	epoch, gen, tv uint64
}

// txnWrite is one write-set entry.
type txnWrite struct {
	path string
	off  uint32
	data []byte
}

// Txn is an open transaction on one machine.
type Txn struct {
	n      *Node
	reads  map[string]txnRead
	writes []txnWrite
	done   bool
}

// Begin opens a transaction.
func (n *Node) Begin() *Txn {
	return &Txn{n: n, reads: map[string]txnRead{}}
}

// Read returns length bytes of the segment at off, records the segment's
// version triple in the read set (first touch only), and overlays any
// bytes this transaction has already written — reads observe the
// transaction's own pending writes.
func (t *Txn) Read(path string, off, length uint32) ([]byte, error) {
	n := t.n
	n.mu.Lock()
	s, ok := n.segs[path]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSeg, path)
	}
	if _, seen := t.reads[path]; !seen {
		t.reads[path] = txnRead{epoch: s.epoch, gen: s.gen, tv: s.tv}
	}
	n.mu.Unlock()
	buf := make([]byte, length)
	if _, err := n.sys.FS.ReadAt(path, off, buf, 0); err != nil {
		return nil, err
	}
	for _, w := range t.writes {
		if w.path != path {
			continue
		}
		lo, hi := w.off, w.off+uint32(len(w.data))
		if hi <= off || lo >= off+length {
			continue
		}
		from := lo
		if from < off {
			from = off
		}
		to := hi
		if to > off+length {
			to = off + length
		}
		copy(buf[from-off:to-off], w.data[from-lo:to-lo])
	}
	return buf, nil
}

// Write adds a byte range to the write set. Nothing is visible to anyone
// — including other transactions on this machine — until Commit.
func (t *Txn) Write(path string, off uint32, data []byte) {
	t.writes = append(t.writes, txnWrite{path: path, off: off, data: append([]byte(nil), data...)})
}

// WriteWord stages a 32-bit big-endian word — the guest syscall's unit.
func (t *Txn) WriteWord(path string, off uint32, val uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], val)
	t.Write(path, off, b[:])
}

// Commit validates and applies the transaction.
//
// Return values: (0, nil) — committed locally; (txid, nil) with txid > 0
// — forwarded to the remote home, poll TxnStatus(txid); (0,
// ErrTxnConflict) — aborted, read set changed; (0, other) — refused
// (unknown segment, migrating home, cross-home write set).
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, errors.New("netshm: transaction already committed")
	}
	t.done = true
	n := t.n
	n.mu.Lock()
	defer n.mu.Unlock()

	if len(t.writes) == 0 {
		// Read-only: validate and be done.
		if !n.validateReadsLocked(t.reads) {
			return 0, ErrTxnConflict
		}
		return 0, nil
	}

	home, local, err := n.txnHomeLocked(t.writes)
	if err != nil {
		return 0, err
	}
	if local {
		if !n.validateReadsLocked(t.reads) {
			n.ctrTxnAborts.Inc()
			return 0, ErrTxnConflict
		}
		n.applyTxnLocked(t.writes, n.name)
		n.ctrTxnCommits.Inc()
		return 0, nil
	}

	// Forward the whole transaction to the one remote home.
	n.txnNext++
	txid := n.txnNext
	payload := encodeTxnPayload(t.reads, t.writes)
	f := &fwdTxn{id: txid, home: home, path: t.writes[0].path, payload: payload,
		attempts: 1, nextTry: n.fleet.Now() + n.cfg.RetryTicks}
	n.txnPending = append(n.txnPending, f) // txids only grow: the list stays sorted
	n.sendTxnFwdLocked(f)
	return txid, nil
}

// LocalOnly reports whether Commit would run entirely on this machine —
// the guest syscall path refuses remote commits up front (Eagain) rather
// than leaving the guest with a dangling poll.
func (t *Txn) LocalOnly() bool {
	n := t.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(t.writes) == 0 {
		return true
	}
	_, local, err := n.txnHomeLocked(t.writes)
	return err == nil && local
}

// txnHomeLocked resolves the write set's single home. local means every
// written segment is writable on this machine right now.
func (n *Node) txnHomeLocked(writes []txnWrite) (home string, local bool, err error) {
	for _, w := range writes {
		s, ok := n.segs[w.path]
		if !ok {
			return "", false, fmt.Errorf("%w: %s", ErrUnknownSeg, w.path)
		}
		h := s.home
		if s.isHome {
			if s.migrating != "" {
				return "", false, fmt.Errorf("%w: %s", ErrMigrating, w.path)
			}
			h = n.name
		}
		if home == "" {
			home = h
		} else if home != h {
			return "", false, fmt.Errorf("%w: %s vs %s", ErrTxnCrossHome, home, h)
		}
	}
	return home, home == n.name, nil
}

// validateReadsLocked is the TL2 validation step: every read segment must
// still be at its recorded (epoch, gen, tv).
func (n *Node) validateReadsLocked(reads map[string]txnRead) bool {
	for path, r := range reads {
		s, ok := n.segs[path]
		if !ok || s.epoch != r.epoch || s.gen != r.gen || s.tv != r.tv {
			return false
		}
	}
	return true
}

// applyTxnLocked applies a validated write set at the home: writes grouped
// per segment, one version-clock bump and ONE generation per segment
// carrying every range — the atomicity mechanism.
func (n *Node) applyTxnLocked(writes []txnWrite, origin string) {
	byPath := map[string][][2]uint32{}
	var order []string
	for _, w := range writes {
		n.sys.FS.WriteAt(w.path, w.off, w.data, 0)
		if _, ok := byPath[w.path]; !ok {
			order = append(order, w.path)
		}
		byPath[w.path] = append(byPath[w.path], [2]uint32{w.off, uint32(len(w.data))})
	}
	for _, path := range order {
		s := n.segs[path]
		s.tv++
		s.writeCnt[origin]++
		n.dirtyRangesLocked(s, byPath[path])
		n.maybeAutoMigrateLocked(s, origin)
	}
}

// TxnStatus reports the fate of a forwarded commit: pending until it
// resolves, then its outcome for as long as the outcome is among the
// origin's last txnDoneMax resolved ones, and TxnUnknown after that (and
// for a txid this machine never issued).
func (n *Node) TxnStatus(txid uint64) TxnState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pendingTxnLocked(txid) >= 0 {
		return TxnPending
	}
	for _, o := range n.txnDone {
		if o.id == txid {
			return o.state
		}
	}
	return TxnUnknown
}

// txnDoneMax bounds the origin's memory of resolved forwarded commits.
const txnDoneMax = 1024

// txnOutcome is one resolved forwarded commit in the origin's ring.
type txnOutcome struct {
	id    uint64
	state TxnState
}

// fwdTxn is the origin-side state of one unresolved forwarded commit.
type fwdTxn struct {
	id       uint64
	home     string
	path     string // routing/debug path (first written segment)
	payload  []byte
	attempts int
	nextTry  uint64
}

func (n *Node) sendTxnFwdLocked(f *fwdTxn) {
	m := n.stamp(&msg{typ: msgTxnFwd, path: f.path, txid: f.id, payload: f.payload})
	n.sendLocked(f.home, m)
}

// pendingTxnLocked returns the index of the unresolved commit txid in
// txnPending, or -1.
func (n *Node) pendingTxnLocked(txid uint64) int {
	i := sort.Search(len(n.txnPending), func(i int) bool { return n.txnPending[i].id >= txid })
	if i < len(n.txnPending) && n.txnPending[i].id == txid {
		return i
	}
	return -1
}

// resolveTxnLocked records a forwarded commit's outcome in the ring,
// overwriting the oldest once the ring is full.
func (n *Node) resolveTxnLocked(id uint64, state TxnState) {
	o := txnOutcome{id: id, state: state}
	if len(n.txnDone) < txnDoneMax {
		n.txnDone = append(n.txnDone, o)
		return
	}
	n.txnDone[n.txnDoneAt] = o
	n.txnDoneAt = (n.txnDoneAt + 1) % txnDoneMax
}

// stepTxnLocked retries unresolved forwarded commits (bounded, backed
// off), in txid order for determinism; one out of attempts is lost.
func (n *Node) stepTxnLocked(now uint64) {
	kept := n.txnPending[:0]
	for _, f := range n.txnPending {
		switch {
		case now < f.nextTry:
		case f.attempts >= n.cfg.RetryMax:
			n.resolveTxnLocked(f.id, TxnLost)
			continue
		default:
			n.sendTxnFwdLocked(f)
			f.attempts++
			f.nextTry = now + min(n.cfg.RetryTicks<<uint(f.attempts), backoffCap)
		}
		kept = append(kept, f)
	}
	clear(n.txnPending[len(kept):])
	n.txnPending = kept
}

// txnKey identifies a forwarded commit at the home: ids are per-origin.
type txnKey struct {
	origin string
	id     uint64
}

const txnSeenMax = 1024 // bounded dedup memory at the home

// recvTxnFwdLocked is the home side of a forwarded commit: dedup, decode,
// validate against the home's own versions, apply atomically, reply.
func (n *Node) recvTxnFwdLocked(from string, m *msg) {
	key := txnKey{origin: from, id: m.txid}
	if n.txnSeen == nil {
		n.txnSeen = map[txnKey]byte{}
	}
	if flag, ok := n.txnSeen[key]; ok {
		// Duplicate (our result datagram was lost): re-reply, do not re-run.
		n.replyTxnLocked(from, m.txid, flag)
		return
	}
	reads, writes, err := decodeTxnPayload(m.payload)
	if err != nil {
		return // malformed; drop like any other runt
	}
	flag := byte(0)
	ok := true
	for _, w := range writes {
		s, found := n.segs[w.path]
		if !found || !s.isHome || s.migrating != "" {
			ok = false
			break
		}
	}
	if ok && !n.validateReadsLocked(reads) {
		ok = false
	}
	if ok {
		n.applyTxnLocked(writes, from)
		n.ctrTxnCommits.Inc()
		flag = flagCommitted
	} else {
		n.ctrTxnAborts.Inc()
	}
	n.txnSeen[key] = flag
	n.txnOrder = append(n.txnOrder, key)
	if len(n.txnOrder) > txnSeenMax {
		delete(n.txnSeen, n.txnOrder[0])
		n.txnOrder = n.txnOrder[1:]
	}
	n.replyTxnLocked(from, m.txid, flag)
}

func (n *Node) replyTxnLocked(to string, txid uint64, flag byte) {
	r := n.stamp(&msg{typ: msgTxnResult, flag: flag, txid: txid})
	n.sendLocked(to, r)
}

// recvTxnResultLocked records the fate of a forwarded commit at its origin.
func (n *Node) recvTxnResultLocked(from string, m *msg) {
	i := n.pendingTxnLocked(m.txid)
	if i < 0 {
		return // a duplicate result, or one for a commit already lost
	}
	state := TxnAborted
	if m.flag&flagCommitted != 0 {
		state = TxnCommitted
	}
	n.txnPending = slices.Delete(n.txnPending, i, i+1)
	n.resolveTxnLocked(m.txid, state)
}

// ---- payload sub-encoding ----------------------------------------------------

// encodeTxnPayload packs the read and write sets into the msgTxnFwd
// payload, read entries sorted by path for determinism. The payload uses
// the internal/wire primitives:
//
//	reads:  u16 count + (path string | epoch u64 | gen u64 | tv u64)* |
//	writes: u16 count + (path string | off u32 | data blob)*
//
// A set past the u16 count limit leaves the payload empty, which the home
// rejects as malformed.
func encodeTxnPayload(reads map[string]txnRead, writes []txnWrite) []byte {
	paths := make([]string, 0, len(reads))
	for p := range reads {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	e := wire.NewEncoder(nil)
	e.Count16(len(paths))
	for _, p := range paths {
		r := reads[p]
		e.Str(p)
		e.U64(r.epoch)
		e.U64(r.gen)
		e.U64(r.tv)
	}
	e.Count16(len(writes))
	for _, w := range writes {
		e.Str(w.path)
		e.U32(w.off)
		e.Blob(w.data)
	}
	b, _ := e.Bytes()
	return b
}

func decodeTxnPayload(b []byte) (map[string]txnRead, []txnWrite, error) {
	d := wire.NewDecoder(b)
	reads := map[string]txnRead{}
	for n := d.Count16(26); n > 0; n-- {
		p := d.Str()
		reads[p] = txnRead{epoch: d.U64(), gen: d.U64(), tv: d.U64()}
	}
	var writes []txnWrite
	if n := d.Count16(10); n > 0 {
		writes = make([]txnWrite, n)
		for i := range writes {
			writes[i] = txnWrite{path: d.Str(), off: d.U32(), data: d.Blob()}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("netshm: txn payload: %w", err)
	}
	return reads, writes, nil
}

// ---- guest syscall surface ---------------------------------------------------

// ErrTxnRemote is returned to the guest syscall layer when a staged
// transaction's write set is not homed on this machine: the guest gets
// Eagain and must retry (or route the write through WriteAny).
var ErrTxnRemote = errors.New("netshm: transaction home is remote")

// segByAddrLocked maps a virtual address into the segment containing it.
func (n *Node) segByAddrLocked(addr uint32) *seg {
	for _, s := range n.segList {
		if s.base != 0 && addr >= s.base && addr < s.base+s.size {
			return s
		}
	}
	return nil
}

// TxnStage stages a 32-bit word store at a virtual address for the guest
// process pid — the SysTxnStage backend. The address must fall inside a
// registered segment.
func (n *Node) TxnStage(pid int, addr uint32, val uint32) error {
	n.mu.Lock()
	s := n.segByAddrLocked(addr)
	if s == nil {
		n.mu.Unlock()
		return fmt.Errorf("%w: no segment at %#x", ErrUnknownSeg, addr)
	}
	path, off := s.path, addr-s.base
	if n.gtxns == nil {
		n.gtxns = map[int]*Txn{}
	}
	t := n.gtxns[pid]
	if t == nil {
		t = &Txn{n: n, reads: map[string]txnRead{}}
		n.gtxns[pid] = t
	}
	if _, seen := t.reads[path]; !seen {
		t.reads[path] = txnRead{epoch: s.epoch, gen: s.gen, tv: s.tv}
	}
	n.mu.Unlock()
	t.WriteWord(path, off, val)
	return nil
}

// TxnCommit commits the guest's staged transaction — the SysTxnCommit
// backend. ok=false with a nil error means a clean conflict abort (the
// guest should re-run); ErrTxnRemote means the home is elsewhere.
func (n *Node) TxnCommit(pid int) (bool, error) {
	n.mu.Lock()
	t := n.gtxns[pid]
	delete(n.gtxns, pid)
	n.mu.Unlock()
	if t == nil || len(t.writes) == 0 {
		return true, nil
	}
	if !t.LocalOnly() {
		return false, ErrTxnRemote
	}
	_, err := t.Commit()
	if errors.Is(err, ErrTxnConflict) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// TxnAbort drops the guest's staged transaction without applying it.
func (n *Node) TxnAbort(pid int) {
	n.mu.Lock()
	delete(n.gtxns, pid)
	n.mu.Unlock()
}

// kernTxn adapts Node to the kernel's ShmTxn hook, translating netshm
// errors into the kernel's errno vocabulary (remote home -> Eagain).
type kernTxn struct{ n *Node }

func (h kernTxn) TxnStage(pid int, addr, val uint32) error { return h.n.TxnStage(pid, addr, val) }

func (h kernTxn) TxnCommit(pid int) (bool, error) {
	ok, err := h.n.TxnCommit(pid)
	if errors.Is(err, ErrTxnRemote) {
		return false, fmt.Errorf("%w: %v", kern.ErrAgain, err)
	}
	return ok, err
}

func (h kernTxn) TxnAbort(pid int) { h.n.TxnAbort(pid) }

// InstallTxn wires this node into its machine's kernel as the backend of
// the txn_stage/txn_commit system calls, so guest programs can commit
// multi-word segment writes atomically fleet-wide. A no-op on kernel-less
// (NewSystemLite) machines.
func (n *Node) InstallTxn() {
	if k := n.sys.K; k != nil {
		k.SetShmTxn(kernTxn{n})
	}
}
