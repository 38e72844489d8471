// Package mem provides the simulated paged physical memory that underlies
// every Hemlock address space and every shared-file-system file.
//
// Physical memory is a pool of fixed-size frames. Frames are reference
// counted so that a single frame can back a shared-file-system file, be
// mapped into any number of simulated address spaces, and be released only
// when the last user drops it. The paper's whole point is that mapped
// segments and file contents are the same bytes; sharing frames is how the
// simulation keeps that true.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"hemlock/internal/obsv"
)

// PageSize is the size in bytes of a physical frame and of a virtual page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageCeil rounds addr up to the next page boundary.
func PageCeil(addr uint32) uint32 { return (addr + PageSize - 1) &^ (PageSize - 1) }

// ErrOutOfMemory is returned when the physical memory pool is exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// Frame is one page of simulated physical memory. The zero value is not
// usable; frames are obtained from a Physical pool.
//
// The reference count and the store-version counter are atomics so that
// the hot paths — Retain/Release on fork and map operations, version
// checks on every interpreted instruction — never touch the pool mutex.
type Frame struct {
	Data [PageSize]byte

	pool *Physical
	pfn  int
	refs atomic.Int64
	ver  atomic.Uint64

	// Dirty-byte watermark, maintained only while tracked is set (netshm
	// tracks the frames of segments it homes). dirty packs the byte range
	// touched since the watermark was last taken: lo<<32 | end (end
	// exclusive); 0 means clean. Writers merge their range with a CAS
	// loop, so the watermark never under-reports — a torn or lost update
	// is impossible, only a wider-than-necessary range.
	tracked atomic.Bool
	// decoded is set once a translated block has been decoded from the
	// frame, and never cleared. A private store bumps the version only
	// when it is set (StorePrivateWordBE). It sits in tracked's padding.
	decoded atomic.Bool
	dirty   atomic.Uint64
}

// PFN returns the frame's physical frame number within its pool.
func (f *Frame) PFN() int { return f.pfn }

// Physical is a frame allocator with a live-frame limit. It keeps no free
// list: Alloc makes each frame a new Go object, and a frame whose last
// reference goes is left to the garbage collector. It is safe for
// concurrent use.
type Physical struct {
	mu       sync.Mutex
	limit    int // maximum number of live frames; 0 means unlimited
	live     int
	nextPFN  int
	allocCnt uint64
	freeCnt  uint64
}

// NewPhysical returns a pool that will hand out at most limitFrames frames
// at any one time. limitFrames <= 0 means unlimited.
func NewPhysical(limitFrames int) *Physical {
	return &Physical{limit: limitFrames}
}

// Alloc returns a zeroed frame with reference count 1.
func (p *Physical) Alloc() (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit > 0 && p.live >= p.limit {
		return nil, fmt.Errorf("%w: limit %d frames", ErrOutOfMemory, p.limit)
	}
	f := &Frame{pool: p, pfn: p.nextPFN}
	f.refs.Store(1)
	p.nextPFN++
	p.live++
	p.allocCnt++
	return f, nil
}

// AllocN allocates n zeroed frames under a single pool lock. It either
// delivers all n or fails without allocating anything, so the fork and map
// paths pay one mutex round trip instead of n.
func (p *Physical) AllocN(n int) ([]*Frame, error) {
	if n <= 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit > 0 && p.live+n > p.limit {
		return nil, fmt.Errorf("%w: limit %d frames", ErrOutOfMemory, p.limit)
	}
	frames := make([]*Frame, n)
	for i := range frames {
		f := &Frame{pool: p, pfn: p.nextPFN}
		f.refs.Store(1)
		p.nextPFN++
		frames[i] = f
	}
	p.live += n
	p.allocCnt += uint64(n)
	return frames, nil
}

// Retain increments the frame's reference count. It is used when a frame is
// mapped into an additional address space or retained by a file.
func (f *Frame) Retain() {
	if f.refs.Add(1) <= 1 {
		panic("mem: Retain on released frame")
	}
}

// Release decrements the reference count, returning the frame to the pool
// when it reaches zero.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n < 0 {
		panic("mem: Release on released frame")
	}
	if n == 0 {
		f.pool.mu.Lock()
		f.pool.live--
		f.pool.freeCnt++
		f.pool.mu.Unlock()
	}
}

// Refs reports the current reference count (for tests and fsck).
func (f *Frame) Refs() int { return int(f.refs.Load()) }

// NoteStoreRange records a mutation of bytes [off, off+n) of the frame by
// bumping the store-version counter. Every writer — the VM's store fast
// path, the address-space write API, the shared file system — must call
// it (or go through a Store* method, which does) BEFORE the bytes change.
// The VM's block-translation engine validates against Version on every
// block entry (including entries through chain pointers). That one counter
// is how a store into live text — ldl patching a trampoline or jump-table
// slot, self-modifying code, a sibling process writing through a shared
// frame — invalidates stale translated blocks on the very next fetch.
//
// The range also feeds the dirty-byte watermark, so that a tracked frame
// records exactly which bytes changed. The replication layer (netshm)
// turns the watermark into byte-range deltas instead of shipping whole
// pages.
func (f *Frame) NoteStoreRange(off, n uint32) {
	f.ver.Add(1)
	f.noteRange(off, n)
}

// noteRange merges [off, off+n) into the dirty watermark of a tracked
// frame. The untracked fast path is one atomic bool load.
func (f *Frame) noteRange(off, n uint32) {
	if n == 0 || !f.tracked.Load() {
		return
	}
	end := off + n
	if end > PageSize {
		end = PageSize
	}
	for {
		old := f.dirty.Load()
		lo, e := uint32(old>>32), uint32(old)
		if old == 0 {
			lo, e = off, end
		} else {
			if off < lo {
				lo = off
			}
			if end > e {
				e = end
			}
		}
		nv := uint64(lo)<<32 | uint64(e)
		if old == nv || f.dirty.CompareAndSwap(old, nv) {
			return
		}
	}
}

// SetTracked switches dirty-byte watermark maintenance on or off.
// Enabling tracking starts with a clean watermark: bytes written before
// this call are the caller's business (netshm snapshots frame versions at
// Serve time and falls back to whole-page shipping when the version moved
// without a watermark).
func (f *Frame) SetTracked(on bool) {
	f.tracked.Store(on)
	if !on {
		f.dirty.Store(0)
	}
}

// TakeDirtyRange returns and resets the dirty watermark: the smallest
// [lo, end) covering every byte written through a range-aware writer since
// the last take. ok is false when nothing was recorded (clean, or the
// frame is not tracked).
func (f *Frame) TakeDirtyRange() (lo, end uint32, ok bool) {
	v := f.dirty.Swap(0)
	if v == 0 {
		return 0, 0, false
	}
	return uint32(v >> 32), uint32(v), true
}

// Version returns the frame's store-version counter.
func (f *Frame) Version() uint64 { return f.ver.Load() }

// RestoreVersion sets the store-version counter. Only the owner of a frame
// no CPU has cached translations against may call it: shmfs seeds each
// newly allocated file frame with it, so that a file unlinked and
// re-created at the same inode and size does not repeat a fingerprint
// (shmfs.ContentVersion) of the file it replaced.
func (f *Frame) RestoreVersion(v uint64) { f.ver.Store(v) }

// Stats describes pool usage.
type Stats struct {
	Live   int    // frames currently referenced
	Limit  int    // configured limit (0 = unlimited)
	Allocs uint64 // total Alloc calls
	Frees  uint64 // total frames fully released
}

// Stats returns a snapshot of pool usage.
func (p *Physical) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Live: p.live, Limit: p.limit, Allocs: p.allocCnt, Frees: p.freeCnt}
}

// RegisterObsv publishes the pool's usage as gauges in the registry,
// sampled live at snapshot time so the snapshot and Stats() always agree:
// mem.frames_live, mem.frames_limit, mem.frame_allocs, mem.frame_frees.
func (p *Physical) RegisterObsv(r *obsv.Registry) {
	r.GaugeFunc("mem.frames_live", func() int64 { return int64(p.Stats().Live) })
	r.GaugeFunc("mem.frames_limit", func() int64 { return int64(p.Stats().Limit) })
	r.GaugeFunc("mem.frame_allocs", func() int64 { return int64(p.Stats().Allocs) })
	r.GaugeFunc("mem.frame_frees", func() int64 { return int64(p.Stats().Frees) })
}

// Copy returns a new frame whose contents are a copy of f (reference count
// 1). Used by fork for private pages.
func (f *Frame) Copy() (*Frame, error) {
	g, err := f.pool.Alloc()
	if err != nil {
		return nil, err
	}
	g.Data = f.Data
	return g, nil
}

// ---- word access ------------------------------------------------------------
//
// With true SMP, guest CPUs on different host goroutines load and store the
// same frames concurrently. Word-granular accesses to a frame that may be
// shared therefore go through host-atomic 32-bit operations on the frame
// word, converted between guest (big-endian) and host byte order here. On
// little-endian hosts the conversion is the same bswap binary.BigEndian
// performed. An aligned 32-bit atomic load is a plain MOV on amd64, so
// loads cost what they did before; an atomic store is an XCHG there (STLR
// on arm64), a full barrier that costs more than a plain store, and so is
// the version bump in front of it. In return concurrent CPUs get tear-free
// words and the race detector gets a sound happens-before model of guest
// memory.
//
// The VM's stores to a Private frame (one holder, untracked) take
// StorePrivateWordBE and StorePrivateByte instead: plain host stores that
// bump the version only once a block was decoded from the frame. The VM
// chooses the tier when it fills a D-TLB slot; docs/SMP.md states the
// rule that keeps that sound.
//
// Byte and bulk accesses of shared frames stay plain: guests that share
// sub-word data must synchronise around it, exactly as the paper's
// processes must.

// hostIsBig reports the host byte order, decided once at init.
var hostIsBig = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 0
}()

// beWord converts between guest big-endian and host byte order (the
// conversion is its own inverse).
func beWord(v uint32) uint32 {
	if hostIsBig {
		return v
	}
	return bits.ReverseBytes32(v)
}

// wordPtr returns the aligned 32-bit host word covering frame offset off.
// Frame.Data opens a heap-allocated struct, so it is at least 8-byte
// aligned and every 4-aligned offset is atomically accessible.
func (f *Frame) wordPtr(off uint32) *uint32 {
	return (*uint32)(unsafe.Pointer(&f.Data[off&(PageSize-1)&^3]))
}

// LoadWordBE atomically loads the guest word at the aligned frame offset.
func (f *Frame) LoadWordBE(off uint32) uint32 {
	return beWord(atomic.LoadUint32(f.wordPtr(off)))
}

// StoreWordBE atomically stores the guest word at the aligned frame offset,
// bumping the store-version counter first (writers bump BEFORE the bytes
// change; see NoteStoreRange).
func (f *Frame) StoreWordBE(off, v uint32) {
	f.ver.Add(1)
	f.noteRange(off&(PageSize-1)&^3, 4)
	atomic.StoreUint32(f.wordPtr(off), beWord(v))
}

// Private reports whether f has one holder and is not tracked by netshm:
// the condition under which the VM's store fast path may write it with
// plain stores. The answer goes stale only when a second holder appears
// (netshm tracks file frames, which the file holds): ForkInto then moves
// the sharing space's generation, and MapFrames maps only frames its
// caller already holds (see package addrspace).
func (f *Frame) Private() bool { return f.refs.Load() == 1 && !f.tracked.Load() }

// MarkDecoded records that a translated block is decoded from f. The block
// engine calls it before it reads the version it validates against, so
// every later private store to f bumps the version.
func (f *Frame) MarkDecoded() {
	if !f.decoded.Load() {
		f.decoded.Store(true)
	}
}

// StorePrivateWordBE stores the guest word at the aligned frame offset with
// a plain host store. Only the one CPU that holds f privately may call it
// (see Private). The version bumps, before the bytes change, only if a
// block was ever decoded from f: blocks are the only readers of a private
// frame's version.
func (f *Frame) StorePrivateWordBE(off, v uint32) {
	if f.decoded.Load() {
		f.ver.Add(1)
	}
	*f.wordPtr(off) = beWord(v)
}

// StorePrivateByte is StorePrivateWordBE for one byte.
func (f *Frame) StorePrivateByte(off uint32, v byte) {
	if f.decoded.Load() {
		f.ver.Add(1)
	}
	f.Data[off&(PageSize-1)] = v
}

// SwapWordBE atomically exchanges the guest word at the aligned frame
// offset, returning the previous value. This is the test-and-set primitive:
// the host atomic supplies both the atomicity and the acquire/release
// ordering guest spin locks need.
func (f *Frame) SwapWordBE(off, v uint32) uint32 {
	f.ver.Add(1)
	f.noteRange(off&(PageSize-1)&^3, 4)
	return beWord(atomic.SwapUint32(f.wordPtr(off), beWord(v)))
}

// CompareAndSwapWordBE atomically replaces old with new at the aligned
// frame offset, reporting whether the swap happened. The store-version
// counter bumps even on failure — a spurious invalidation is harmless, a
// missed one is not.
func (f *Frame) CompareAndSwapWordBE(off, old, new uint32) bool {
	f.ver.Add(1)
	f.noteRange(off&(PageSize-1)&^3, 4)
	return atomic.CompareAndSwapUint32(f.wordPtr(off), beWord(old), beWord(new))
}

// AddWordBE atomically adds delta to the guest word at the aligned frame
// offset and returns the new value. The add happens in guest byte order, so
// it is a CAS loop rather than a host atomic add.
func (f *Frame) AddWordBE(off, delta uint32) uint32 {
	p := f.wordPtr(off)
	f.noteRange(off&(PageSize-1)&^3, 4)
	for {
		o := atomic.LoadUint32(p)
		n := beWord(o) + delta
		f.ver.Add(1)
		if atomic.CompareAndSwapUint32(p, o, beWord(n)) {
			return n
		}
	}
}
