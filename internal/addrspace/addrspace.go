// Package addrspace implements simulated 32-bit virtual address spaces with
// per-page protection, the substrate on which Hemlock's fault-driven lazy
// linking and map-on-pointer-dereference are built.
//
// An address space is a sparse page table mapping virtual page numbers to
// physical frames plus protection bits. Loads and stores that touch an
// unmapped page, or a page without the required right, fail with a *Fault
// describing the access; the kernel (package kern) turns that into a
// restartable signal, exactly as the IRIX kernel delivers SIGSEGV to
// Hemlock's user-level handler.
package addrspace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hemlock/internal/mem"
	"hemlock/internal/obsv"
)

// Prot is a page protection bit mask.
type Prot uint8

// Protection bits. ProtNone (no bits) is what ldl uses to map a module that
// still has undefined references, so that the first touch faults.
const (
	ProtRead  Prot = 1 << iota // page may be read
	ProtWrite                  // page may be written
	ProtExec                   // page may be executed

	ProtNone Prot = 0
	ProtRW        = ProtRead | ProtWrite
	ProtRX        = ProtRead | ProtExec
	ProtRWX       = ProtRead | ProtWrite | ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access that caused a fault.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return fmt.Sprintf("access(%d)", uint8(a))
}

// Need returns the protection bit required for the access.
func (a Access) Need() Prot {
	switch a {
	case AccessWrite:
		return ProtWrite
	case AccessExec:
		return ProtExec
	default:
		return ProtRead
	}
}

// Fault describes a failed translation: the simulated equivalent of a
// SIGSEGV siginfo. Unmapped reports whether the page had no mapping at all
// (as opposed to a protection violation).
type Fault struct {
	Addr     uint32
	Access   Access
	Unmapped bool
}

func (f *Fault) Error() string {
	kind := "protection violation"
	if f.Unmapped {
		kind = "unmapped page"
	}
	return fmt.Sprintf("addrspace: fault on %s of 0x%08x (%s)", f.Access, f.Addr, kind)
}

// IsFault reports whether err is a *Fault and returns it.
func IsFault(err error) (*Fault, bool) {
	f, ok := err.(*Fault)
	return f, ok
}

// pte is a page table entry. prot is the logical protection — what the
// process asked for and what ProtAt/VisitPages report. cow marks a frame
// that may be shared with another space via ForkInto: the page must be
// re-backed by a private frame before any store lands, but its logical
// protection is unchanged, so copy-on-write is invisible to everything that
// inspects the space (including the differential harness's StateHash).
type pte struct {
	frame *mem.Frame
	prot  Prot
	cow   bool
}

// Space is a simulated 32-bit virtual address space. All methods are safe
// for concurrent use; Hemlock processes may be driven from multiple
// goroutines in tests.
type Space struct {
	mu    sync.RWMutex
	pages map[uint32]pte // VPN -> entry
	phys  *mem.Physical

	// gen counts mapping mutations (map, unmap, protect, share, clone-in,
	// release). Cached translations — the VM's software TLB — are valid
	// only while the generation they were filled under is current, so a
	// single bump here flushes every cache built on this space. Bumped
	// under mu; read lock-free via Gen.
	gen atomic.Uint64

	// Observability wiring (Observe). All fields are nil-safe: a bare
	// Space constructed by a test is simply unobserved.
	tracer            *obsv.Tracer
	ctrMaps, ctrUnmap *obsv.Counter // pages mapped / unmapped
	pid               int
}

// New returns an empty address space drawing frames from phys.
func New(phys *mem.Physical) *Space {
	return &Space{pages: make(map[uint32]pte), phys: phys}
}

// Observe wires the space into the observability layer: map/unmap events
// flow to tracer tagged with pid, and page counts into the two counters
// (shared kernel-wide, so they aggregate across processes).
func (s *Space) Observe(tracer *obsv.Tracer, maps, unmaps *obsv.Counter, pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer, s.ctrMaps, s.ctrUnmap, s.pid = tracer, maps, unmaps, pid
}

// Physical returns the frame pool backing the space.
func (s *Space) Physical() *mem.Physical { return s.phys }

func vpn(addr uint32) uint32 { return addr >> mem.PageShift }

// PageBase returns the page-aligned base of addr.
func PageBase(addr uint32) uint32 { return addr &^ (mem.PageSize - 1) }

// PageCount returns the number of pages needed to hold size bytes starting
// at a page-aligned address.
func PageCount(size uint32) uint32 {
	return (size + mem.PageSize - 1) / mem.PageSize
}

// MapAnon allocates fresh zeroed frames for [addr, addr+size) with the given
// protection. addr must be page aligned. Pages already mapped in the range
// cause an error.
func (s *Space) MapAnon(addr, size uint32, prot Prot) error {
	if addr%mem.PageSize != 0 {
		return fmt.Errorf("addrspace: MapAnon addr 0x%08x not page aligned", addr)
	}
	sp := s.tracer.Begin("addrspace", "map_anon", s.pid, "")
	n := PageCount(size)
	frames, err := s.phys.AllocN(int(n))
	if err != nil {
		sp.End(0)
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := vpn(addr)
	for i := uint32(0); i < n; i++ {
		if _, dup := s.pages[base+i]; dup {
			for _, f := range frames {
				f.Release()
			}
			sp.End(0)
			return fmt.Errorf("addrspace: page 0x%08x already mapped", (base+i)<<mem.PageShift)
		}
	}
	for i := uint32(0); i < n; i++ {
		s.pages[base+i] = pte{frame: frames[i], prot: prot}
	}
	s.gen.Add(1)
	s.ctrMaps.Add(uint64(n))
	sp.End(uint64(n))
	return nil
}

// MapFrames installs the given frames (retaining each) at addr with the
// given protection. This is how a shared-file-system file is mapped: the
// file's own frames become the process's pages, so stores through the
// mapping are stores into the file. The caller holds its own reference to
// every frame it passes, so no space held one of them alone, and no
// space's cached translation of it chose the VM's private store tier;
// only s's generation moves.
func (s *Space) MapFrames(addr uint32, frames []*mem.Frame, prot Prot) error {
	if addr%mem.PageSize != 0 {
		return fmt.Errorf("addrspace: MapFrames addr 0x%08x not page aligned", addr)
	}
	sp := s.tracer.Begin("addrspace", "map_frames", s.pid, "")
	s.mu.Lock()
	defer s.mu.Unlock()
	base := vpn(addr)
	for i := range frames {
		if _, dup := s.pages[base+uint32(i)]; dup {
			sp.End(0)
			return fmt.Errorf("addrspace: page 0x%08x already mapped", (base+uint32(i))<<mem.PageShift)
		}
	}
	for i, f := range frames {
		f.Retain()
		s.pages[base+uint32(i)] = pte{frame: f, prot: prot}
	}
	s.gen.Add(1)
	s.ctrMaps.Add(uint64(len(frames)))
	sp.End(uint64(len(frames)))
	return nil
}

// Unmap removes the mapping for [addr, addr+size), releasing the frames.
// Unmapped pages in the range are ignored.
func (s *Space) Unmap(addr, size uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := vpn(addr)
	released := uint64(0)
	for i := uint32(0); i < PageCount(size); i++ {
		if e, ok := s.pages[base+i]; ok {
			e.frame.Release()
			delete(s.pages, base+i)
			released++
		}
	}
	if released > 0 {
		s.gen.Add(1)
	}
	s.ctrUnmap.Add(released)
	if released > 0 && s.tracer.Enabled() {
		s.tracer.Emit(obsv.Event{Subsys: "addrspace", Name: "unmap", PID: s.pid, Addr: addr, Val: released})
	}
}

// Protect changes the protection of every mapped page in [addr, addr+size).
// It returns an error if any page in the range is unmapped.
func (s *Space) Protect(addr, size uint32, prot Prot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := vpn(addr)
	n := PageCount(size)
	for i := uint32(0); i < n; i++ {
		if _, ok := s.pages[base+i]; !ok {
			return fmt.Errorf("addrspace: Protect: page 0x%08x not mapped", (base+i)<<mem.PageShift)
		}
	}
	for i := uint32(0); i < n; i++ {
		e := s.pages[base+i]
		e.prot = prot
		s.pages[base+i] = e
	}
	s.gen.Add(1)
	return nil
}

// ProtAt returns the protection of the page containing addr and whether the
// page is mapped.
func (s *Space) ProtAt(addr uint32) (Prot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.pages[vpn(addr)]
	return e.prot, ok
}

// Mapped reports whether every page of [addr, addr+size) is mapped. An
// empty range is vacuously mapped. A range extending past the top of the
// 32-bit space is not (those pages cannot exist); the old end-of-range
// arithmetic wrapped around for size 0 and scanned bogus VPNs.
func (s *Space) Mapped(addr, size uint32) bool {
	if size == 0 {
		return true
	}
	if uint64(addr)+uint64(size) > 1<<32 {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	base := vpn(PageBase(addr))
	end := vpn(addr + size - 1)
	for p := base; p <= end; p++ {
		if _, ok := s.pages[p]; !ok {
			return false
		}
	}
	return true
}

// Gen returns the space's mapping generation. It is bumped by every
// mutation of the page table, so a cached Entry whose Gen no longer
// matches must be re-translated. The VM checks it in two places: TLB
// entries on every hit, and translated basic blocks on every block entry
// — one bump invalidates both, with no shootdown protocol.
func (s *Space) Gen() uint64 { return s.gen.Load() }

// Entry is a cacheable translation: the frame backing one page, its
// protection, and the generation the entry was read under. Holders must
// discard it once Gen() moves past Entry.Gen.
type Entry struct {
	Frame *mem.Frame
	Prot  Prot
	Gen   uint64
}

// Translate resolves the page containing addr for the given access kind
// and returns the full page-table entry plus the current generation, so
// callers — the VM's software TLB — can cache the result and revalidate
// it with a single atomic load instead of taking the space lock.
func (s *Space) Translate(addr uint32, a Access) (Entry, *Fault) {
	s.mu.RLock()
	e, ok := s.pages[vpn(addr)]
	g := s.gen.Load()
	s.mu.RUnlock()
	if !ok {
		return Entry{}, &Fault{Addr: addr, Access: a, Unmapped: true}
	}
	if e.prot&a.Need() == 0 {
		return Entry{}, &Fault{Addr: addr, Access: a}
	}
	if e.cow {
		// A write must land in a private frame; resolve now and re-read
		// the entry so the caller caches the private translation. For
		// reads and fetches the shared frame is fine, but the cached
		// entry must not advertise write capability — a later store
		// through it would bypass the copy — so mask ProtWrite and let
		// the store path come back through here.
		if a == AccessWrite {
			if _, flt := s.resolveCoW(addr, a); flt != nil {
				return Entry{}, flt
			}
			s.mu.RLock()
			e, ok = s.pages[vpn(addr)]
			g = s.gen.Load()
			s.mu.RUnlock()
			if !ok {
				return Entry{}, &Fault{Addr: addr, Access: a, Unmapped: true}
			}
			return Entry{Frame: e.frame, Prot: e.prot, Gen: g}, nil
		}
		return Entry{Frame: e.frame, Prot: e.prot &^ ProtWrite, Gen: g}, nil
	}
	return Entry{Frame: e.frame, Prot: e.prot, Gen: g}, nil
}

// translate returns the frame and in-page offset for addr if the access is
// permitted.
func (s *Space) translate(addr uint32, a Access) (*mem.Frame, uint32, *Fault) {
	s.mu.RLock()
	e, ok := s.pages[vpn(addr)]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, &Fault{Addr: addr, Access: a, Unmapped: true}
	}
	if e.prot&a.Need() == 0 {
		return nil, 0, &Fault{Addr: addr, Access: a}
	}
	if e.cow && a == AccessWrite {
		f, flt := s.resolveCoW(addr, a)
		if flt != nil {
			return nil, 0, flt
		}
		return f, addr & (mem.PageSize - 1), nil
	}
	return e.frame, addr & (mem.PageSize - 1), nil
}

// resolveCoW re-backs the page containing addr with a frame owned solely by
// this space, in preparation for a store. If the shared frame's refcount has
// already dropped to one (every other clone exited), the page is simply
// claimed; otherwise the frame is copied. Either way the cow flag clears and
// the generation bumps so every cached translation of the old frame dies.
func (s *Space) resolveCoW(addr uint32, a Access) (*mem.Frame, *Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := vpn(addr)
	e, ok := s.pages[p]
	if !ok {
		return nil, &Fault{Addr: addr, Access: a, Unmapped: true}
	}
	if !e.cow { // raced with another resolver; its copy is ours
		return e.frame, nil
	}
	if e.frame.Refs() == 1 {
		e.cow = false
		s.pages[p] = e
		s.gen.Add(1)
		return e.frame, nil
	}
	f, err := e.frame.Copy()
	if err != nil {
		// Physical frames exhausted at store time. Surface it as a write
		// fault: the simulated kernel has no better recourse than a signal.
		return nil, &Fault{Addr: addr, Access: a}
	}
	e.frame.Release()
	e.frame, e.cow = f, false
	s.pages[p] = e
	s.gen.Add(1)
	return f, nil
}

// ForkInto is fork's address-space clone: one pass over s's page table
// installs every user page into dst, copy-on-write for the private windows
// ([0, shBase) and [shLimit, kBase)) and shared outright for the public
// window ([shBase, shLimit)). A cow page keeps its logical protection on
// both sides, and whichever side stores first re-backs its own copy, so a
// clone costs one refcount and one page-table entry per page instead of a
// frame copy — what makes zygote launches cheap. s's generation bumps
// whenever it shares a page, cow or public: each shared frame gains a
// second holder, so every cached translation s's CPU filled while it held
// the frame alone (the VM's private store tier) must die now.
func (s *Space) ForkInto(dst *Space, shBase, shLimit, kBase uint32) {
	type ent struct {
		vpn uint32
		e   pte
	}
	s.mu.Lock()
	ents := make([]ent, 0, len(s.pages))
	for p, e := range s.pages {
		a := p << mem.PageShift
		switch {
		case a < shBase || (a >= shLimit && a < kBase):
			// Private: share the frame copy-on-write on both sides.
			if !e.cow {
				e.cow = true
				s.pages[p] = e
			}
		case a >= shBase && a < shLimit:
			// Public: both spaces address the same frame directly.
			e.cow = false
		default:
			continue // kernel window: never cloned
		}
		e.frame.Retain()
		ents = append(ents, ent{p, e})
	}
	if len(ents) > 0 {
		s.gen.Add(1)
	}
	s.mu.Unlock()
	if len(ents) == 0 {
		return
	}
	dst.mu.Lock()
	if len(dst.pages) == 0 {
		dst.pages = make(map[uint32]pte, len(ents))
	}
	for _, it := range ents {
		dst.pages[it.vpn] = it.e
	}
	dst.gen.Add(1)
	dst.mu.Unlock()
}

// PageIsCoW reports whether the page containing addr is currently marked
// copy-on-write (for tests).
func (s *Space) PageIsCoW(addr uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pages[vpn(addr)].cow
}

// Read copies len(buf) bytes starting at addr into buf. On a fault it
// returns the number of bytes copied before the fault and the *Fault.
func (s *Space) Read(addr uint32, buf []byte) (int, error) {
	done := 0
	for done < len(buf) {
		f, off, flt := s.translate(addr+uint32(done), AccessRead)
		if flt != nil {
			return done, flt
		}
		n := copy(buf[done:], f.Data[off:])
		done += n
	}
	return done, nil
}

// Write copies buf into memory starting at addr. On a fault it returns the
// number of bytes written before the fault and the *Fault.
func (s *Space) Write(addr uint32, buf []byte) (int, error) {
	done := 0
	for done < len(buf) {
		f, off, flt := s.translate(addr+uint32(done), AccessWrite)
		if flt != nil {
			return done, flt
		}
		n := len(buf) - done
		if room := len(f.Data) - int(off); n > room {
			n = room
		}
		f.NoteStoreRange(off, uint32(n))
		copy(f.Data[off:], buf[done:done+n])
		done += n
	}
	return done, nil
}

// LoadWord loads a big-endian 32-bit word. addr must be 4-byte aligned.
func (s *Space) LoadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("addrspace: unaligned word load at 0x%08x", addr)
	}
	f, off, flt := s.translate(addr, AccessRead)
	if flt != nil {
		return 0, flt
	}
	return f.LoadWordBE(off), nil
}

// StoreWord stores a big-endian 32-bit word. addr must be 4-byte aligned.
func (s *Space) StoreWord(addr, val uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("addrspace: unaligned word store at 0x%08x", addr)
	}
	f, off, flt := s.translate(addr, AccessWrite)
	if flt != nil {
		return flt
	}
	f.StoreWordBE(off, val)
	return nil
}

// FetchWord loads an instruction word, requiring execute permission.
func (s *Space) FetchWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("addrspace: unaligned fetch at 0x%08x", addr)
	}
	f, off, flt := s.translate(addr, AccessExec)
	if flt != nil {
		return 0, flt
	}
	return f.LoadWordBE(off), nil
}

// LoadByte loads one byte with read permission.
func (s *Space) LoadByte(addr uint32) (byte, error) {
	f, off, flt := s.translate(addr, AccessRead)
	if flt != nil {
		return 0, flt
	}
	return f.Data[off], nil
}

// StoreByte stores one byte with write permission.
func (s *Space) StoreByte(addr uint32, val byte) error {
	f, off, flt := s.translate(addr, AccessWrite)
	if flt != nil {
		return flt
	}
	f.NoteStoreRange(off, 1)
	f.Data[off] = val
	return nil
}

// Region describes one contiguous run of identically-protected pages, for
// /proc-style inspection and the Figure 3 layout printer.
type Region struct {
	Start uint32
	End   uint32 // exclusive
	Prot  Prot
}

// Regions returns the mapped regions in ascending address order, merging
// adjacent pages with identical protection.
func (s *Space) Regions() []Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vpns := make([]uint32, 0, len(s.pages))
	for p := range s.pages {
		vpns = append(vpns, p)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	var out []Region
	for _, p := range vpns {
		e := s.pages[p]
		start := p << mem.PageShift
		if n := len(out); n > 0 && out[n-1].End == start && out[n-1].Prot == e.prot {
			out[n-1].End = start + mem.PageSize
			continue
		}
		out = append(out, Region{Start: start, End: start + mem.PageSize, Prot: e.prot})
	}
	return out
}

// VisitPages calls fn for every mapped page in ascending VPN order,
// regardless of protection (ProtNone pages included). The differential
// harness uses it to hash and dump whole-space state cheaply; fn must not
// mutate the space (the read lock is held across the walk).
func (s *Space) VisitPages(fn func(vpn uint32, prot Prot, data *[mem.PageSize]byte)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vpns := make([]uint32, 0, len(s.pages))
	for p := range s.pages {
		vpns = append(vpns, p)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, p := range vpns {
		e := s.pages[p]
		fn(p, e.prot, &e.frame.Data)
	}
}

// Release unmaps everything, releasing all frames. The space must not be
// used afterwards.
func (s *Space) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	released := uint64(len(s.pages))
	for _, e := range s.pages {
		e.frame.Release()
	}
	clear(s.pages)
	s.gen.Add(1)
	s.ctrUnmap.Add(released)
	if released > 0 && s.tracer.Enabled() {
		s.tracer.Emit(obsv.Event{Subsys: "addrspace", Name: "release", PID: s.pid, Val: released})
	}
}

// PageCountMapped returns the number of mapped pages (for tests).
func (s *Space) PageCountMapped() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}
