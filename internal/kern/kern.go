// Package kern implements the simulated Unix kernel that hosts Hemlock: it
// owns physical memory and the shared file system, creates processes, forks
// them with copy-private/share-public semantics, delivers memory faults to
// the user-level SIGSEGV handler, and dispatches the system calls R3K-lite
// programs make — including the new calls that translate back and forth
// between addresses and path names in the shared file system.
package kern

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hemlock/internal/addrspace"
	"hemlock/internal/layout"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// Errors.
var (
	ErrUnhandled = errors.New("kern: fault not handled")
	ErrNoProcess = errors.New("kern: no such process")
	ErrBadFD     = errors.New("kern: bad file descriptor")
	ErrExited    = errors.New("kern: process has exited")
)

// FaultHandler is a user-level fault handler: the simulated SIGSEGV
// catcher. Returning nil means the fault was resolved and the instruction
// should be restarted; returning (or wrapping) ErrUnhandled passes the
// fault along (to the program's own handler, then to default disposition).
type FaultHandler func(p *Process, f *addrspace.Fault) error

// Kernel is the machine: physical memory, the shared file system, and the
// process table.
type Kernel struct {
	mu      sync.Mutex
	Phys    *mem.Physical
	FS      *shmfs.FS
	procs   map[int]*Process
	nextPID int

	// FaultCount counts faults delivered to user-level handlers (the
	// E-lazy and E-ptr experiments read it).
	FaultCount uint64

	// shmTxn backs the txn_stage/txn_commit system calls (see SetShmTxn);
	// nil on machines without a netshm endpoint.
	shmTxn ShmTxn

	// Obs is the machine-wide observability bundle every subsystem shares:
	// the tracer has no sinks (disabled) until something attaches one, the
	// registry is always live.
	Obs *obsv.Obs

	// Pre-fetched instrument handles so the hot paths are bare atomics.
	ctrSyscalls  *obsv.Counter
	ctrFaults    *obsv.Counter
	ctrSteps     *obsv.Counter
	ctrForks     *obsv.Counter
	ctrExits     *obsv.Counter
	ctrVMTraps   *obsv.Counter
	ctrTLBHit    *obsv.Counter
	ctrTLBMiss   *obsv.Counter
	ctrTLBPriv   *obsv.Counter
	ctrBlkBuild  *obsv.Counter
	ctrBlkHit    *obsv.Counter
	ctrBlkInval  *obsv.Counter
	ctrFusedOps  *obsv.Counter
	ctrASMaps    *obsv.Counter
	ctrStackGrow *obsv.Counter
	ctrASUnmaps  *obsv.Counter
	ctrZygReg    *obsv.Counter
	ctrZygClone  *obsv.Counter
	ctrZygInval  *obsv.Counter
	hRunSteps    *obsv.Histogram

	pdServices []*pdService

	// Zygote registry: parked, fully linked template processes keyed by
	// launch content hash (see zygote.go). Templates live outside the
	// process table and the normal PID sequence.
	zmu      sync.Mutex
	zygotes  map[string]*zygote
	zorder   []string // registration order, for capacity eviction
	nextZPID int
}

// New boots a kernel with a fresh shared file system.
func New() *Kernel {
	phys := mem.NewPhysical(0)
	fs, err := shmfs.New(phys)
	if err != nil {
		panic(err) // cannot happen: New only fails on allocation
	}
	return newKernel(fs, phys)
}

// NewWithFS boots a kernel around an existing file system (a loaded disk
// image). phys must be the pool backing fs.
func NewWithFS(fs *shmfs.FS, phys *mem.Physical) *Kernel {
	return newKernel(fs, phys)
}

// newKernel wires the observability layer through every subsystem the
// kernel owns: registry-backed counters for the kernel itself, the frame
// pool's gauges, and the shared file system's tracer hookup.
func newKernel(fs *shmfs.FS, phys *mem.Physical) *Kernel {
	o := obsv.New()
	k := &Kernel{
		Phys: phys, FS: fs, procs: map[int]*Process{}, nextPID: 1,
		Obs:          o,
		ctrSyscalls:  o.R.Counter("kern.syscalls"),
		ctrFaults:    o.R.Counter("kern.faults"),
		ctrSteps:     o.R.Counter("kern.steps"),
		ctrForks:     o.R.Counter("kern.forks"),
		ctrExits:     o.R.Counter("kern.exits"),
		ctrStackGrow: o.R.Counter("kern.stack_grow"),
		ctrVMTraps:   o.R.Counter("vm.traps"),
		ctrTLBHit:    o.R.Counter("vm.tlb_hit"),
		ctrTLBMiss:   o.R.Counter("vm.tlb_miss"),
		ctrTLBPriv:   o.R.Counter("vm.tlb_fill_private"),
		ctrBlkBuild:  o.R.Counter("vm.block_build"),
		ctrBlkHit:    o.R.Counter("vm.block_hit"),
		ctrBlkInval:  o.R.Counter("vm.block_invalidate"),
		ctrFusedOps:  o.R.Counter("vm.fused_ops"),
		ctrASMaps:    o.R.Counter("addrspace.pages_mapped"),
		ctrASUnmaps:  o.R.Counter("addrspace.pages_unmapped"),
		ctrZygReg:    o.R.Counter("kern.zygote_register"),
		ctrZygClone:  o.R.Counter("kern.zygote_clone"),
		ctrZygInval:  o.R.Counter("kern.zygote_invalidate"),
		hRunSteps:    o.R.Histogram("kern.run_steps"),
		zygotes:      map[string]*zygote{},
		nextZPID:     zygotePIDBase,
	}
	phys.RegisterObsv(o.R)
	fs.Observe(o.T, o.R.Counter("shmfs.creates"), o.R.Counter("shmfs.opens"))
	return k
}

// openFile is one open file description.
type openFile struct {
	path   string
	offset uint32
	write  bool
}

// Process is a simulated Unix process.
type Process struct {
	K    *Kernel
	PID  int
	PPID int
	UID  int
	AS   *addrspace.Space
	CPU  *vm.CPU // nil for a parked zygote template, which never runs
	Env  map[string]string
	CWD  string

	// Handler is the Hemlock run-time fault handler installed by crt0;
	// UserHandler is a program-provided SIGSEGV handler, invoked only when
	// the dynamic linking system's handler cannot resolve a fault.
	Handler     FaultHandler
	UserHandler FaultHandler

	// BreakHandler services BREAK traps: ldl installs one when the image
	// has jump-table stubs (the SunOS-style lazy function linking). The
	// handler adjusts the CPU state (typically rewinding PC to the patched
	// stub) and returns nil to resume.
	BreakHandler func(p *Process) error

	// CloneRuntime, when set, duplicates the per-process runtime state
	// (the dynamic linker's bookkeeping) for a forked child. ldl installs
	// it so that fork — which the paper retains "by weight of precedent"
	// — leaves the child with working fault handling at its own (copied)
	// private instances and the shared public ones.
	CloneRuntime func(parent, child *Process)

	// Runtime carries the per-process dynamic-linker state (owned by
	// package ldl; the kernel treats it as opaque).
	Runtime interface{}

	Stdout bytes.Buffer

	files  map[int]*openFile
	nextFD int

	brk      uint32 // heap break
	privBase uint32 // bump allocator for dynamic private module instances
	callStub uint32 // CallFunction's return-stub page (0 until first call)

	mappedSlots map[int]bool // shared-fs inodes currently mapped

	Exited   bool
	ExitCode int
}

// Spawn creates an empty process (no load image yet) for uid.
func (k *Kernel) Spawn(uid int) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := &Process{
		K:           k,
		PID:         k.nextPID,
		UID:         uid,
		AS:          addrspace.New(k.Phys),
		Env:         map[string]string{},
		CWD:         "/",
		files:       map[int]*openFile{},
		nextFD:      3,
		privBase:    layout.PrivDataBase + 0x10000000, // dynamic private instances
		mappedSlots: map[int]bool{},
	}
	p.CPU = vm.New(p.AS)
	p.CPU.CtrTraps = k.ctrVMTraps
	p.CPU.CtrTLBHit = k.ctrTLBHit
	p.CPU.CtrTLBMiss = k.ctrTLBMiss
	p.CPU.CtrTLBFillPrivate = k.ctrTLBPriv
	p.CPU.CtrBlockBuild = k.ctrBlkBuild
	p.CPU.CtrBlockHit = k.ctrBlkHit
	p.CPU.CtrBlockInval = k.ctrBlkInval
	p.CPU.CtrFusedOps = k.ctrFusedOps
	p.AS.Observe(k.Obs.Tracer(), k.ctrASMaps, k.ctrASUnmaps, p.PID)
	k.nextPID++
	k.procs[p.PID] = p
	if t := k.Obs.Tracer(); t.Enabled() {
		t.Emit(obsv.Event{Subsys: "kern", Name: "spawn", PID: p.PID, Val: uint64(uid)})
	}
	return p
}

// Process returns the process with the given pid.
func (k *Kernel) Process(pid int) (*Process, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns the live process list in pid order.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		if !p.Exited {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// Getenv reads an environment variable.
func (p *Process) Getenv(key string) string { return p.Env[key] }

// Setenv sets an environment variable ("by modifying environment variables
// prior to execution, we can arrange for new processes to find shared data
// in a temporary directory").
func (p *Process) Setenv(key, value string) { p.Env[key] = value }

// ---- exec ------------------------------------------------------------------

// Exec maps a load image into the (empty) process: text, data, bss, a
// stack, and an initial heap break. The caller (package core) then runs the
// crt0 sequence, which invokes ldl before main.
func (p *Process) Exec(im *objfile.Image) error {
	if p.Exited {
		return ErrExited
	}
	// Map the whole image span as one RWX region. The linkers keep each
	// module's data off its code pages, but an image interleaves code and
	// data module by module, ldl writes trampolines and patches jump-table
	// stubs in it at run time, and guest code may store to its own text
	// (the block engine rebuilds what such a store changes). Shared
	// modules get real per-slot protection via MapSharedFile and ldl.
	lo := addrspace.PageBase(im.TextBase)
	hi := im.TextBase + uint32(len(im.Text))
	if e := im.DataBase + uint32(len(im.Data)); len(im.Data) > 0 && e > hi {
		hi = e
	}
	if e := im.BssBase + im.BssSize; im.BssSize > 0 && e > hi {
		hi = e
	}
	if dlo := addrspace.PageBase(im.DataBase); len(im.Data) > 0 && dlo < lo {
		lo = dlo
	}
	hi = mem.PageCeil(hi)
	t := p.K.Obs.Tracer()
	execSpan := t.Begin("kern", "exec", p.PID, im.Name)
	mapSpan := t.Begin("kern", "map_pages", p.PID, im.Name)
	if hi > lo {
		if err := p.AS.MapAnon(lo, hi-lo, addrspace.ProtRWX); err != nil {
			return fmt.Errorf("kern: exec %s image: %w", im.Name, err)
		}
	}
	// Stack: map only the eager top of the window; the rest is demand-zero
	// (HandleFault grows it), so launch cost tracks pages used, not the
	// full 256 KB window.
	stackBase := layout.StackTop - layout.StackEagerSize
	if err := p.AS.MapAnon(stackBase, layout.StackEagerSize, addrspace.ProtRW); err != nil {
		return fmt.Errorf("kern: exec %s stack: %w", im.Name, err)
	}
	mapSpan.End(uint64(addrspace.PageCount(hi-lo) + addrspace.PageCount(layout.StackEagerSize)))
	writeSpan := t.Begin("kern", "write_image", p.PID, im.Name)
	if len(im.Text) > 0 {
		if _, err := p.AS.Write(im.TextBase, im.Text); err != nil {
			return fmt.Errorf("kern: exec %s text: %w", im.Name, err)
		}
	}
	if len(im.Data) > 0 {
		if _, err := p.AS.Write(im.DataBase, im.Data); err != nil {
			return fmt.Errorf("kern: exec %s data: %w", im.Name, err)
		}
	}
	writeSpan.End(uint64(len(im.Text) + len(im.Data)))
	execSpan.End(0)
	p.CPU.Regs[29] = layout.StackTop - 16 // $sp
	p.CPU.PC = im.Entry
	p.brk = mem.PageCeil(im.BssBase + im.BssSize)
	if p.brk < layout.PrivDataBase {
		p.brk = layout.PrivDataBase
	}
	return nil
}

// Sbrk grows the heap by n bytes and returns the previous break.
func (p *Process) Sbrk(n uint32) (uint32, error) {
	old := p.brk
	if n == 0 {
		return old, nil
	}
	newBrk := mem.PageCeil(old + n)
	if newBrk > layout.PrivDataLimit {
		return 0, fmt.Errorf("kern: sbrk beyond private data region")
	}
	if newBrk > old {
		if err := p.AS.MapAnon(old, newBrk-old, addrspace.ProtRW); err != nil {
			return 0, err
		}
	}
	p.brk = newBrk
	return old, nil
}

// AllocPrivate carves out a page-aligned private region for a dynamic
// private module instance and returns its base.
func (p *Process) AllocPrivate(size uint32) (uint32, error) {
	base := p.privBase
	end := mem.PageCeil(base + size)
	if end > layout.PrivDataLimit {
		return 0, fmt.Errorf("kern: private module region exhausted")
	}
	if err := p.AS.MapAnon(base, end-base, addrspace.ProtRWX); err != nil {
		return 0, err
	}
	p.privBase = end
	return base, nil
}

// ---- fork ------------------------------------------------------------------

// Fork creates a child process: "The child process that results from a
// fork receives a copy of each segment in the private portion of the
// parent's address space, and shares the single copy of each segment in
// the public portion." Parent and child come out with identical program
// counters and registers.
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	child := k.Spawn(parent.UID)
	k.forkInto(parent, child)
	child.CPU.SetArchState(parent.CPU.ArchState())
	k.ctrForks.Inc()
	if t := k.Obs.Tracer(); t.Enabled() {
		t.Emit(obsv.Event{Subsys: "kern", Name: "fork", PID: parent.PID, Val: uint64(child.PID)})
	}
	return child, nil
}

// forkInto populates a freshly spawned child with a copy of parent's state,
// all but the CPU's, which the caller copies: a zygote template keeps its
// architectural state instead of a CPU.
// The private halves of the address space clone copy-on-write: the child
// costs one page-table entry and one refcount per page, and whichever side
// stores to a page first pays for its own copy. The public window is shared
// outright, per the paper.
func (k *Kernel) forkInto(parent, child *Process) {
	child.PPID = parent.PID
	child.CWD = parent.CWD
	for key, v := range parent.Env {
		child.Env[key] = v
	}
	// One pass over the parent's page table: private windows clone
	// copy-on-write, the public window shares frames outright.
	parent.AS.ForkInto(child.AS, layout.SharedBase, layout.SharedLimit, layout.KernelBase)
	child.brk = parent.brk
	child.privBase = parent.privBase
	child.callStub = parent.callStub // stub page is in the cloned private range
	for ino := range parent.mappedSlots {
		child.mappedSlots[ino] = true
	}
	child.Handler = parent.Handler
	child.UserHandler = parent.UserHandler
	child.BreakHandler = parent.BreakHandler
	child.CloneRuntime = parent.CloneRuntime
	if parent.CloneRuntime != nil {
		parent.CloneRuntime(parent, child)
	}
}

// Exit terminates the process, reclaiming its private segments. Segments
// shared between processes are NOT reclaimed — that is the garbage
// collection problem the paper discusses; shared files persist until
// explicitly destroyed.
func (p *Process) Exit(code int) {
	if p.Exited {
		return
	}
	p.Exited = true
	p.ExitCode = code
	p.CPU.ReleaseCaches()
	p.AS.Release()
	p.K.mu.Lock()
	delete(p.K.procs, p.PID)
	p.K.mu.Unlock()
	p.K.ctrExits.Inc()
	if t := p.K.Obs.Tracer(); t.Enabled() {
		t.Emit(obsv.Event{Subsys: "kern", Name: "exit", PID: p.PID, Val: uint64(uint32(code))})
	}
}

// ---- fault delivery ---------------------------------------------------------

// HandleFault delivers a memory fault to the process's user-level
// handlers: first the Hemlock run-time handler, then — if it cannot
// resolve the fault — the program-provided SIGSEGV handler, if one exists.
// A nil return means the faulting instruction should be restarted.
func (k *Kernel) HandleFault(p *Process, f *addrspace.Fault) error {
	k.mu.Lock()
	k.FaultCount++
	k.mu.Unlock()
	k.ctrFaults.Inc()
	if t := k.Obs.Tracer(); t.Enabled() {
		t.Emit(obsv.Event{Subsys: "kern", Name: "fault", PID: p.PID, Addr: f.Addr, Val: uint64(f.Access)})
	}
	// Demand-zero stack growth: an unmapped page inside the stack window is
	// the kernel's to resolve, before any user-level handler sees it.
	if f.Unmapped && f.Addr >= layout.StackTop-layout.DefaultStackSize && f.Addr < layout.StackTop {
		if err := p.AS.MapAnon(addrspace.PageBase(f.Addr), mem.PageSize, addrspace.ProtRW); err != nil {
			return fmt.Errorf("%w: %v (stack growth failed: %v, pid %d)", ErrUnhandled, f, err, p.PID)
		}
		k.ctrStackGrow.Inc()
		return nil
	}
	if p.Handler != nil {
		err := p.Handler(p, f)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrUnhandled) {
			return err
		}
	}
	if p.UserHandler != nil {
		err := p.UserHandler(p, f)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrUnhandled) {
			return err
		}
	}
	return fmt.Errorf("%w: %v (segmentation fault, pid %d)", ErrUnhandled, f, p.PID)
}

// MapSharedFile maps the shared-fs file at path into the process at the
// file's fixed address, sized to whole pages covering size bytes (or the
// current file size if larger). The mapping aliases the file's frames, so
// loads and stores ARE file reads and writes.
func (k *Kernel) MapSharedFile(p *Process, path string, size uint32, prot addrspace.Prot) (shmfs.Stat, error) {
	write := prot&addrspace.ProtWrite != 0
	sp := k.Obs.Tracer().Begin("kern", "map_shared", p.PID, path)
	frames, st, err := k.FS.Frames(path, size, p.UID, write)
	if err != nil {
		sp.End(0)
		return shmfs.Stat{}, err
	}
	if p.mappedSlots[st.Ino] {
		sp.End(0)
		return st, nil // already mapped; idempotent
	}
	need := int(addrspace.PageCount(st.Size))
	if need == 0 {
		need = 1
		// Map at least one page so the segment is addressable.
		frames, st, err = k.FS.Frames(path, mem.PageSize, p.UID, write)
		if err != nil {
			return shmfs.Stat{}, err
		}
	}
	if err := p.AS.MapFrames(st.Addr, frames[:need], prot); err != nil {
		sp.End(0)
		return shmfs.Stat{}, err
	}
	p.mappedSlots[st.Ino] = true
	sp.End(uint64(need))
	return st, nil
}

// UnmapSharedSlot removes the mapping of a shared slot from this process
// (the file itself persists).
func (p *Process) UnmapSharedSlot(ino int) {
	if !p.mappedSlots[ino] {
		return
	}
	p.AS.Unmap(shmfs.AddrOf(ino), shmfs.SlotSize)
	delete(p.mappedSlots, ino)
}

// ---- fault-retrying memory access (hosted programs) -------------------------

// maxFaultRetries bounds handler-retry loops: a handler that "resolves" a
// fault without making progress must not hang the kernel.
const maxFaultRetries = 64

func (p *Process) retrying(access func() error) error {
	for i := 0; i < maxFaultRetries; i++ {
		err := access()
		if err == nil {
			return nil
		}
		f, ok := addrspace.IsFault(err)
		if !ok {
			return err
		}
		if herr := p.K.HandleFault(p, f); herr != nil {
			return herr
		}
	}
	return fmt.Errorf("kern: fault retry limit exceeded (pid %d)", p.PID)
}

// ReadMem reads memory with fault handling, exactly as a load instruction
// would: unmapped shared segments are faulted in by the handler.
func (p *Process) ReadMem(addr uint32, buf []byte) error {
	done := 0
	return p.retrying(func() error {
		n, err := p.AS.Read(addr+uint32(done), buf[done:])
		done += n
		return err
	})
}

// WriteMem writes memory with fault handling.
func (p *Process) WriteMem(addr uint32, buf []byte) error {
	done := 0
	return p.retrying(func() error {
		n, err := p.AS.Write(addr+uint32(done), buf[done:])
		done += n
		return err
	})
}

// LoadWord loads a word with fault handling.
func (p *Process) LoadWord(addr uint32) (uint32, error) {
	var v uint32
	err := p.retrying(func() error {
		var e error
		v, e = p.AS.LoadWord(addr)
		return e
	})
	return v, err
}

// StoreWord stores a word with fault handling.
func (p *Process) StoreWord(addr, val uint32) error {
	return p.retrying(func() error { return p.AS.StoreWord(addr, val) })
}

// LoadByte loads a byte with fault handling.
func (p *Process) LoadByte(addr uint32) (byte, error) {
	var v byte
	err := p.retrying(func() error {
		var e error
		v, e = p.AS.LoadByte(addr)
		return e
	})
	return v, err
}

// StoreByte stores a byte with fault handling.
func (p *Process) StoreByte(addr uint32, val byte) error {
	return p.retrying(func() error { return p.AS.StoreByte(addr, val) })
}

// CString reads a NUL-terminated string with fault handling (capped at 4096
// bytes).
func (p *Process) CString(addr uint32) (string, error) {
	var out []byte
	for i := uint32(0); i < 4096; i++ {
		b, err := p.LoadByte(addr + i)
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("kern: unterminated string at 0x%08x", addr)
}
