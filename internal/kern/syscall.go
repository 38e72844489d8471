package kern

import (
	"errors"
	"fmt"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// System call numbers (passed in $v0). Results return in $v0; $v1 is 0 on
// success and an errno-style code on failure.
const (
	SysExit       = 1  // exit(code)
	SysWrite      = 2  // write(fd, buf, len) — fd 1 is the console
	SysGetPID     = 3  // getpid()
	SysOpen       = 4  // open(path, writable) -> fd
	SysClose      = 5  // close(fd)
	SysRead       = 6  // read(fd, buf, len) -> n
	SysSbrk       = 8  // sbrk(n) -> old break
	SysAddrToPath = 9  // shm_addr_to_path(addr, buf, buflen) -> len  [new kernel call]
	SysOpenAddr   = 10 // open_by_addr(addr, writable) -> fd          [overloaded open]
	SysPathToAddr = 11 // shm_path_to_addr(path) -> addr
	SysStatSize   = 12 // stat_size(path) -> file size
	SysUnlink     = 13 // unlink(path)
	SysMapShared  = 14 // map_shared(path, size) -> base address (the mmap-style path)
	SysLinkModule = 15 // link_module(path, class) -> module base (dlopen, but scoped and lazy)
	SysSymAddr    = 16 // sym_addr(name) -> address (dlsym, against the full root scope)
	SysFork       = 17 // fork() -> child pid (0 in the child)

	// Guest atomics (23–26): the hardware synchronisation primitive the
	// paper's user-space spin locks assume. Exposed as kernel calls rather
	// than instructions to keep the R3K-lite ISA untouched; each is one
	// host atomic on the backing frame word (see atomic.go), so they scale
	// across true-SMP guest CPUs instead of serialising the fleet.
	SysTAS         = 23 // tas(addr) -> previous word, word at addr set to 1
	SysAtomicStore = 24 // atomic_store(addr, val)    [release: lock drop]
	SysAtomicAdd   = 25 // atomic_add(addr, delta) -> new value
	SysAtomicLoad  = 26 // atomic_load(addr) -> word  [acquire]

	// Transactional shared-segment writes (27–28): the guest surface of
	// netshm's TL2-style commit protocol. A process stages word stores
	// against replicated segment addresses, then commits them atomically —
	// one generation on the wire, so no machine in the fleet ever observes
	// half of the write set. Backed by the ShmTxn hook; without a netshm
	// endpoint on this machine the calls fail with Einval.
	SysTxnStage  = 27 // txn_stage(addr, val) — stage a word store at addr
	SysTxnCommit = 28 // txn_commit(abort) -> 1 committed / 0 conflict; Eagain if the home is remote
)

// sysNames maps syscall numbers to event names for the tracer. Indexing is
// an array lookup so the trace path allocates nothing.
var sysNames = [...]string{
	SysExit:        "exit",
	SysWrite:       "write",
	SysGetPID:      "getpid",
	SysOpen:        "open",
	SysClose:       "close",
	SysRead:        "read",
	SysSbrk:        "sbrk",
	SysAddrToPath:  "shm_addr_to_path",
	SysOpenAddr:    "open_by_addr",
	SysPathToAddr:  "shm_path_to_addr",
	SysStatSize:    "stat_size",
	SysUnlink:      "unlink",
	SysMapShared:   "map_shared",
	SysLinkModule:  "link_module",
	SysSymAddr:     "sym_addr",
	SysFork:        "fork",
	SysPDServe:     "pd_serve",
	SysPDCall:      "pd_call",
	SysPDReturn:    "pd_return",
	SysTAS:         "tas",
	SysAtomicStore: "atomic_store",
	SysAtomicAdd:   "atomic_add",
	SysAtomicLoad:  "atomic_load",
	SysTxnStage:    "txn_stage",
	SysTxnCommit:   "txn_commit",
}

func sysName(num uint32) string {
	if num < uint32(len(sysNames)) && sysNames[num] != "" {
		return sysNames[num]
	}
	return "syscall"
}

// ModuleLinker is the hook the dynamic linker installs (via
// Process.Runtime) so the link_module and sym_addr system calls can reach
// it without the kernel depending on the linker package. ldl.Proc
// implements it.
type ModuleLinker interface {
	// LinkByPath brings the named module into the process at root scope
	// (mapped, lazily linked) and returns its base address.
	LinkByPath(name string, public bool) (uint32, error)
	// SymbolAddr resolves a symbol against the process's root scope.
	SymbolAddr(name string) (uint32, bool)
}

// ShmTxn is the hook a networked-shared-memory endpoint (netshm) installs
// via SetShmTxn so the txn_stage/txn_commit system calls can reach the
// fleet's transactional commit protocol without the kernel depending on
// the netshm package — the same inversion ModuleLinker uses for the
// dynamic linker.
type ShmTxn interface {
	// TxnStage stages a 32-bit word store at a replicated segment address
	// for process pid.
	TxnStage(pid int, addr, val uint32) error
	// TxnCommit atomically commits pid's staged stores. ok=false with a
	// nil error is a clean optimistic-concurrency conflict (the guest
	// should re-run); an error wrapping ErrAgain means the segment's home
	// is remote and the guest must retry another way.
	TxnCommit(pid int) (bool, error)
	// TxnAbort discards pid's staged stores.
	TxnAbort(pid int)
}

// SetShmTxn installs the transactional shared-memory backend.
func (k *Kernel) SetShmTxn(t ShmTxn) { k.shmTxn = t }

// ErrAgain maps to Eagain: the operation cannot complete on this machine
// right now (a transactional commit whose home is remote).
var ErrAgain = errors.New("kern: resource temporarily unavailable")

// Errno values returned in $v1.
const (
	Eok     = 0
	Enoent  = 2
	Ebadf   = 9
	Eagain  = 11
	Eaccess = 13
	Einval  = 22
	Enospc  = 28
)

func errno(err error) uint32 {
	switch {
	case err == nil:
		return Eok
	case errors.Is(err, shmfs.ErrNotExist):
		return Enoent
	case errors.Is(err, shmfs.ErrPerm):
		return Eaccess
	case errors.Is(err, shmfs.ErrNoSpace), errors.Is(err, shmfs.ErrFileTooBig):
		return Enospc
	case errors.Is(err, ErrBadFD):
		return Ebadf
	case errors.Is(err, ErrAgain):
		return Eagain
	default:
		return Einval
	}
}

// Syscall executes the system call currently requested by the process's
// CPU registers and writes the result back.
func (k *Kernel) Syscall(p *Process) error {
	c := p.CPU
	num := c.Regs[isa.RegV0]
	a0, a1, a2 := c.Regs[isa.RegA0], c.Regs[isa.RegA1], c.Regs[isa.RegA2]
	k.ctrSyscalls.Inc()
	if t := k.Obs.Tracer(); t.Enabled() {
		t.Emit(obsv.Event{Subsys: "kern", Name: sysName(num), PID: p.PID, Addr: a0, Val: uint64(num)})
	}
	var ret uint32
	var err error
	switch num {
	case SysExit:
		p.Exit(int(a0))
		return nil
	case SysWrite:
		ret, err = k.sysWrite(p, a0, a1, a2)
	case SysGetPID:
		ret = uint32(p.PID)
	case SysOpen:
		var path string
		path, err = p.CString(a0)
		if err == nil {
			ret, err = p.openPath(path, a1 != 0)
		}
	case SysClose:
		if _, ok := p.files[int(a0)]; !ok {
			err = ErrBadFD
		} else {
			delete(p.files, int(a0))
		}
	case SysRead:
		ret, err = k.sysRead(p, a0, a1, a2)
	case SysSbrk:
		ret, err = p.Sbrk(a0)
	case SysAddrToPath:
		var path string
		path, _, err = k.FS.AddrToPath(a0)
		if err == nil {
			b := []byte(path)
			if uint32(len(b))+1 > a2 {
				err = fmt.Errorf("kern: buffer too small")
			} else {
				if err = p.WriteMem(a1, append(b, 0)); err == nil {
					ret = uint32(len(b))
				}
			}
		}
	case SysOpenAddr:
		var path string
		path, _, err = k.FS.AddrToPath(a0)
		if err == nil {
			ret, err = p.openPath(path, a1 != 0)
		}
	case SysPathToAddr:
		var path string
		path, err = p.CString(a0)
		if err == nil {
			ret, err = k.FS.PathToAddr(path)
		}
	case SysStatSize:
		var path string
		path, err = p.CString(a0)
		if err == nil {
			var st shmfs.Stat
			st, err = k.FS.StatPath(path)
			ret = st.Size
		}
	case SysUnlink:
		var path string
		path, err = p.CString(a0)
		if err == nil {
			err = k.FS.Unlink(path, p.UID)
		}
	case SysMapShared:
		var path string
		path, err = p.CString(a0)
		if err == nil {
			var st shmfs.Stat
			st, err = k.MapSharedFile(p, p.abs(path), a1, addrspace.ProtRWX)
			ret = st.Addr
		}
	case SysFork:
		var child *Process
		child, err = k.Fork(p)
		if err == nil {
			// Parent and child come out of the fork with identical
			// program counters; the return value tells them apart.
			child.CPU.Regs[isa.RegV0] = 0
			child.CPU.Regs[isa.RegV1] = Eok
			ret = uint32(child.PID)
		}
	case SysLinkModule:
		ml, ok := p.Runtime.(ModuleLinker)
		if !ok {
			err = fmt.Errorf("kern: no dynamic linker in this process")
			break
		}
		var path string
		path, err = p.CString(a0)
		if err == nil {
			ret, err = ml.LinkByPath(path, a1 != 0)
		}
	case SysSymAddr:
		ml, ok := p.Runtime.(ModuleLinker)
		if !ok {
			err = fmt.Errorf("kern: no dynamic linker in this process")
			break
		}
		var name string
		name, err = p.CString(a0)
		if err == nil {
			addr, found := ml.SymbolAddr(name)
			if !found {
				err = fmt.Errorf("kern: undefined symbol %q", name)
			}
			ret = addr
		}
	case SysTAS:
		ret, err = p.TestAndSet(a0)
	case SysAtomicStore:
		err = p.AtomicStore(a0, a1)
	case SysAtomicAdd:
		ret, err = p.AtomicAdd(a0, a1)
	case SysAtomicLoad:
		ret, err = p.AtomicLoad(a0)
	case SysTxnStage:
		if k.shmTxn == nil {
			err = fmt.Errorf("kern: no transactional shared memory on this machine")
			break
		}
		err = k.shmTxn.TxnStage(p.PID, a0, a1)
	case SysTxnCommit:
		if k.shmTxn == nil {
			err = fmt.Errorf("kern: no transactional shared memory on this machine")
			break
		}
		if a0 != 0 {
			k.shmTxn.TxnAbort(p.PID)
			ret = 1
			break
		}
		var ok bool
		ok, err = k.shmTxn.TxnCommit(p.PID)
		if ok {
			ret = 1
		}
	case SysPDServe:
		ret = uint32(k.registerPDEntry(p, a0))
	case SysPDCall:
		ret, err = k.PDCall(p, int(a0), a1)
	case SysPDReturn:
		err = ErrNotInPDCall
	default:
		err = fmt.Errorf("kern: unknown syscall %d", num)
	}
	c.Regs[isa.RegV0] = ret
	c.Regs[isa.RegV1] = errno(err)
	return nil
}

func (p *Process) openPath(path string, writable bool) (uint32, error) {
	path = p.abs(path)
	// Verify access now, like open(2).
	if _, err := p.K.FS.ReadAt(path, 0, nil, p.UID); err != nil && !errors.Is(err, shmfs.ErrIsDir) {
		return 0, err
	}
	fd := p.nextFD
	p.nextFD++
	p.files[fd] = &openFile{path: path, write: writable}
	return uint32(fd), nil
}

// abs resolves a path relative to the process working directory.
func (p *Process) abs(path string) string {
	if len(path) > 0 && path[0] == '/' {
		return shmfs.Clean(path)
	}
	return shmfs.Clean(p.CWD + "/" + path)
}

func (k *Kernel) sysWrite(p *Process, fd, buf, n uint32) (uint32, error) {
	data := make([]byte, n)
	if err := p.ReadMem(buf, data); err != nil {
		return 0, err
	}
	if fd == 1 || fd == 2 {
		p.Stdout.Write(data)
		return n, nil
	}
	f, ok := p.files[int(fd)]
	if !ok || !f.write {
		return 0, ErrBadFD
	}
	wrote, err := k.FS.WriteAt(f.path, f.offset, data, p.UID)
	f.offset += uint32(wrote)
	return uint32(wrote), err
}

func (k *Kernel) sysRead(p *Process, fd, buf, n uint32) (uint32, error) {
	f, ok := p.files[int(fd)]
	if !ok {
		return 0, ErrBadFD
	}
	data := make([]byte, n)
	got, err := k.FS.ReadAt(f.path, f.offset, data, p.UID)
	if err != nil {
		return 0, err
	}
	f.offset += uint32(got)
	if err := p.WriteMem(buf, data[:got]); err != nil {
		return 0, err
	}
	return uint32(got), nil
}

// OpenHostFile gives hosted (Go-level) programs the same fd interface the
// VM syscalls use.
func (p *Process) OpenHostFile(path string, writable bool) (int, error) {
	fd, err := p.openPath(path, writable)
	return int(fd), err
}

// Run drives the process's CPU until it exits, halts, traps fatally, or
// retires maxSteps instructions. Faults are delivered to the user-level
// handler and the faulting instruction restarted, exactly like hardware
// resuming after SIGSEGV. It returns the retired instruction count.
func (k *Kernel) Run(p *Process, maxSteps uint64) (uint64, error) {
	span := k.Obs.Tracer().Begin("kern", "run", p.PID, "")
	n, err := k.runLoop(p, maxSteps)
	k.ctrSteps.Add(n)
	k.hRunSteps.Observe(n)
	span.End(n)
	return n, err
}

func (k *Kernel) runLoop(p *Process, maxSteps uint64) (uint64, error) {
	n, done, err := k.runSlice(p, maxSteps)
	if err != nil || done {
		return n, err
	}
	return n, fmt.Errorf("kern: pid %d exceeded %d steps", p.PID, maxSteps)
}

// runSlice is the resumable core of the run loop: it drives the CPU for at
// most budget retired instructions and returns how many ran and whether the
// process is finished (exited or already exited on entry). Exhausting the
// budget with the process still runnable is NOT an error here — the SMP
// scheduler calls runSlice repeatedly, one preemption quantum at a time,
// interleaving other processes between slices.
func (k *Kernel) runSlice(p *Process, budget uint64) (uint64, bool, error) {
	start := p.CPU.Steps
	// Hand the CPU its whole remaining budget and only come back here for
	// events, faults and traps — the points the tracer observes — with or
	// without a sink attached.
	for p.CPU.Steps-start < budget {
		if p.Exited {
			return p.CPU.Steps - start, true, nil
		}
		ev, err := p.CPU.RunBatch(budget - (p.CPU.Steps - start))
		if ev == vm.EventStep && err == nil {
			continue // budget exhausted; loop condition reports it
		}
		if err != nil {
			f, ok := vm.FaultOf(err)
			if !ok {
				return p.CPU.Steps - start, false, err
			}
			if herr := k.HandleFault(p, f); herr != nil {
				return p.CPU.Steps - start, false, fmt.Errorf("pid %d at pc 0x%08x: %w", p.PID, p.CPU.PC, herr)
			}
			continue // restart the faulting instruction
		}
		switch ev {
		case vm.EventHalt:
			p.Exit(0)
			return p.CPU.Steps - start, true, nil
		case vm.EventSyscall:
			if err := k.Syscall(p); err != nil {
				return p.CPU.Steps - start, false, err
			}
		case vm.EventBreak:
			if p.BreakHandler != nil {
				if err := p.BreakHandler(p); err != nil {
					return p.CPU.Steps - start, false, err
				}
				continue
			}
			return p.CPU.Steps - start, false, fmt.Errorf("kern: pid %d hit break at 0x%08x", p.PID, p.CPU.PC)
		}
	}
	return p.CPU.Steps - start, p.Exited, nil
}

// Regions returns the process's mapped regions (a /proc-style view used by
// the Figure 3 layout printer).
func (p *Process) Regions() []addrspace.Region { return p.AS.Regions() }
