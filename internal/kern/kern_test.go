package kern

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/layout"
	"hemlock/internal/linker"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// buildImage assembles a self-contained program into a load image at the
// standard text base.
func buildImage(t *testing.T, src string) *objfile.Image {
	t.Helper()
	o, err := isa.Assemble("prog.s", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := linker.Place(o, layout.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := p.Image()
	pending, err := p.RelocateInternal(&linker.BytesPatcher{Base: layout.TextBase, B: img})
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("test image has unresolved refs: %v", pending)
	}
	dataOff := p.DataAddr() - p.Base
	im := &objfile.Image{
		Name:     "a.out",
		Entry:    layout.TextBase,
		TextBase: layout.TextBase,
		Text:     img[:dataOff],
		DataBase: layout.TextBase + dataOff,
		Data:     img[dataOff:],
		BssBase:  layout.TextBase + uint32(len(img)),
		BssSize:  p.Size() - uint32(len(img)),
	}
	return im
}

func TestExecAndRunHalt(t *testing.T) {
	k := New()
	p := k.Spawn(100)
	im := buildImage(t, `
        .text
        li      $t0, 123
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	if !p.Exited || p.ExitCode != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
}

func TestSyscallWriteConsoleAndExit(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 2          # write
        li      $a0, 1          # stdout
        la      $a1, msg
        li      $a2, 5
        syscall
        li      $v0, 1          # exit
        li      $a0, 7
        syscall
        .data
msg:    .asciiz "hello"
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	if p.Stdout.String() != "hello" {
		t.Fatalf("stdout = %q", p.Stdout.String())
	}
	if p.ExitCode != 7 {
		t.Fatalf("exit code = %d", p.ExitCode)
	}
}

func TestSyscallGetPID(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 3
        syscall
        halt
`)
	p.Exec(im)
	k.Run(p, 100)
	if p.CPU.Regs[isa.RegV0] != uint32(p.PID) {
		t.Fatalf("getpid = %d, want %d", p.CPU.Regs[isa.RegV0], p.PID)
	}
}

func TestFileSyscalls(t *testing.T) {
	k := New()
	k.FS.Create("/note", shmfs.DefaultFileMode, 0)
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        # fd = open("/note", writable)
        li      $v0, 4
        la      $a0, path
        li      $a1, 1
        syscall
        move    $s0, $v0
        # write(fd, "data", 4)
        li      $v0, 2
        move    $a0, $s0
        la      $a1, body
        li      $a2, 4
        syscall
        # close(fd)
        li      $v0, 5
        move    $a0, $s0
        syscall
        halt
        .data
path:   .asciiz "/note"
body:   .ascii  "data"
`)
	p.Exec(im)
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	got, err := k.FS.ReadFile("/note", 0)
	if err != nil || string(got) != "data" {
		t.Fatalf("file contents %q, %v", got, err)
	}
}

func TestAddrToPathSyscall(t *testing.T) {
	k := New()
	st, _ := k.FS.Create("/seg", shmfs.DefaultFileMode, 0)
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 9          # shm_addr_to_path
        lui     $a0, 0x3000     # will be patched below
        la      $a1, buf
        li      $a2, 64
        syscall
        # print the returned path to the console
        li      $v0, 2
        li      $a0, 1
        la      $a1, buf
        li      $a2, 4
        syscall
        halt
        .data
buf:    .space 64
`)
	p.Exec(im)
	// Patch the `lui $a0` immediate (the 3rd instruction: li is a
	// two-instruction pseudo) to the file's slot upper half.
	w, _ := p.AS.LoadWord(layout.TextBase + 8)
	if isa.Decode(w).Op != isa.OpLUI {
		t.Fatalf("instruction at +8 is not lui: %s", isa.Disassemble(w, 0))
	}
	p.AS.StoreWord(layout.TextBase+8, isa.PatchImm16(w, uint16(st.Addr>>16)))
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Stdout.String(), "/seg") {
		t.Fatalf("console output %q does not contain path", p.Stdout.String())
	}
}

func TestSyscallErrno(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 4
        la      $a0, path
        li      $a1, 0
        syscall
        halt
        .data
path:   .asciiz "/no/such/file"
`)
	p.Exec(im)
	k.Run(p, 100)
	if p.CPU.Regs[isa.RegV1] != Enoent {
		t.Fatalf("errno = %d, want ENOENT", p.CPU.Regs[isa.RegV1])
	}
}

func TestForkSemantics(t *testing.T) {
	// The E-fork experiment: private segments are copied, public segments
	// shared.
	k := New()
	parent := k.Spawn(0)
	// Private page.
	if err := parent.AS.MapAnon(layout.PrivDataBase, 4096, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	parent.AS.StoreWord(layout.PrivDataBase, 111)
	// Public segment: a mapped shared file.
	k.FS.Create("/pub", shmfs.DefaultFileMode, 0)
	st, err := k.MapSharedFile(parent, "/pub", 4096, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	parent.AS.StoreWord(st.Addr, 222)

	child, err := k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	// Child sees both values initially.
	if v, _ := child.AS.LoadWord(layout.PrivDataBase); v != 111 {
		t.Fatalf("child private = %d", v)
	}
	if v, _ := child.AS.LoadWord(st.Addr); v != 222 {
		t.Fatalf("child public = %d", v)
	}
	// Child writes diverge in private, propagate in public.
	child.AS.StoreWord(layout.PrivDataBase, 333)
	child.AS.StoreWord(st.Addr, 444)
	if v, _ := parent.AS.LoadWord(layout.PrivDataBase); v != 111 {
		t.Fatalf("parent private clobbered: %d", v)
	}
	if v, _ := parent.AS.LoadWord(st.Addr); v != 444 {
		t.Fatalf("parent public = %d, want child's 444", v)
	}
	// And the write is visible through the file interface too.
	buf := make([]byte, 4)
	k.FS.ReadAt("/pub", 0, buf, 0)
	if got := uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]); got != 444 {
		t.Fatalf("file sees %d", got)
	}
	if child.PPID != parent.PID {
		t.Fatalf("ppid = %d", child.PPID)
	}
	if child.PID == parent.PID {
		t.Fatal("pid not unique")
	}
}

func TestForkCopiesEnv(t *testing.T) {
	k := New()
	parent := k.Spawn(0)
	parent.Setenv("LD_LIBRARY_PATH", "/tmp/app.1")
	child, _ := k.Fork(parent)
	if child.Getenv("LD_LIBRARY_PATH") != "/tmp/app.1" {
		t.Fatal("env not inherited")
	}
	child.Setenv("LD_LIBRARY_PATH", "/other")
	if parent.Getenv("LD_LIBRARY_PATH") != "/tmp/app.1" {
		t.Fatal("child env write leaked to parent")
	}
}

// testRuntime is a Runtime for tests that need only a fault or a break
// handler; a nil one declines.
type testRuntime struct {
	fault FaultHandler
	brk   func(p *Process) error
}

func (r *testRuntime) HandleFault(p *Process, f *addrspace.Fault) error {
	if r.fault == nil {
		return ErrUnhandled
	}
	return r.fault(p, f)
}

func (r *testRuntime) HandleBreak(p *Process) error {
	if r.brk == nil {
		return fmt.Errorf("test runtime: break at 0x%08x", p.CPU.PC)
	}
	return r.brk(p)
}

func (r *testRuntime) LinkByPath(string, bool) (uint32, error) {
	return 0, errors.New("test runtime: no linker")
}

func (r *testRuntime) SymbolAddr(string) (uint32, bool) { return 0, false }

func (r *testRuntime) Fork(*Process) Runtime { return r }

func TestFaultHandlerChaining(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	var hemlockCalled, userCalled int
	p.Runtime = &testRuntime{fault: func(pr *Process, f *addrspace.Fault) error {
		hemlockCalled++
		if f.Addr == 0x30000000 {
			// Resolve by mapping.
			return pr.AS.MapAnon(0x30000000, 4096, addrspace.ProtRW)
		}
		return ErrUnhandled
	}}
	p.UserHandler = func(pr *Process, f *addrspace.Fault) error {
		userCalled++
		if f.Addr == 0x20000000 {
			return pr.AS.MapAnon(0x20000000, 4096, addrspace.ProtRW)
		}
		return ErrUnhandled
	}
	// Hemlock handler resolves the first.
	if err := p.StoreWord(0x30000000, 1); err != nil {
		t.Fatal(err)
	}
	if hemlockCalled != 1 || userCalled != 0 {
		t.Fatalf("calls: hemlock=%d user=%d", hemlockCalled, userCalled)
	}
	// Hemlock declines, user handler resolves.
	if err := p.StoreWord(0x20000000, 1); err != nil {
		t.Fatal(err)
	}
	if userCalled != 1 {
		t.Fatalf("user handler calls = %d", userCalled)
	}
	// Nobody handles: segfault surfaces.
	err := p.StoreWord(0x6FFFF000, 1)
	if !errors.Is(err, ErrUnhandled) {
		t.Fatalf("want ErrUnhandled, got %v", err)
	}
	if n := k.Obs.R.Counter("kern.faults").Value(); n != 3 {
		t.Fatalf("kern.faults = %d, want 3", n)
	}
}

func TestMapSharedFileAliasing(t *testing.T) {
	k := New()
	k.FS.Create("/shared.seg", shmfs.DefaultFileMode, 0)
	k.FS.WriteAt("/shared.seg", 0, []byte{0, 0, 0, 9}, 0)
	p1 := k.Spawn(0)
	p2 := k.Spawn(0)
	st1, err := k.MapSharedFile(p1, "/shared.seg", 4096, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := k.MapSharedFile(p2, "/shared.seg", 4096, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	// Same virtual address in both processes (the global mapping).
	if st1.Addr != st2.Addr {
		t.Fatalf("addresses differ: 0x%x vs 0x%x", st1.Addr, st2.Addr)
	}
	if v, _ := p1.AS.LoadWord(st1.Addr); v != 9 {
		t.Fatalf("initial contents = %d", v)
	}
	p1.AS.StoreWord(st1.Addr, 77)
	if v, _ := p2.AS.LoadWord(st2.Addr); v != 77 {
		t.Fatalf("p2 sees %d", v)
	}
	// Idempotent remap.
	if _, err := k.MapSharedFile(p1, "/shared.seg", 4096, addrspace.ProtRW); err != nil {
		t.Fatalf("remap: %v", err)
	}
}

// TestMapSharedFileMapsGrownPages: a file that grows after a process
// mapped it reaches the process when it maps the file again, as it does a
// process spawned afterwards; a load past the file's current pages still
// faults.
func TestMapSharedFileMapsGrownPages(t *testing.T) {
	k := New()
	k.FS.Create("/grow", shmfs.DefaultFileMode, 0)
	k.FS.WriteAt("/grow", 0, []byte{0, 0, 0, 7}, 0) // one page
	p := k.Spawn(0)
	st, err := k.MapSharedFile(p, "/grow", 0, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.WriteAt("/grow", 2*4096, []byte{0, 0, 0, 9}, 0) // three pages
	fresh := k.Spawn(0)
	if _, err := k.MapSharedFile(fresh, "/grow", 0, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	if v, err := fresh.AS.LoadWord(st.Addr + 2*4096); err != nil || v != 9 {
		t.Fatalf("fresh process: third page reads %d, %v; want 9", v, err)
	}
	if _, err := k.MapSharedFile(p, "/grow", 0, addrspace.ProtRW); err != nil {
		t.Fatalf("mapping the grown file again: %v", err)
	}
	if v, err := p.AS.LoadWord(st.Addr + 2*4096); err != nil || v != 9 {
		t.Fatalf("third page reads %d, %v; want 9", v, err)
	}
	if v, err := p.AS.LoadWord(st.Addr); err != nil || v != 7 {
		t.Fatalf("first page reads %d, %v; want 7", v, err)
	}
	if _, err := p.AS.LoadWord(st.Addr + 3*4096); err == nil {
		t.Fatal("a load past the file's three pages succeeded")
	}
}

// TestForkedChildMapsGrownFile: a child inherits how much of each shared
// file its parent had mapped, so mapping the file after it grew maps just
// the new pages.
func TestForkedChildMapsGrownFile(t *testing.T) {
	k := New()
	k.FS.Create("/grow", shmfs.DefaultFileMode, 0)
	k.FS.WriteAt("/grow", 0, []byte{0, 0, 0, 7}, 0)
	parent := k.Spawn(0)
	st, err := k.MapSharedFile(parent, "/grow", 0, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(parent)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.WriteAt("/grow", 2*4096, []byte{0, 0, 0, 9}, 0)
	if _, err := k.MapSharedFile(child, "/grow", 0, addrspace.ProtRW); err != nil {
		t.Fatalf("child mapping the grown file: %v", err)
	}
	if v, err := child.AS.LoadWord(st.Addr + 2*4096); err != nil || v != 9 {
		t.Fatalf("child: third page reads %d, %v; want 9", v, err)
	}
	if v, err := child.AS.LoadWord(st.Addr); err != nil || v != 7 {
		t.Fatalf("child: first page reads %d, %v; want 7", v, err)
	}
}

func TestMapSharedFilePermissions(t *testing.T) {
	k := New()
	k.FS.Create("/private.seg", shmfs.ModeOwnerRead|shmfs.ModeOwnerWrite, 100)
	intruder := k.Spawn(200)
	if _, err := k.MapSharedFile(intruder, "/private.seg", 4096, addrspace.ProtRW); !errors.Is(err, shmfs.ErrPerm) {
		t.Fatalf("want ErrPerm, got %v", err)
	}
	owner := k.Spawn(100)
	if _, err := k.MapSharedFile(owner, "/private.seg", 4096, addrspace.ProtRW); err != nil {
		t.Fatalf("owner map failed: %v", err)
	}
}

func TestSbrk(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	p.brk = layout.PrivDataBase
	old, err := p.Sbrk(10000)
	if err != nil || old != layout.PrivDataBase {
		t.Fatalf("sbrk: %x %v", old, err)
	}
	if err := p.AS.StoreWord(layout.PrivDataBase+8192, 5); err != nil {
		t.Fatalf("heap not mapped: %v", err)
	}
}

func TestAllocPrivateDistinct(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	a, err := p.AllocPrivate(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AllocPrivate(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || b <= a {
		t.Fatalf("allocations overlap: 0x%x 0x%x", a, b)
	}
	if !layout.Private(a) {
		t.Fatalf("private allocation at public address 0x%x", a)
	}
}

func TestExitReleasesProcess(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	pid := p.PID
	p.Exit(3)
	if _, ok := k.Process(pid); ok {
		t.Fatal("exited process still in table")
	}
	if err := p.Exec(&objfile.Image{}); !errors.Is(err, ErrExited) {
		t.Fatalf("exec after exit: %v", err)
	}
	// Double exit is a no-op.
	p.Exit(4)
	if p.ExitCode != 3 {
		t.Fatalf("exit code changed to %d", p.ExitCode)
	}
}

func TestRunFaultRestartInVM(t *testing.T) {
	// A VM program stores through an unmapped shared address; the
	// process's handler maps the page; the kernel restarts the store.
	k := New()
	p := k.Spawn(0)
	mapped := false
	p.Runtime = &testRuntime{fault: func(pr *Process, f *addrspace.Fault) error {
		if layout.Public(f.Addr) && !mapped {
			mapped = true
			return pr.AS.MapAnon(addrspace.PageBase(f.Addr), 4096, addrspace.ProtRW)
		}
		return ErrUnhandled
	}}
	im := buildImage(t, `
        .text
        li      $t0, 0x30000000
        li      $t1, 55
        sw      $t1, 0($t0)
        lw      $t2, 0($t0)
        halt
`)
	p.Exec(im)
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Fatal("handler never ran")
	}
}

func TestCStringTermination(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	p.AS.MapAnon(0x1000, 4096, addrspace.ProtRW)
	p.AS.Write(0x1000, []byte("abc\x00def"))
	s, err := p.CString(0x1000)
	if err != nil || s != "abc" {
		t.Fatalf("CString = %q, %v", s, err)
	}
}

func TestProcessesList(t *testing.T) {
	k := New()
	a := k.Spawn(0)
	b := k.Spawn(0)
	if got := k.Processes(); len(got) != 2 || got[0].PID != a.PID || got[1].PID != b.PID {
		t.Fatalf("processes: %v", got)
	}
	a.Exit(0)
	if got := k.Processes(); len(got) != 1 || got[0].PID != b.PID {
		t.Fatalf("after exit: %v", got)
	}
}
