package kern

import (
	"errors"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

// pdAddServerSrc registers a service that returns its argument plus 100,
// then parks.
const pdAddServerSrc = `
        .text
        li      $v0, 20         # pd_serve(entry)
        la      $a0, entry
        syscall
park:   b       park
entry:  addiu   $a0, $a0, 100
        li      $v0, 22         # pd_return(result in $a0)
        syscall
`

// pdVMServer execs src in a new server process and steps it through its
// first syscall, the pd_serve that registers its entry, returning the
// server and the service id.
func pdVMServer(t *testing.T, k *Kernel, src string) (*Process, int) {
	t.Helper()
	server := k.Spawn(0)
	if err := server.Exec(buildImage(t, src)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ev, err := server.CPU.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ev == vm.EventSyscall {
			if err := k.Syscall(server); err != nil {
				t.Fatal(err)
			}
			return server, int(server.CPU.Regs[isa.RegV0])
		}
	}
	t.Fatal("server never called pd_serve")
	return nil, 0
}

func TestPDCallHosted(t *testing.T) {
	k := New()
	server := k.Spawn(0)
	// Server state: a private counter in its own address space.
	if err := server.AS.MapAnon(0x10000000, 4096, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	id := k.RegisterPDService(server, func(s *Process, arg uint32) (uint32, error) {
		cur, err := s.LoadWord(0x10000000)
		if err != nil {
			return 0, err
		}
		if err := s.StoreWord(0x10000000, cur+arg); err != nil {
			return 0, err
		}
		return cur + arg, nil
	})
	client := k.Spawn(0)
	got, err := k.PDCall(client, id, 5)
	if err != nil || got != 5 {
		t.Fatalf("call 1: %d, %v", got, err)
	}
	got, err = k.PDCall(client, id, 7)
	if err != nil || got != 12 {
		t.Fatalf("call 2: %d, %v", got, err)
	}
	// The client cannot see the server's private state directly.
	if _, err := client.AS.LoadWord(0x10000000); err == nil {
		t.Fatal("client read server-private memory")
	}
}

func TestPDCallSharedSegmentArgument(t *testing.T) {
	// The intended pattern: bulk data lives in a shared segment mapped in
	// both domains at the same address; the call passes only a pointer.
	k := New()
	k.FS.Create("/srv/box", shmfs.DefaultFileMode, 0)
	k.FS.MkdirAll("/srv", shmfs.DefaultDirMode, 0)
	k.FS.Create("/srv/box2", shmfs.DefaultFileMode, 0)
	server := k.Spawn(0)
	st, err := k.MapSharedFile(server, "/srv/box2", 4096, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	id := k.RegisterPDService(server, func(s *Process, arg uint32) (uint32, error) {
		// arg is a pointer into the shared segment: double the word there.
		v, err := s.LoadWord(arg)
		if err != nil {
			return 0, err
		}
		return 0, s.StoreWord(arg, v*2)
	})
	client := k.Spawn(0)
	if _, err := k.MapSharedFile(client, "/srv/box2", 4096, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	client.AS.StoreWord(st.Addr+16, 21)
	if _, err := k.PDCall(client, id, st.Addr+16); err != nil {
		t.Fatal(err)
	}
	v, _ := client.AS.LoadWord(st.Addr + 16)
	if v != 42 {
		t.Fatalf("shared word = %d, want 42", v)
	}
}

func TestPDCallVMServer(t *testing.T) {
	// A VM server registers its entry via pd_serve and parks; the client
	// calls it via pd_call. The service adds 100 to its argument.
	k := New()
	_, id := pdVMServer(t, k, pdAddServerSrc)
	if id == 0 {
		t.Fatal("pd_serve returned no id")
	}

	client := k.Spawn(0)
	clientImg := buildImage(t, `
        .text
        li      $v0, 21         # pd_call(id, arg)
        li      $a0, 1          # patched below if needed (id is 1)
        li      $a1, 23
        syscall
        move    $a0, $v0        # exit with the result
        li      $v0, 1
        syscall
`)
	if err := client.Exec(clientImg); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(client, 100000); err != nil {
		t.Fatal(err)
	}
	if client.ExitCode != 123 {
		t.Fatalf("pd_call result = %d, want 123", client.ExitCode)
	}
}

func TestPDCallErrors(t *testing.T) {
	k := New()
	client := k.Spawn(0)
	if _, err := k.PDCall(client, 99, 0); !errors.Is(err, ErrNoService) {
		t.Fatalf("bad id: %v", err)
	}
	server := k.Spawn(0)
	id := k.RegisterPDService(server, func(s *Process, arg uint32) (uint32, error) {
		return 0, nil
	})
	server.Exit(0)
	if _, err := k.PDCall(client, id, 0); !errors.Is(err, ErrNoService) {
		t.Fatalf("exited server: %v", err)
	}
	// Reentrancy is rejected.
	srv2 := k.Spawn(0)
	var id2 int
	id2 = k.RegisterPDService(srv2, func(s *Process, arg uint32) (uint32, error) {
		_, err := k.PDCall(client, id2, 0)
		if !errors.Is(err, ErrPDReentered) {
			t.Fatalf("reentry: %v", err)
		}
		return 1, nil
	})
	if v, err := k.PDCall(client, id2, 0); err != nil || v != 1 {
		t.Fatalf("outer call: %d, %v", v, err)
	}
}

func TestPDReturnOutsideCall(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 22
        syscall
        halt
`)
	p.Exec(im)
	k.Run(p, 1000)
	if p.CPU.Regs[isa.RegV1] == Eok {
		t.Fatal("pd_return outside a call succeeded")
	}
}

func TestPDCallVMServerStateRestored(t *testing.T) {
	// The server's CPU state is saved and restored around each call.
	k := New()
	server, id := pdVMServer(t, k, `
        .text
        li      $s0, 777        # distinctive register state
        li      $v0, 20
        la      $a0, entry
        syscall
loopfwd:
        b       loopfwd         # server "parked"
entry:
        li      $s0, 0          # clobber inside the service
        move    $a0, $a1        # return the caller's pid
        li      $v0, 22
        syscall
`)
	client := k.Spawn(0)
	got, err := k.PDCall(client, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != uint32(client.PID) {
		t.Fatalf("service saw pid %d, want %d", got, client.PID)
	}
	if server.CPU.Regs[16] != 777 { // $s0
		t.Fatalf("server register state clobbered: $s0 = %d", server.CPU.Regs[16])
	}
}

// TestPDCallVMServerKeepsBlocks: restoring the server's architectural
// state after a call keeps its translated blocks, so a second call to the
// same service builds none.
func TestPDCallVMServerKeepsBlocks(t *testing.T) {
	k := New()
	_, id := pdVMServer(t, k, pdAddServerSrc)
	client := k.Spawn(0)
	if got, err := k.PDCall(client, id, 5); err != nil || got != 105 {
		t.Fatalf("call 1: %d, %v", got, err)
	}
	builds := k.Obs.R.Counter("vm.block_build")
	before := builds.Value()
	if got, err := k.PDCall(client, id, 7); err != nil || got != 107 {
		t.Fatalf("call 2: %d, %v", got, err)
	}
	if n := builds.Value() - before; n != 0 {
		t.Fatalf("second call built %d blocks, want 0", n)
	}
}

// TestPDCallVMServiceStepsCounted: a VM service runs through Kernel.Run, so
// its steps count in kern.steps, while the server's own step count
// excludes the call.
func TestPDCallVMServiceStepsCounted(t *testing.T) {
	k := New()
	server, id := pdVMServer(t, k, pdAddServerSrc)
	steps := k.Obs.R.Counter("kern.steps")
	before, serverSteps := steps.Value(), server.CPU.Steps
	if got, err := k.PDCall(k.Spawn(0), id, 1); err != nil || got != 101 {
		t.Fatalf("call: %d, %v", got, err)
	}
	if n := steps.Value() - before; n != 4 { // addiu, li (lui+ori), syscall
		t.Fatalf("kern.steps moved by %d over the call, want 4", n)
	}
	if server.CPU.Steps != serverSteps {
		t.Fatalf("server steps %d -> %d across the call, want unchanged", serverSteps, server.CPU.Steps)
	}
}

// TestPDCallVMServiceHaltExitsServer: a VM service that halts ends the
// server, as a halting CallFunction callee does, and the call reports
// ErrCallExited.
func TestPDCallVMServiceHaltExitsServer(t *testing.T) {
	k := New()
	server, id := pdVMServer(t, k, `
        .text
        li      $v0, 20         # pd_serve(entry)
        la      $a0, entry
        syscall
park:   b       park
entry:  halt
`)
	client := k.Spawn(0)
	if _, err := k.PDCall(client, id, 0); !errors.Is(err, ErrCallExited) {
		t.Fatalf("halting service: %v, want ErrCallExited", err)
	}
	if !server.Exited {
		t.Fatal("server still running after its service halted")
	}
	if _, err := k.PDCall(client, id, 0); !errors.Is(err, ErrNoService) {
		t.Fatalf("call after the server exited: %v, want ErrNoService", err)
	}
}
