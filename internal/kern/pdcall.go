package kern

// Protection-domain switching: the synchronous-communication extension the
// paper announces in section 6 ("We plan to add a protection-domain
// switching system call to our modified IRIX kernel to support synchronous
// communication across protection boundaries in Hemlock"). The intended
// use is fast RPC: bulk arguments live in shared segments — the same
// segment, at the same address, in caller and callee — so a call passes
// only a register argument (typically a pointer into a shared segment) and
// crosses into the server's protection domain without marshalling or
// copying.
//
// A server process registers an entry point (a VM address, or a hosted Go
// handler standing in for one). A client's pd_call traps into the kernel,
// which switches to the server's domain and calls the entry (call, in
// call.go) with the argument in $a0 and the client's pid in $a1. The call
// returns the server's $a0 when the entry executes pd_return (or its $v0
// when it returns through $ra), and the server's architectural state is
// restored afterwards.

import (
	"errors"
	"fmt"
)

// PD system call numbers (continuing the table in syscall.go).
const (
	SysPDServe  = 20 // pd_serve(entry) -> service id
	SysPDCall   = 21 // pd_call(id, arg) -> result
	SysPDReturn = 22 // pd_return(result)   [valid only inside a service entry]
)

// Errors.
var (
	ErrNoService   = errors.New("kern: no such protection-domain service")
	ErrPDReentered = errors.New("kern: protection-domain service re-entered")
	ErrNotInPDCall = errors.New("kern: pd_return outside a service call")
)

// PDHandler is a hosted service body: the Go-level stand-in for a VM entry
// point, used by examples and the svc package. It runs in the server's
// protection domain (its address space, through p).
type PDHandler func(server *Process, arg uint32) (uint32, error)

// pdService is one registered service.
type pdService struct {
	id     int
	server *Process
	entry  uint32    // VM entry point (when handler is nil)
	hosted PDHandler // hosted handler (when non-nil)
	busy   bool
}

// RegisterPDService registers a hosted service and returns its id.
func (k *Kernel) RegisterPDService(server *Process, h PDHandler) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	id := len(k.pdServices) + 1
	k.pdServices = append(k.pdServices, &pdService{id: id, server: server, hosted: h})
	return id
}

// registerPDEntry registers a VM entry point service (the pd_serve path).
func (k *Kernel) registerPDEntry(server *Process, entry uint32) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	id := len(k.pdServices) + 1
	k.pdServices = append(k.pdServices, &pdService{id: id, server: server, entry: entry})
	return id
}

func (k *Kernel) pdService(id int) (*pdService, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if id < 1 || id > len(k.pdServices) {
		return nil, fmt.Errorf("%w: id %d", ErrNoService, id)
	}
	return k.pdServices[id-1], nil
}

// pdCallBudget bounds a service invocation.
const pdCallBudget = 1_000_000

// PDCall performs a synchronous call into the service from client. The
// client's identity travels with the call (services may check it); the
// argument is a single register, with bulk data expected to live in shared
// segments.
func (k *Kernel) PDCall(client *Process, id int, arg uint32) (uint32, error) {
	svc, err := k.pdService(id)
	if err != nil {
		return 0, err
	}
	if svc.server.Exited {
		return 0, fmt.Errorf("%w: server pid %d exited", ErrNoService, svc.server.PID)
	}
	if svc.busy {
		return 0, fmt.Errorf("%w: service %d", ErrPDReentered, id)
	}
	svc.busy = true
	defer func() { svc.busy = false }()

	if svc.hosted != nil {
		return svc.hosted(svc.server, arg)
	}

	// Switch into the server's domain: save its architectural state, call
	// the entry, and restore the state afterwards. The server keeps its
	// D-TLB and translated blocks: the space is the same, and every entry
	// still checks the space's generation and each frame's store version.
	server := svc.server
	saved := server.CPU.ArchState()
	defer server.CPU.SetArchState(saved)
	ret, _, err := k.call(server, svc.entry, [4]uint32{arg, uint32(client.PID)}, pdCallBudget)
	if err != nil {
		return 0, fmt.Errorf("kern: pd service %d: %w", id, err)
	}
	return ret, nil
}
