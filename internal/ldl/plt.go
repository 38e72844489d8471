package ldl

// Jump-table (PLT) lazy linking: the SunOS-style optimisation the paper
// plans to adopt — "modules first accessed by calling a (named) function
// will be linked without fault-handling overhead".
//
// lds routes calls to unknown functions through stubs in the image. A stub
// is a BREAK instruction followed by its index; the first call traps here,
// the target is resolved with the usual root scoping, and the stub is
// patched into a direct trampoline (lui/ori/jr $at), so later calls pay
// three extra instructions and no traps at all. Unlike the fault-driven
// path, no page protections are flipped and the caller's argument
// registers are untouched — $at is the only register the mechanism uses,
// and it is reserved for exactly this.

import (
	"fmt"

	"hemlock/internal/isa"
	"hemlock/internal/kern"
	"hemlock/internal/obsv"
)

// ErrUndefinedCall is returned when a PLT stub fires for a symbol nothing
// defines: the deferred error the paper accepts as the price of not
// insisting that dynamically-linked modules exist at static link time.
type ErrUndefinedCall struct {
	Name string
	Stub uint32
}

func (e *ErrUndefinedCall) Error() string {
	return fmt.Sprintf("ldl: call to undefined function %q (stub 0x%08x)", e.Name, e.Stub)
}

// installPLT registers the break handler when the image carries stubs.
func (pr *Proc) installPLT() {
	if len(pr.Image.PLT) == 0 {
		return
	}
	sp := pr.W.tracer().Begin("ldl", "plt_setup", pr.P.PID, pr.Image.Name)
	pr.plt = map[uint32]string{}
	for _, s := range pr.Image.PLT {
		pr.plt[s.Addr] = s.Name
	}
	pr.P.BreakHandler = pr.handleBreak
	sp.End(uint64(len(pr.Image.PLT)))
}

// handleBreak resolves the stub whose BREAK just trapped. The CPU has
// advanced PC past the break, so the stub base is PC-4.
func (pr *Proc) handleBreak(p *kern.Process) error {
	stub := p.CPU.PC - 4
	name, ok := pr.plt[stub]
	if !ok {
		return fmt.Errorf("ldl: break at 0x%08x is not a jump-table stub", p.CPU.PC)
	}
	target, found := pr.resolveScoped(pr.root, name)
	if !found {
		return &ErrUndefinedCall{Name: name, Stub: stub}
	}
	// Patch the stub into a direct trampoline and restart it. The stub's
	// 12 bytes hold exactly the lui/ori/jr fragment.
	for i, w := range isa.TrampolineWords(target, false) {
		if err := p.AS.StoreWord(stub+uint32(4*i), w); err != nil {
			return err
		}
	}
	p.CPU.PC = stub
	pr.W.mu.Lock()
	pr.W.Stats.PLTResolves++
	pr.W.ctrPLT.Inc()
	pr.W.mu.Unlock()
	pr.W.emit(obsv.Event{Name: "plt_resolve", PID: p.PID, Mod: name, Addr: stub, Val: uint64(target)})
	return nil
}
