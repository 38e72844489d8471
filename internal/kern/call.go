package kern

// Synchronous calls into a process: CallFunction, which the serve daemon
// uses to invoke an exported public function on a parked process without
// running the program's main, and the protection-domain calls of
// pdcall.go. Both go through call. The kernel plants a one-page "call
// return" stub (a single BREAK instruction) in the process's private
// region, points $ra at it, sets the argument registers, and runs the
// process from the target through Kernel.Run. The run loop (runSlice) ends
// the innermost call when the callee returns to the stub's BREAK or
// executes pd_return; the call's result is read out of $v0.
//
// The target address may be anything the dynamic linker can reach: a
// function in the image, a jump-table (PLT) stub — whose first call traps
// and patches exactly as a compiled call would — or a symbol in a public
// module that has not even been mapped yet, in which case the first fetch
// faults and ldl links the module before the first instruction retires.
// Every BREAK other than the stub's still goes to the process's Runtime.

import (
	"errors"
	"fmt"

	"hemlock/internal/isa"
	"hemlock/internal/mem"
)

// ErrCallExited reports that the called function terminated the process
// (an exit syscall or HALT) instead of returning to its caller.
var ErrCallExited = errors.New("kern: called function exited the process")

// ensureCallStub lazily maps the per-process return stub page and returns
// the stub address.
func (p *Process) ensureCallStub() (uint32, error) {
	if p.callStub != 0 {
		return p.callStub, nil
	}
	base, err := p.AllocPrivate(mem.PageSize)
	if err != nil {
		return 0, fmt.Errorf("kern: mapping call stub: %w", err)
	}
	if err := p.AS.StoreWord(base, isa.EncodeR(isa.FnBREAK, 0, 0, 0, 0)); err != nil {
		return 0, err
	}
	p.callStub = base
	return base, nil
}

// call runs p from entry as a subroutine, with args in $a0-$a3 and $ra at
// the return stub, until the callee returns (result: $v0), the process
// exits (ErrCallExited) or budget steps elapse. It leaves the rest of the
// CPU state as the callee left it; the callers restore what they promise
// to keep.
func (k *Kernel) call(p *Process, entry uint32, args [4]uint32, budget uint64) (uint32, uint64, error) {
	stub, err := p.ensureCallStub()
	if err != nil {
		return 0, 0, err
	}
	for i, a := range args {
		p.CPU.Regs[isa.RegA0+i] = a
	}
	p.CPU.Regs[isa.RegRA] = stub
	p.CPU.PC = entry
	p.calls++
	steps, err := k.Run(p, budget)
	p.calls--
	switch {
	case err != nil:
		return 0, steps, err
	case p.Exited:
		return 0, steps, fmt.Errorf("%w (exit %d)", ErrCallExited, p.ExitCode)
	}
	return p.CPU.Regs[isa.RegV0], steps, nil
}

// CallFunction invokes target as a subroutine on a (parked) process: args
// land in $a0-$a3, $ra is pointed at the return stub, and the CPU runs
// from target until the callee returns (result: $v0), the process exits
// (ErrCallExited), or maxSteps elapse. PC and $ra are restored afterwards,
// so a resident process can serve any number of calls.
func (k *Kernel) CallFunction(p *Process, target uint32, args [4]uint32, maxSteps uint64) (ret uint32, steps uint64, err error) {
	if p.Exited {
		return 0, 0, ErrExited
	}
	savedPC, savedRA := p.CPU.PC, p.CPU.Regs[isa.RegRA]
	ret, steps, err = k.call(p, target, args, maxSteps)
	if !p.Exited {
		p.CPU.PC, p.CPU.Regs[isa.RegRA] = savedPC, savedRA
	}
	return ret, steps, err
}
