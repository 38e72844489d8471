package kern

import (
	"errors"
	"strings"
	"testing"

	"hemlock/internal/isa"
	"hemlock/internal/layout"
	"hemlock/internal/linker"
	"hemlock/internal/objfile"
)

// callTestImage: main never runs; the test calls the exported functions
// directly on the parked process.
const callTestSrc = `
        .text
        .globl  main
main:   li      $v0, 0
        jr      $ra
        .globl  add2
add2:   addu    $v0, $a0, $a1
        jr      $ra
        .globl  bump
bump:   la      $t0, hits
        lw      $v0, 0($t0)
        addiu   $v0, $v0, 1
        sw      $v0, 0($t0)
        jr      $ra
        .globl  die
die:    li      $v0, 1
        li      $a0, 9
        syscall
        .data
        .globl  hits
hits:   .word   0
`

// buildImageSyms is buildImage plus the placed symbol table, so tests can
// look up exported function addresses.
func buildImageSyms(t *testing.T, src string) *objfile.Image {
	t.Helper()
	o, err := isa.Assemble("prog.s", src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := linker.Place(o, layout.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := pl.Image()
	pending, err := pl.RelocateInternal(&linker.BytesPatcher{Base: layout.TextBase, B: img})
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("test image has unresolved refs: %v", pending)
	}
	dataOff := pl.DataAddr() - pl.Base
	return &objfile.Image{
		Name:     "a.out",
		Entry:    layout.TextBase,
		TextBase: layout.TextBase,
		Text:     img[:dataOff],
		DataBase: layout.TextBase + dataOff,
		Data:     img[dataOff:],
		BssBase:  layout.TextBase + uint32(len(img)),
		BssSize:  pl.Size() - uint32(len(img)),
		Symbols:  pl.Exports(),
	}
}

func callTestProc(t *testing.T) (*Kernel, *Process, func(string) uint32) {
	t.Helper()
	k := New()
	p := k.Spawn(0)
	im := buildImageSyms(t, callTestSrc)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) uint32 {
		addr, ok := im.Lookup(name)
		if !ok {
			t.Fatalf("symbol %s not in image", name)
		}
		return addr
	}
	return k, p, lookup
}

func TestCallFunctionReturnsValue(t *testing.T) {
	k, p, lookup := callTestProc(t)
	ret, steps, err := k.CallFunction(p, lookup("add2"), [4]uint32{40, 2}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Fatalf("add2(40,2) = %d", ret)
	}
	if steps == 0 {
		t.Fatal("no steps retired")
	}
}

func TestCallFunctionRepeatedAndStateRestored(t *testing.T) {
	k, p, lookup := callTestProc(t)
	pc, ra := p.CPU.PC, p.CPU.Regs[31]
	for i := 1; i <= 5; i++ {
		ret, _, err := k.CallFunction(p, lookup("bump"), [4]uint32{}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if ret != uint32(i) {
			t.Fatalf("bump #%d = %d", i, ret)
		}
	}
	if p.CPU.PC != pc || p.CPU.Regs[31] != ra {
		t.Fatalf("PC/$ra not restored: pc=0x%08x ra=0x%08x", p.CPU.PC, p.CPU.Regs[31])
	}
	if p.Exited {
		t.Fatal("parked process exited")
	}
}

func TestCallFunctionCalleeExits(t *testing.T) {
	k, p, lookup := callTestProc(t)
	_, _, err := k.CallFunction(p, lookup("die"), [4]uint32{}, 1000)
	if !errors.Is(err, ErrCallExited) {
		t.Fatalf("err = %v, want ErrCallExited", err)
	}
	if !p.Exited || p.ExitCode != 9 {
		t.Fatalf("exited=%v code=%d", p.Exited, p.ExitCode)
	}
	// A call on the dead process fails cleanly.
	if _, _, err := k.CallFunction(p, lookup("add2"), [4]uint32{}, 1000); !errors.Is(err, ErrExited) {
		t.Fatalf("call on exited process: %v", err)
	}
}

func TestCallFunctionBudgetExceeded(t *testing.T) {
	k, p, _ := callTestProc(t)
	// Call main's address with a budget of 1: the first instruction
	// retires and the step budget trips before the function can return.
	addr := p.CPU.PC
	_, _, err := k.CallFunction(p, addr, [4]uint32{}, 1)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want step-budget error", err)
	}
}

// TestCallFunctionChainsExistingBreakHandler: during a call, a BREAK other
// than the return stub's still goes to the process's runtime.
func TestCallFunctionChainsExistingBreakHandler(t *testing.T) {
	k, p, lookup := callTestProc(t)
	fired := false
	p.Runtime = &testRuntime{brk: func(pp *Process) error {
		fired = true
		// Resume past the break (PC already advanced).
		return nil
	}}
	// Plant a break at the start of add2: the runtime's break handler must
	// see it and resume; execution continues with the following
	// instructions.
	addr := lookup("add2")
	if err := p.AS.StoreWord(addr, isa.EncodeR(isa.FnBREAK, 0, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	ret, _, err := k.CallFunction(p, addr, [4]uint32{7, 8}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("runtime's break handler not called")
	}
	// The overwritten addu never ran; $v0 is whatever the call left (0 from
	// the break-resume path running jr $ra with $v0 unset). The important
	// assertions are the chaining and the clean return.
	_ = ret
}

// TestCallFunctionWarmMakesNoAllocations: once the stub page is mapped and
// the callee's blocks are built, a call allocates nothing — the run loop
// recognises the return stub itself.
func TestCallFunctionWarmMakesNoAllocations(t *testing.T) {
	k, p, lookup := callTestProc(t)
	add2 := lookup("add2")
	call := func() {
		if ret, _, err := k.CallFunction(p, add2, [4]uint32{40, 2}, 1000); err != nil || ret != 42 {
			t.Fatalf("add2(40,2) = %d, %v", ret, err)
		}
	}
	call()
	if n := testing.AllocsPerRun(100, call); n != 0 {
		t.Fatalf("warm CallFunction makes %.1f allocations, want 0", n)
	}
}
