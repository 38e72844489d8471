package vm_test

// Semantic corners of macro-op fusion. Fusion is an encoding of the
// sequential semantics, never a change to them: each result asserted here
// is what Step computes one instruction at a time.

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

func runHalt(t *testing.T, c *vm.CPU) {
	t.Helper()
	ev, err := c.RunBatch(1000)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v pc=0x%08x, want halt", ev, err, c.PC)
	}
}

// TestFuseLUIORIDistinctRegs: the composed constant lands in the ORI's
// destination while the LUI's destination keeps the high half — fusion must
// retire both architectural writes.
func TestFuseLUIORIDistinctRegs(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 8, 0, 0x1234), // lui t0, 0x1234
		isa.EncodeI(isa.OpORI, 9, 8, 0x5678), // ori t1, t0, 0x5678
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	runHalt(t, c)
	if c.Regs[8] != 0x12340000 || c.Regs[9] != 0x12345678 {
		t.Fatalf("t0=0x%08x t1=0x%08x, want high half and composed constant", c.Regs[8], c.Regs[9])
	}
	if c.CacheStats().FusedOps == 0 {
		t.Fatal("lui/ori pair not fused")
	}
}

// TestFuseZeroDestNotFused: lui into $zero writes nothing, so a following
// ori reading $zero must see zero, not the discarded high half. The fusion
// guard refuses the pair outright.
func TestFuseZeroDestNotFused(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 0, 0, 0x1234), // lui $zero, 0x1234
		isa.EncodeI(isa.OpORI, 9, 0, 5),      // ori t1, $zero, 5
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	runHalt(t, c)
	if c.Regs[0] != 0 {
		t.Fatalf("$zero = 0x%08x", c.Regs[0])
	}
	if c.Regs[9] != 5 {
		t.Fatalf("t1 = 0x%08x, want 5 ($zero misread as the LUI value?)", c.Regs[9])
	}
	if c.CacheStats().FusedOps != 0 {
		t.Fatal("pair with a $zero LUI destination must not fuse")
	}
}

// TestFuseLUISWStoresOwnRegister: when the store's source IS the register
// the LUI just wrote (sw t0, off(t0)), the stored value is the fresh high
// half — sequential aliasing semantics the fused op must reproduce.
func TestFuseLUISWStoresOwnRegister(t *testing.T) {
	const data = uint32(0x00010000) // hi=1, lo=0: composed by the pair
	as := mapPages(t, map[uint32]addrspace.Prot{
		benchTextBase: addrspace.ProtRWX,
		data:          addrspace.ProtRW,
	})
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 8, 0, 1), // lui t0, 1       (t0 = 0x00010000)
		isa.EncodeI(isa.OpSW, 8, 8, 0),  // sw t0, 0(t0)
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	runHalt(t, c)
	got, err := as.LoadWord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != data {
		t.Fatalf("stored 0x%08x, want the LUI value 0x%08x", got, data)
	}
	if c.CacheStats().FusedOps == 0 {
		t.Fatal("lui/sw pair not fused")
	}
}

// TestFuseTrampolineCall: the three-word ldl call trampoline
// (lui/ori/jalr) fuses into one op that must still produce all three
// architectural writes — target register, link register — and land on the
// target.
func TestFuseTrampolineCall(t *testing.T) {
	const target = benchTextBase + 0x40
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 9, 0, 0),              // lui t1, hi(target)
		isa.EncodeI(isa.OpORI, 9, 9, uint16(target)), // ori t1, t1, lo(target)
		isa.EncodeR(isa.FnJALR, isa.RegRA, 9, 0, 0),  // jalr ra, t1
	})
	putCode(t, as, target, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	c := vm.New(as)
	c.PC = benchTextBase
	runHalt(t, c)
	if c.PC != target {
		t.Fatalf("pc = 0x%08x, want target 0x%08x", c.PC, target)
	}
	if c.Regs[isa.RegRA] != benchTextBase+12 {
		t.Fatalf("ra = 0x%08x, want return address 0x%08x", c.Regs[isa.RegRA], benchTextBase+12)
	}
	if c.Regs[9] != target {
		t.Fatalf("t1 = 0x%08x, want the composed target", c.Regs[9])
	}
	if c.Steps != 4 {
		t.Fatalf("steps = %d, want 4 (three trampoline words + halt)", c.Steps)
	}
	if c.CacheStats().FusedOps == 0 {
		t.Fatal("call trampoline not fused")
	}
}

// TestFuseLUIAtPageEndNoOverrun: a LUI in the last word of a mapped page
// cannot fuse (its partner lives on the next page) and must not make the
// builder read past the mapping. Execution retires the LUI, then faults
// fetching the unmapped next page with exact state.
func TestFuseLUIAtPageEndNoOverrun(t *testing.T) {
	as := mapPages(t, map[uint32]addrspace.Prot{benchTextBase: addrspace.ProtRWX})
	last := uint32(benchTextBase + mem.PageSize - 4)
	putCode(t, as, last, []uint32{isa.EncodeI(isa.OpLUI, 8, 0, 0x1234)})
	c := vm.New(as)
	c.PC = last
	_, err := c.RunBatch(10)
	f, ok := vm.FaultOf(err)
	if !ok || !f.Unmapped || f.Access != addrspace.AccessExec {
		t.Fatalf("want unmapped exec fault past the page, got %v", err)
	}
	if c.Steps != 1 || c.Regs[8] != 0x12340000 {
		t.Fatalf("steps=%d t0=0x%08x, want the LUI retired before the fault", c.Steps, c.Regs[8])
	}
	if c.PC != benchTextBase+mem.PageSize {
		t.Fatalf("pc = 0x%08x, want the faulting fetch address", c.PC)
	}
}

// TestFuseLUILWFaultRetiresPrefix: when the fused pair's load faults, the
// LUI half has still retired — PC stops on the LW with the high half
// written and exactly one step counted, so the trap is restartable at the
// right instruction.
func TestFuseLUILWFaultRetiresPrefix(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 8, 0, 0x4000), // lui t0, 0x4000 (unmapped region)
		isa.EncodeI(isa.OpLW, 9, 8, 0),       // lw t1, 0(t0)   (fuses, then faults)
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[9] = 0xAAAAAAAA
	_, err := c.RunBatch(10)
	f, ok := vm.FaultOf(err)
	if !ok || !f.Unmapped || f.Access != addrspace.AccessRead {
		t.Fatalf("want unmapped read fault, got %v", err)
	}
	if c.PC != benchTextBase+4 {
		t.Fatalf("pc = 0x%08x, want the LW (restartable trap)", c.PC)
	}
	if c.Steps != 1 {
		t.Fatalf("steps = %d, want 1 (only the LUI retired)", c.Steps)
	}
	if c.Regs[8] != 0x40000000 {
		t.Fatalf("t0 = 0x%08x, want the retired LUI value", c.Regs[8])
	}
	if c.Regs[9] != 0xAAAAAAAA {
		t.Fatal("faulting LW wrote its destination")
	}
}
