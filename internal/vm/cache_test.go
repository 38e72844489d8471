package vm_test

// Tests for the D-TLB and the block engine's invalidation: every way a
// cached translation or decoded block can go stale must fault or rebuild
// correctly on the very next access. All of them drive RunBatch, the path
// that owns the caches; Step has none.

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

// newSpace returns a space with a text page at benchTextBase (RWX) and a
// data page at benchDataBase (RW).
func newSpace(t *testing.T) *addrspace.Space {
	t.Helper()
	as := addrspace.New(mem.NewPhysical(0))
	if err := as.MapAnon(benchTextBase, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if err := as.MapAnon(benchDataBase, mem.PageSize, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	return as
}

func putCode(t *testing.T, as *addrspace.Space, base uint32, words []uint32) {
	t.Helper()
	for i, w := range words {
		if err := as.StoreWord(base+uint32(4*i), w); err != nil {
			t.Fatal(err)
		}
	}
}

// runOK retires exactly n instructions through RunBatch.
func runOK(t *testing.T, c *vm.CPU, n uint64) {
	t.Helper()
	before := c.Steps
	if ev, err := c.RunBatch(n); err != nil || ev != vm.EventStep || c.Steps-before != n {
		t.Fatalf("batch of %d at pc 0x%08x: ev=%v err=%v retired=%d", n, c.PC, ev, err, c.Steps-before)
	}
}

// TestProtectDowngradeFaultsAfterTLBHit: a store that has a warm D-TLB
// entry with write permission must fault as soon as the page is downgraded
// to read-only — the generation bump invalidates the cached entry.
func TestProtectDowngradeFaultsAfterTLBHit(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpSW, 9, 15, 0),     // sw t1, 0(t7)
		isa.EncodeJ(isa.OpJ, benchTextBase), // j back
	})
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[15] = benchDataBase
	runOK(t, c, 2) // sw fills the D-TLB with a write-capable entry; j
	runOK(t, c, 2) // sw hits it
	if c.CacheStats().TLBHits == 0 {
		t.Fatal("no TLB hits recorded on the warm path")
	}
	if err := as.Protect(benchDataBase, mem.PageSize, addrspace.ProtRead); err != nil {
		t.Fatal(err)
	}
	_, err := c.RunBatch(2) // sw again: cached entry must NOT be honoured
	f, ok := vm.FaultOf(err)
	if !ok {
		t.Fatalf("expected write fault after downgrade, got %v", err)
	}
	if f.Access != addrspace.AccessWrite || f.Unmapped {
		t.Fatalf("fault = %+v, want protection violation on write", f)
	}
	if c.PC != benchTextBase {
		t.Fatalf("pc advanced to 0x%08x across a trap", c.PC)
	}
	// Restoring the right makes the same instruction restartable.
	if err := as.Protect(benchDataBase, mem.PageSize, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	runOK(t, c, 1)
}

// TestSelfModifyingTextNextFetch is the core SMC guarantee: a store into a
// page whose instructions are already decoded into a block must be visible
// on the very next fetch. The program overwrites an instruction it has
// already executed with a J and immediately jumps back to it.
func TestSelfModifyingTextNextFetch(t *testing.T) {
	const escape = benchTextBase + 0x40
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim: addiu t2, t2, 1
		isa.EncodeI(isa.OpSW, 8, 9, 0),      // sw t0, 0(t1): patch the victim
		isa.EncodeJ(isa.OpJ, benchTextBase), // j victim
	})
	putCode(t, as, escape, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[8] = isa.EncodeJ(isa.OpJ, escape) // t0: the replacement J word
	c.Regs[9] = benchTextBase                // t1: victim address
	// victim, store, jump back, then the patched J, then HALT.
	ev, err := c.RunBatch(100)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v at pc 0x%08x, want halt", ev, err, c.PC)
	}
	if c.PC != escape {
		t.Fatalf("patched instruction not executed: pc = 0x%08x, want 0x%08x (stale block?)", c.PC, escape)
	}
	if c.Regs[10] != 1 {
		t.Fatalf("victim retired %d times, want exactly 1", c.Regs[10])
	}
	if c.Steps != 5 {
		t.Fatalf("steps = %d, want 5", c.Steps)
	}
	if st := c.CacheStats(); st.BlockInvals == 0 {
		t.Fatal("block invalidation not recorded for store-to-text")
	}
}

// TestHostPatchVisibleToCachedText: patches applied through the Space API
// (how ldl rewrites trampolines and image relocations) also invalidate
// decoded blocks via the frame version.
func TestHostPatchVisibleToCachedText(t *testing.T) {
	const escape = benchTextBase + 0x40
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim
		isa.EncodeJ(isa.OpJ, benchTextBase), // j victim
	})
	c := vm.New(as)
	c.PC = benchTextBase
	runOK(t, c, 4)
	// Host-side patch (the ldl path) while the loop is hot.
	if err := as.StoreWord(benchTextBase, isa.EncodeJ(isa.OpJ, escape)); err != nil {
		t.Fatal(err)
	}
	runOK(t, c, 1)
	if c.PC != escape {
		t.Fatalf("host patch not picked up: pc = 0x%08x, want 0x%08x", c.PC, escape)
	}
	if st := c.CacheStats(); st.BlockInvals == 0 {
		t.Fatal("block invalidation not recorded for a host patch")
	}
}

// TestSnapshotDropsCaches: a forked CPU must not inherit translations — a
// child generation can coincide with the parent's, so stale entries would
// alias the parent's frames.
func TestSnapshotDropsCaches(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLW, 12, 15, 0),
		isa.EncodeJ(isa.OpJ, benchTextBase),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[15] = benchDataBase
	runOK(t, c, 4)
	if c.CacheStats().TLBHits == 0 {
		t.Fatal("no TLB hits recorded on the warm path")
	}

	// The "child": same architectural state, different space with its own
	// data page contents.
	as2 := addrspace.New(mem.NewPhysical(0))
	if err := as2.MapAnon(benchTextBase, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if err := as2.MapAnon(benchDataBase, mem.PageSize, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	putCode(t, as2, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLW, 12, 15, 0),
		isa.EncodeJ(isa.OpJ, benchTextBase),
	})
	if err := as2.StoreWord(benchDataBase, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	child := vm.New(as2)
	child.SetArchState(c.ArchState())
	runOK(t, child, 1)
	if child.Regs[12] != 0xDEADBEEF {
		t.Fatalf("child read 0x%08x through a stale cache, want its own 0xDEADBEEF", child.Regs[12])
	}
}

// TestRunBatchStopsOnEvents: the batched executor must surface the same
// events Step does and stop at the budget boundary.
func TestRunBatchStopsOnEvents(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 9, 9, 1),
		isa.EncodeR(isa.FnSYSCALL, 0, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	ev, err := c.RunBatch(100)
	if err != nil || ev != vm.EventSyscall {
		t.Fatalf("ev=%v err=%v, want syscall", ev, err)
	}
	if c.Steps != 2 {
		t.Fatalf("steps = %d, want 2", c.Steps)
	}
	// Budget boundary: exactly n instructions, EventStep, no error.
	c2 := vm.New(as)
	c2.PC = benchTextBase
	ev, err = c2.RunBatch(1)
	if err != nil || ev != vm.EventStep || c2.Steps != 1 {
		t.Fatalf("ev=%v err=%v steps=%d, want step/nil/1", ev, err, c2.Steps)
	}
}
