package vm_test

// Tests for the D-TLB's store tiers: a frame the space holds alone takes
// plain stores (a version bump only once a block was decoded from it);
// every other frame takes the version bump and the host-atomic store, and
// a tracked frame's dirty watermark.

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

// frameAt returns the frame backing addr in as.
func frameAt(t *testing.T, as *addrspace.Space, addr uint32) *mem.Frame {
	t.Helper()
	e, flt := as.Translate(addr, addrspace.AccessRead)
	if flt != nil {
		t.Fatal(flt)
	}
	return e.Frame
}

// liWord appends lui+ori, materialising w in register r.
func liWord(code []uint32, r int, w uint32) []uint32 {
	return append(code, isa.EncodeI(isa.OpLUI, r, 0, uint16(w>>16)), isa.EncodeI(isa.OpORI, r, r, uint16(w)))
}

// TestPrivateStoreOfCodeRunsNewWord: guest code writes a routine into a
// fresh private RWX page with sw and calls it, then rewrites one word of
// it with sw and calls it again. The stores take the private tier, so
// only the decoded bit makes the second store move the version that
// invalidates the routine's block.
func TestPrivateStoreOfCodeRunsNewWord(t *testing.T) {
	const codePage = 0x00003000
	as := newSpace(t)
	if err := as.MapAnon(codePage, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	var prog []uint32
	prog = liWord(prog, 8, isa.EncodeI(isa.OpADDIU, 2, 0, 1)) // t0 = addiu v0, zero, 1
	prog = append(prog, isa.EncodeI(isa.OpSW, 8, 0, codePage))
	prog = liWord(prog, 8, isa.EncodeR(isa.FnJR, 0, isa.RegRA, 0, 0)) // t0 = jr ra
	prog = append(prog,
		isa.EncodeI(isa.OpSW, 8, 0, codePage+4),
		isa.EncodeJ(isa.OpJAL, codePage),
		isa.EncodeR(isa.FnADDU, 16, 2, 0, 0), // move s0, v0
	)
	prog = liWord(prog, 8, isa.EncodeI(isa.OpADDIU, 2, 0, 2)) // t0 = addiu v0, zero, 2
	prog = append(prog,
		isa.EncodeI(isa.OpSW, 8, 0, codePage),
		isa.EncodeJ(isa.OpJAL, codePage),
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	)
	putCode(t, as, benchTextBase, prog)
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(100); err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v pc=0x%08x", ev, err, c.PC)
	}
	if c.Regs[16] != 1 || c.Regs[2] != 2 {
		t.Fatalf("first call returned %d, second %d; want 1 then 2", c.Regs[16], c.Regs[2])
	}
	if st := c.CacheStats(); st.TLBFillPrivate == 0 {
		t.Fatalf("the code page's stores did not take the private tier: %+v", st)
	}
}

// storeLoop maps an RWX page at base in as holding sw t1, 0(t7);
// addiu t1, t1, 1; j back.
func storeLoop(t *testing.T, as *addrspace.Space, base uint32) {
	t.Helper()
	if err := as.MapAnon(base, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	putCode(t, as, base, []uint32{
		isa.EncodeI(isa.OpSW, 9, 15, 0),
		isa.EncodeI(isa.OpADDIU, 9, 9, 1),
		isa.EncodeJ(isa.OpJ, base),
	})
}

// TestForkSharedPageNeverPrivate: ForkInto gives a second holder to the
// pages it shares outright, the public window, without marking them
// copy-on-write. The parent's warm private slot for such a page must die
// then, and neither space may choose the private tier for the page
// afterwards: every store must move the frame's version. The code sits
// in the kernel window, which ForkInto does not clone, so the public
// page is the only page the fork shares.
func TestForkSharedPageNeverPrivate(t *testing.T) {
	const shBase, shLimit, kBase = benchDataBase, benchDataBase + mem.PageSize, 0x80000000
	phys := mem.NewPhysical(0)
	as := addrspace.New(phys)
	storeLoop(t, as, kBase)
	if err := as.MapAnon(benchDataBase, mem.PageSize, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	c := vm.New(as)
	c.PC = kBase
	c.Regs[15] = benchDataBase
	runOK(t, c, 6) // two stores through a warm slot
	if c.CacheStats().TLBFillPrivate != 1 {
		t.Fatalf("parent's data slot did not take the private tier: %+v", c.CacheStats())
	}
	f := frameAt(t, as, benchDataBase)

	child := addrspace.New(phys)
	as.ForkInto(child, shBase, shLimit, kBase)
	if child.PageCountMapped() != 1 || frameAt(t, child, benchDataBase) != f || f.Refs() != 2 {
		t.Fatal("the fork did not share exactly the data page outright")
	}
	storeLoop(t, child, kBase)
	cc := vm.New(child)
	cc.PC, cc.Regs[15] = kBase, benchDataBase
	for i, cpu := range []*vm.CPU{c, cc, c} {
		fills, ver := cpu.CacheStats().TLBFillPrivate, f.Version()
		runOK(t, cpu, 3)
		if f.Version() == ver {
			t.Fatalf("run %d: a store to the shared page left its version at %d", i, ver)
		}
		if got := cpu.CacheStats().TLBFillPrivate; got != fills {
			t.Fatalf("run %d: %d private fills after the fork", i, got-fills)
		}
	}
}

// TestTrackedFrameWatermarkCoversGuestStores: a frame netshm tracks is
// never private, so guest sw and sb record their bytes in its dirty
// watermark even though the space is its only holder.
func TestTrackedFrameWatermarkCoversGuestStores(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpSW, 9, 15, 0x40), // sw t1, 0x40(t7)
		isa.EncodeI(isa.OpSB, 9, 15, 0x90), // sb t1, 0x90(t7)
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	f := frameAt(t, as, benchDataBase)
	f.SetTracked(true)
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[9], c.Regs[15] = 0x01020304, benchDataBase
	if ev, err := c.RunBatch(10); err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v", ev, err)
	}
	lo, end, ok := f.TakeDirtyRange()
	if !ok || lo > 0x40 || end < 0x91 {
		t.Fatalf("dirty range [%#x, %#x) ok=%v, want it to cover [0x40, 0x91)", lo, end, ok)
	}
	if st := c.CacheStats(); st.TLBFillPrivate != 0 {
		t.Fatalf("a tracked frame took the private tier: %+v", st)
	}
}
