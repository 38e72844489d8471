package vm_test

// Tests for the basic-block translation engine: chaining, the invalidation
// edges (SMC into an already-chained successor, host patches landing
// mid-batch, snapshots) and budget exactness around fused macro-ops. The
// D-TLB and single-page invalidation tests live in cache_test.go; the
// differential harness holds the engine bit-identical to Step over
// generated programs.

import (
	"fmt"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

// mapRWX maps one RWX page at base in a fresh space.
func mapPages(t *testing.T, prots map[uint32]addrspace.Prot) *addrspace.Space {
	t.Helper()
	as := addrspace.New(mem.NewPhysical(0))
	for base, prot := range prots {
		if err := as.MapAnon(base, mem.PageSize, prot); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// TestBlockChainLoopCountsHits: a countdown loop runs hot through chained
// blocks — a handful of builds, hits for every subsequent iteration.
func TestBlockChainLoopCountsHits(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 9, 9, 0xFFFF), // addiu t1, t1, -1
		isa.EncodeI(isa.OpBNE, 0, 9, 0xFFFE),   // bne t1, zero, -2
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[9] = 50
	ev, err := c.RunBatch(1000)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v, want halt", ev, err)
	}
	if c.Steps != 50*2+1 {
		t.Fatalf("steps = %d, want 101", c.Steps)
	}
	if c.PC != benchTextBase+8 {
		t.Fatalf("pc = 0x%08x, want the halt", c.PC)
	}
	st := c.CacheStats()
	if st.BlockBuilds == 0 || st.BlockBuilds > 4 {
		t.Fatalf("block builds = %d, want a handful", st.BlockBuilds)
	}
	if st.BlockHits < 40 {
		t.Fatalf("block hits = %d, want ~one per loop iteration", st.BlockHits)
	}
}

// TestBlockSMCIntoChainedSuccessor is the chaining invalidation edge: block
// A has already chained to block B on another page when a store patches an
// instruction inside B. Following the warm A→B chain pointer must notice
// the stale frame version and rebuild B, so the patched word executes on
// the very next transfer into it.
func TestBlockSMCIntoChainedSuccessor(t *testing.T) {
	// B sits off the page base, in another cache slot than A: an index
	// collision would turn the stale-rebuild this test pins into a plain
	// miss.
	const (
		pageA  = uint32(0x00001000)
		pageB  = uint32(0x00003000)
		bEntry = pageB + 0x100
		escape = pageB + 0x200
	)
	as := mapPages(t, map[uint32]addrspace.Prot{
		pageA: addrspace.ProtRWX,
		pageB: addrspace.ProtRWX,
	})
	putCode(t, as, pageA, []uint32{
		isa.EncodeI(isa.OpADDIU, 9, 9, 1), // L0: addiu t1, t1, 1
		isa.EncodeJ(isa.OpJ, bEntry),      //     j B            (the chain under test)
		isa.EncodeI(isa.OpSW, 8, 25, 0),   // P:  sw t0, 0(t9)   (patches B's victim)
		isa.EncodeJ(isa.OpJ, pageA),       //     j L0
	})
	putCode(t, as, bEntry, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // B:  addiu t2, t2, 1 (victim)
		isa.EncodeJ(isa.OpJ, pageA+8),       //     j P
	})
	putCode(t, as, escape, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	c := vm.New(as)
	c.PC = pageA
	c.Regs[8] = isa.EncodeJ(isa.OpJ, escape) // t0: replacement for the victim
	c.Regs[25] = bEntry                      // t9: victim address

	// Pass 1 links A→B; P then patches B; pass 2 must rebuild B through
	// the now-stale chain pointer and run the patched jump.
	ev, err := c.RunBatch(1000)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v at pc=0x%08x, want halt", ev, err, c.PC)
	}
	if c.PC != escape {
		t.Fatalf("pc = 0x%08x, want escape 0x%08x", c.PC, escape)
	}
	if c.Regs[10] != 1 {
		t.Fatalf("victim retired %d times, want exactly 1 (stale chained block executed?)", c.Regs[10])
	}
	if c.Regs[9] != 2 {
		t.Fatalf("loop header retired %d times, want 2", c.Regs[9])
	}
	st := c.CacheStats()
	if st.BlockInvals == 0 {
		t.Fatal("no block invalidation recorded for the patched successor")
	}
	if st.BlockHits == 0 {
		t.Fatal("no chain/probe hits recorded — was the chain ever warm?")
	}
}

// TestBlockCachePageAlignedEntriesDoNotAlias: functions at page-aligned
// entries in different pages, called alternately through jalr (the path
// that probes the cache instead of following a chain pointer). The slot
// index folds in the page and 1 MB segment numbers, so after the first
// call of each no call builds a block. Both pairs share one slot under an
// index of the word address alone; the second pair (module bases two
// segments apart) also shares one under the page number alone.
func TestBlockCachePageAlignedEntriesDoNotAlias(t *testing.T) {
	const caller = uint32(0x00001100)
	for _, pair := range [][2]uint32{{0x00002000, 0x00003000}, {0x30100000, 0x30300000}} {
		fnA, fnB := pair[0], pair[1]
		as := mapPages(t, map[uint32]addrspace.Prot{
			caller &^ (mem.PageSize - 1): addrspace.ProtRWX,
			fnA:                          addrspace.ProtRWX,
			fnB:                          addrspace.ProtRWX,
		})
		putCode(t, as, caller, []uint32{
			isa.EncodeR(isa.FnJALR, 31, 24, 0, 0),  // loop: jalr t8 (A)
			isa.EncodeR(isa.FnJALR, 31, 25, 0, 0),  //       jalr t9 (B)
			isa.EncodeI(isa.OpADDIU, 9, 9, 0xFFFF), //       addiu t1, t1, -1
			isa.EncodeI(isa.OpBNE, 0, 9, 0xFFFC),   //       bne t1, zero, loop
			isa.EncodeI(isa.OpHALT, 0, 0, 0),
		})
		putCode(t, as, fnA, []uint32{isa.EncodeI(isa.OpADDIU, 10, 10, 1), isa.EncodeR(isa.FnJR, 0, 31, 0, 0)})
		putCode(t, as, fnB, []uint32{isa.EncodeI(isa.OpADDIU, 11, 11, 1), isa.EncodeR(isa.FnJR, 0, 31, 0, 0)})
		c := vm.New(as)
		c.Regs[24], c.Regs[25] = fnA, fnB
		run := func(passes uint32) {
			t.Helper()
			c.PC, c.Regs[9] = caller, passes
			if ev, err := c.RunBatch(10000); err != nil || ev != vm.EventHalt {
				t.Fatalf("ev=%v err=%v at pc=0x%08x, want halt", ev, err, c.PC)
			}
		}
		run(1)
		warm := c.CacheStats().BlockBuilds
		run(50)
		if c.Regs[10] != 51 || c.Regs[11] != 51 {
			t.Fatalf("calls retired %d and %d, want 51 each", c.Regs[10], c.Regs[11])
		}
		if st := c.CacheStats(); st.BlockBuilds != warm {
			t.Errorf("entries 0x%08x and 0x%08x: %d blocks built after the first call of each, want 0",
				fnA, fnB, st.BlockBuilds-warm)
		}
	}
}

// TestBlockHostPatchBetweenBatches: a patch through the Space API (the ldl
// trampoline/PLT path) lands between two RunBatch calls; the second batch
// must execute the patched word even though the block and its self-chain
// are warm.
func TestBlockHostPatchBetweenBatches(t *testing.T) {
	const escape = benchTextBase + 0x40
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim
		isa.EncodeJ(isa.OpJ, benchTextBase), // j victim
	})
	putCode(t, as, escape, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(5); err != nil || ev != vm.EventStep {
		t.Fatalf("warm batch: ev=%v err=%v", ev, err)
	}
	retired := c.Regs[10]
	if err := as.StoreWord(benchTextBase, isa.EncodeJ(isa.OpJ, escape)); err != nil {
		t.Fatal(err)
	}
	ev, err := c.RunBatch(100)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("post-patch batch: ev=%v err=%v pc=0x%08x", ev, err, c.PC)
	}
	if c.PC != escape {
		t.Fatalf("pc = 0x%08x, want 0x%08x", c.PC, escape)
	}
	if c.Regs[10] != retired {
		t.Fatal("victim retired again after the host patch")
	}
}

// TestRunBatchBudgetExactWithFusion: a budget smaller than a fused pair
// must not over-retire — the tail runs through Step, so RunBatch(1)
// retires exactly the LUI half with PC left on the ORI.
func TestRunBatchBudgetExactWithFusion(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 8, 0, 0x1234), // lui t0, 0x1234
		isa.EncodeI(isa.OpORI, 8, 8, 0x5678), // ori t0, t0, 0x5678 (fuses)
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(1); err != nil || ev != vm.EventStep {
		t.Fatalf("ev=%v err=%v", ev, err)
	}
	if c.Steps != 1 || c.PC != benchTextBase+4 {
		t.Fatalf("steps=%d pc=0x%08x, want exactly the LUI retired", c.Steps, c.PC)
	}
	if c.Regs[8] != 0x12340000 {
		t.Fatalf("t0 = 0x%08x after LUI", c.Regs[8])
	}
	if ev, err := c.RunBatch(1); err != nil || ev != vm.EventStep {
		t.Fatalf("ev=%v err=%v", ev, err)
	}
	if c.Steps != 2 || c.Regs[8] != 0x12345678 {
		t.Fatalf("steps=%d t0=0x%08x, want composed constant", c.Steps, c.Regs[8])
	}
	ev, err := c.RunBatch(10)
	if err != nil || ev != vm.EventHalt || c.Steps != 3 {
		t.Fatalf("ev=%v err=%v steps=%d, want halt at step 3", ev, err, c.Steps)
	}
}

// TestSnapshotDropsBlockCache: a CPU loaded from another's ArchState (a
// forked child) must not carry translated blocks — the child's space can
// share the parent's generation number, so a stale block would execute
// the parent's text.
func TestSnapshotDropsBlockCache(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1),
		isa.EncodeJ(isa.OpJ, benchTextBase),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(6); err != nil || ev != vm.EventStep {
		t.Fatalf("warm batch: ev=%v err=%v", ev, err)
	}

	as2 := mapPages(t, map[uint32]addrspace.Prot{benchTextBase: addrspace.ProtRWX})
	putCode(t, as2, benchTextBase, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	child := vm.New(as2)
	child.SetArchState(c.ArchState())
	child.PC = benchTextBase
	ev, err := child.RunBatch(10)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("child ran stale blocks: ev=%v err=%v pc=0x%08x", ev, err, child.PC)
	}
	if st := child.CacheStats(); st.BlockHits != 0 && st.BlockBuilds == 0 {
		t.Fatalf("child hit inherited blocks: %+v", st)
	}
}

// Budget-split program: two blocks whose exits cover every way a block
// can leave in mid-run. The first holds absorbed nops, a fused lui+ori, a
// fused lui+sw and a load, and ends in a syscall. The second stores into
// its own page (patching a later instruction of the same block), holds a
// fused lui+lw, faults on a load from an unmapped page, and ends in a
// break; a halt follows.
const budgetFaultPage = 0x00003000

func budgetSplitCode() []uint32 {
	patched := isa.EncodeI(isa.OpADDIU, 9, 9, 200) // addiu t1, t1, 200
	return []uint32{
		isa.Nop,
		isa.EncodeI(isa.OpLUI, 8, 0, 0), // lui   t0, 0
		isa.EncodeI(isa.OpORI, 8, 8, benchDataBase), // ori   t0, t0, data (fuses)
		isa.EncodeI(isa.OpADDIU, 9, 0, 7),           // addiu t1, zero, 7
		isa.Nop,
		isa.Nop,
		isa.EncodeI(isa.OpLUI, 10, 0, 0),              // lui   t2, 0
		isa.EncodeI(isa.OpSW, 9, 10, benchDataBase+8), // sw    t1, data+8(t2) (fuses)
		isa.EncodeI(isa.OpLW, 11, 8, 8),               // lw    t3, 8(t0)
		isa.EncodeR(isa.FnSYSCALL, 0, 0, 0, 0),        // syscall
		isa.EncodeI(isa.OpADDIU, 9, 9, 1),             // addiu t1, t1, 1
		isa.EncodeI(isa.OpLUI, 13, 0, uint16(patched>>16)),
		isa.EncodeI(isa.OpORI, 13, 13, uint16(patched)),  // t5 = patched word (fuses)
		isa.EncodeI(isa.OpSW, 13, 0, benchTextBase+17*4), // sw t5, word 17: own page
		isa.Nop,
		isa.EncodeI(isa.OpLUI, 14, 0, 0), // lui   t6, 0
		isa.EncodeI(isa.OpLW, 16, 14, benchDataBase+8), // lw    s0, data+8(t6) (fuses)
		isa.EncodeI(isa.OpADDIU, 9, 9, 100),            // addiu t1, t1, 100: patched to 200
		isa.EncodeI(isa.OpLW, 15, 17, 0),               // lw    t7, 0(s1): faults
		isa.EncodeI(isa.OpADDIU, 9, 9, 3),              // addiu t1, t1, 3
		isa.Nop,
		isa.EncodeR(isa.FnBREAK, 0, 0, 0, 0), // break
		isa.EncodeI(isa.OpADDIU, 10, 10, 5),  // addiu t2, t2, 5
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	}
}

// driveBudget retires up to k instructions through run, resuming after
// what a kernel would service: a syscall or break resumes at the next
// instruction, and a fault on budgetFaultPage maps the page and restarts
// the load. It logs every exit.
func driveBudget(t *testing.T, c *vm.CPU, k uint64, run func(uint64) (vm.Event, error)) []string {
	t.Helper()
	var log []string
	for c.Steps < k {
		ev, err := run(k - c.Steps)
		log = append(log, fmt.Sprintf("ev=%v err=%v steps=%d pc=0x%08x", ev, err, c.Steps, c.PC))
		if err != nil {
			f, ok := vm.FaultOf(err)
			if !ok || addrspace.PageBase(f.Addr) != budgetFaultPage {
				t.Fatalf("budget %d: unexpected trap %v", k, err)
			}
			if err := c.AS.MapAnon(budgetFaultPage, mem.PageSize, addrspace.ProtRW); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if ev == vm.EventHalt {
			break
		}
	}
	return log
}

// TestRunBatchBudgetSplitMatchesStep: RunBatch charges a block's budget
// on entry and gives back what an exit in mid-block did not retire. For
// every budget from 1 to past the end of the program, RunBatch must end
// where that many Step calls end: the same exits (event, trap, steps, PC)
// and the same registers, trap count and memory.
func TestRunBatchBudgetSplitMatchesStep(t *testing.T) {
	code := budgetSplitCode()
	boot := func() *vm.CPU {
		as := newSpace(t)
		putCode(t, as, benchTextBase, code)
		c := vm.New(as)
		c.PC = benchTextBase
		c.Regs[17] = budgetFaultPage // s1
		return c
	}
	for k := uint64(1); k <= uint64(len(code))+4; k++ {
		bc, sc := boot(), boot()
		blog := driveBudget(t, bc, k, bc.RunBatch)
		slog := driveBudget(t, sc, k, func(n uint64) (vm.Event, error) {
			for ; n > 0; n-- {
				if ev, err := sc.Step(); err != nil || ev != vm.EventStep {
					return ev, err
				}
			}
			return vm.EventStep, nil
		})
		if fmt.Sprint(blog) != fmt.Sprint(slog) {
			t.Fatalf("budget %d: exits differ\nRunBatch: %v\nStep:     %v", k, blog, slog)
		}
		if bc.Steps != sc.Steps || bc.Traps != sc.Traps || vm.StateHash(bc) != vm.StateHash(sc) {
			t.Fatalf("budget %d: state differs\nRunBatch:\n%s\nStep:\n%s", k, vm.DumpState(bc), vm.DumpState(sc))
		}
	}
	// The last budget ran the whole program: the patched word ran.
	c := boot()
	driveBudget(t, c, 1000, c.RunBatch)
	if c.Regs[9] != 7+1+200+3 || c.Regs[16] != 7 || c.Regs[10] != 5 || c.Traps != 1 {
		t.Fatalf("full run: t1=%d s0=%d t2=%d traps=%d", c.Regs[9], c.Regs[16], c.Regs[10], c.Traps)
	}
}
