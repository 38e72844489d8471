package vm

// Basic-block translation engine. RunBatch decodes straight-line runs into
// blocks of compact ops with precomputed operands (branch targets, jump
// destinations, sign-extended immediates, fused LUI-pair constants),
// caches them in a per-CPU direct-mapped block cache, and executes each
// block in a tight loop with no per-instruction fetch or decode — one
// Translate per page crossed, hoisted to block build, exactly like a QEMU
// translation block or an Embra superblock.
//
// # Validity and invalidation
//
// A block is confined to a single page, so it has exactly one backing
// frame. Two values pin its validity, both read lock-free on entry:
//
//   - gen: the address-space mapping generation at build time
//     (addrspace.Space.Gen — any map/unmap/protect moves it);
//   - fver: the backing frame's store version at build time
//     (mem.Frame.Version — EVERY writer bumps it before the bytes
//     change: vm stores, addrspace host writes, shmfs, netshm).
//
// The checks run on every block entry, including entries through chain
// pointers, so a chained successor whose text was patched — an ldl PLT
// resolution, generated self-modifying code, a store from a different
// process sharing the frame — is rebuilt on the very next control
// transfer into it, which is the very next fetch of the patched word.
// A store INTO the currently running block's own page exits the block
// after the store retires (the frame version moved), so even a program
// that patches its own straight-line successor instructions stays
// bit-identical with the reference interpreter.
//
// # Chaining
//
// Static terminators (J/JAL, both branch arms, trampoline fusions, page
// fallthrough) carry successor pointers that are linked lazily the first
// time the edge is taken; following one skips the block-cache probe but
// not the validity check. Register jumps (JR/JALR) re-enter through the
// cache probe — still one probe per block, not per instruction.
//
// # Exactness
//
// The engine retires architectural state per op: traps leave PC and
// registers at the faulting instruction (restartability is what the
// paper's SIGSEGV-driven lazy linking needs), syscall/break advance PC,
// and a batch never retires more than its budget — when the next op is a
// fused pair that would overshoot, the tail runs through Step. The
// differential harness holds the engine bit-identical to Step over
// events, steps, traps, registers, PC and the whole-memory hash.

import (
	"fmt"
	"sync"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
)

// Block-cache geometry: 512 direct-mapped slots, one pointer each, which
// covers the working set of an image plus a few shared modules. The slot
// index (bcIndex) mixes the page and 1 MB segment numbers into the word
// index, so blocks at one offset in different pages, such as page-aligned
// function entries and module bases, do not evict each other.
const (
	bcBits = 9
	bcSize = 1 << bcBits

	// maxBlockInsts caps how many instructions one block may retire, so a
	// page of straight-line code does not decode in one gulp the first
	// time a prefix of it executes. Must stay below 1<<16 (bop.n).
	maxBlockInsts = 256
)

// bkind discriminates block ops. Ops up to bSB are straight-line; the
// rest terminate a block.
type bkind uint8

const (
	bFALL bkind = iota // page boundary or op cap: fall through to imm

	bSLL // aux = shamt
	bSRL
	bSRA
	bSLLV
	bSRLV
	bSRAV
	bMUL
	bDIV
	bADD
	bSUB
	bAND
	bOR
	bXOR
	bNOR
	bSLT
	bSLTU
	bADDI // imm = sign-extended
	bSLTI
	bSLTIU
	bANDI // imm = zero-extended
	bORI
	bXORI
	bLUI // imm = value<<16

	bFuseLUIORI // rs=lui rt, rd=ori rt, aux=hi<<16, imm=composed constant
	bFuseLUILW  // rs=lui rt, rd=lw rt, aux=hi<<16, imm=absolute address
	bFuseLUISW  // rs=lui rt, rt=sw rt, aux=hi<<16, imm=absolute address

	bLW // imm = sign-extended offset
	bLB
	bLBU
	bSW
	bSB

	bJ   // imm = target
	bJAL // imm = target; link = pc+4
	bBEQ // imm = taken target
	bBNE
	bBLEZ
	bBGTZ
	bJR   // next = Regs[rs]
	bJALR // next = Regs[rs]; rd = pc+4

	bFuseTramp     // lui+ori+jr: rs=lui rt, rd=ori rt, aux=hi<<16, imm=target
	bFuseTrampCall // lui+ori+jalr: + rt = link register

	bSYSCALL
	bBREAK
	bHALT
	bILLEGAL // imm = raw word (reconstructs the exact trap message)
)

// bop is one block op: a decoded instruction, a fused instruction pair or
// triple, or a block terminator, with every PC-dependent value folded in
// at build time.
type bop struct {
	kind bkind
	rd   uint8
	rs   uint8
	rt   uint8
	pre  uint16 // leading fused nops, retired with this op
	n    uint16 // budget to attempt the op: pre + primary instructions
	imm  uint32
	aux  uint32
	pc   uint32 // address of the primary (first non-nop) instruction
}

// block is one decoded straight-line run, confined to a single page.
type block struct {
	pc    uint32
	gen   uint64     // addrspace generation at build
	fver  uint64     // frame store version at build
	frame *mem.Frame // the one page the block decodes from
	ops   []bop      // non-empty; last op is the terminator
	taken *block     // lazily linked static successors (chaining)
	fall  *block
}

// valid reports whether the block's translation and predecode are still
// current. Two atomic loads; runs on every block entry.
func (b *block) valid(gen uint64) bool {
	return b.gen == gen && b.fver == b.frame.Version()
}

// bcPool recycles block-cache arrays across CPUs: a short-lived process (a
// zygote clone, say) would otherwise allocate and garbage 4 KB per launch.
var bcPool = sync.Pool{New: func() any { return new([bcSize]*block) }}

// releaseBlockCache returns the block-cache array to the pool. The kernel
// calls it (via ReleaseCaches) when the process exits.
func (c *CPU) releaseBlockCache() {
	if c.bc != nil {
		bcPool.Put(c.bc)
		c.bc = nil
	}
}

// ReleaseCaches hands the CPU's pooled cache storage back for reuse. Only
// call when the CPU will not run again.
func (c *CPU) ReleaseCaches() { c.releaseBlockCache() }

// illegalErr reconstructs the trap error Step raises for word w — the
// messages must match byte-for-byte or the differential harness flags a
// divergence.
func illegalErr(w uint32) error {
	if w>>26 == 0 {
		return fmt.Errorf("%w: special funct %d", ErrIllegal, w&63)
	}
	return fmt.Errorf("%w: opcode %d", ErrIllegal, w>>26)
}

// bcIndex returns the block-cache slot for a block starting at pc: its
// word index within the page, XORed with its page number and its 1 MB
// segment number.
func bcIndex(pc uint32) uint32 { return (pc>>2 ^ pc>>12 ^ pc>>20) & (bcSize - 1) }

// blockAt returns a valid block starting at pc, probing the direct-mapped
// cache and (re)building on miss or staleness.
func (c *CPU) blockAt(pc uint32) (*block, error) {
	if c.bc == nil {
		bc := bcPool.Get().(*[bcSize]*block)
		*bc = [bcSize]*block{} // a pooled array holds another CPU's blocks
		c.bc = bc
	}
	slot := &c.bc[bcIndex(pc)]
	if b := *slot; b != nil && b.pc == pc && b.valid(c.AS.Gen()) {
		c.stats.BlockHits++
		return b, nil
	}
	nb, err := c.buildBlock(pc)
	if err != nil {
		return nil, err
	}
	if b := *slot; b != nil && b.pc == pc {
		c.stats.BlockInvals++ // same block went stale: SMC, PLT patch, remap
	}
	*slot = nb
	c.stats.BlockBuilds++
	return nb, nil
}

// buildBlock decodes the straight-line run starting at pc into a block.
// The one Translate here is the only translation the block's instructions
// ever pay; crossing into the next page is a separate (chained) block.
func (c *CPU) buildBlock(pc uint32) (*block, error) {
	if pc&3 != 0 {
		_, err := c.AS.FetchWord(pc) // canonical unaligned-fetch error
		return nil, err
	}
	ent, flt := c.AS.Translate(pc, addrspace.AccessExec)
	if flt != nil {
		return nil, flt
	}
	c.stats.TLBMisses++ // one per block build, not per instruction
	b := &block{pc: pc, gen: ent.Gen, frame: ent.Frame}
	// Read the frame version BEFORE any instruction bytes: a store racing
	// past this point leaves the predecode at least as old as fver, so the
	// entry check refuses the block and rebuilds.
	b.fver = ent.Frame.Version()

	base := pc &^ uint32(mem.PageSize-1)
	wi := (pc & (mem.PageSize - 1)) >> 2
	word := func(i uint32) uint32 {
		return ent.Frame.LoadWordBE(i * 4)
	}
	var pre uint16 // pending run of nops, absorbed into the next op
	ninst := 0
	for {
		if wi >= pageWords || ninst >= maxBlockInsts {
			fpc := base + wi*4
			b.ops = append(b.ops, bop{kind: bFALL, pre: pre, n: pre, imm: fpc, pc: fpc})
			return b, nil
		}
		w := word(wi)
		if w == isa.Nop {
			pre++ // absorbed into the next op's pre count
			wi++
			continue
		}
		ipc := base + wi*4
		op := bop{pre: pre, n: pre + 1, pc: ipc}
		pre = 0
		terminal := false
		in := predecode(w)
		switch in.op {
		case isa.OpSpecial:
			switch in.fn {
			case isa.FnSLL:
				op.kind, op.rd, op.rt, op.aux = bSLL, in.rd, in.rt, uint32(in.shamt)
			case isa.FnSRL:
				op.kind, op.rd, op.rt, op.aux = bSRL, in.rd, in.rt, uint32(in.shamt)
			case isa.FnSRA:
				op.kind, op.rd, op.rt, op.aux = bSRA, in.rd, in.rt, uint32(in.shamt)
			case isa.FnSLLV:
				op.kind, op.rd, op.rs, op.rt = bSLLV, in.rd, in.rs, in.rt
			case isa.FnSRLV:
				op.kind, op.rd, op.rs, op.rt = bSRLV, in.rd, in.rs, in.rt
			case isa.FnSRAV:
				op.kind, op.rd, op.rs, op.rt = bSRAV, in.rd, in.rs, in.rt
			case isa.FnJR:
				op.kind, op.rs, terminal = bJR, in.rs, true
			case isa.FnJALR:
				op.kind, op.rs, op.rd, terminal = bJALR, in.rs, in.rd, true
			case isa.FnSYSCALL:
				op.kind, terminal = bSYSCALL, true
			case isa.FnBREAK:
				op.kind, terminal = bBREAK, true
			case isa.FnMUL:
				op.kind, op.rd, op.rs, op.rt = bMUL, in.rd, in.rs, in.rt
			case isa.FnDIV:
				op.kind, op.rd, op.rs, op.rt = bDIV, in.rd, in.rs, in.rt
			case isa.FnADD, isa.FnADDU:
				op.kind, op.rd, op.rs, op.rt = bADD, in.rd, in.rs, in.rt
			case isa.FnSUB, isa.FnSUBU:
				op.kind, op.rd, op.rs, op.rt = bSUB, in.rd, in.rs, in.rt
			case isa.FnAND:
				op.kind, op.rd, op.rs, op.rt = bAND, in.rd, in.rs, in.rt
			case isa.FnOR:
				op.kind, op.rd, op.rs, op.rt = bOR, in.rd, in.rs, in.rt
			case isa.FnXOR:
				op.kind, op.rd, op.rs, op.rt = bXOR, in.rd, in.rs, in.rt
			case isa.FnNOR:
				op.kind, op.rd, op.rs, op.rt = bNOR, in.rd, in.rs, in.rt
			case isa.FnSLT:
				op.kind, op.rd, op.rs, op.rt = bSLT, in.rd, in.rs, in.rt
			case isa.FnSLTU:
				op.kind, op.rd, op.rs, op.rt = bSLTU, in.rd, in.rs, in.rt
			default:
				op.kind, op.imm, terminal = bILLEGAL, w, true
			}
		case isa.OpJ:
			op.kind, op.imm, terminal = bJ, isa.Jump26Target(w, ipc), true
		case isa.OpJAL:
			op.kind, op.imm, terminal = bJAL, isa.Jump26Target(w, ipc), true
		case isa.OpBEQ:
			op.kind, op.rs, op.rt, op.imm, terminal = bBEQ, in.rs, in.rt, isa.BranchTarget(ipc, in.imm), true
		case isa.OpBNE:
			op.kind, op.rs, op.rt, op.imm, terminal = bBNE, in.rs, in.rt, isa.BranchTarget(ipc, in.imm), true
		case isa.OpBLEZ:
			op.kind, op.rs, op.imm, terminal = bBLEZ, in.rs, isa.BranchTarget(ipc, in.imm), true
		case isa.OpBGTZ:
			op.kind, op.rs, op.imm, terminal = bBGTZ, in.rs, isa.BranchTarget(ipc, in.imm), true
		case isa.OpADDI, isa.OpADDIU:
			op.kind, op.rt, op.rs, op.imm = bADDI, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpSLTI:
			op.kind, op.rt, op.rs, op.imm = bSLTI, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpSLTIU:
			op.kind, op.rt, op.rs, op.imm = bSLTIU, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpANDI:
			op.kind, op.rt, op.rs, op.imm = bANDI, in.rt, in.rs, uint32(in.imm)
		case isa.OpORI:
			op.kind, op.rt, op.rs, op.imm = bORI, in.rt, in.rs, uint32(in.imm)
		case isa.OpXORI:
			op.kind, op.rt, op.rs, op.imm = bXORI, in.rt, in.rs, uint32(in.imm)
		case isa.OpLUI:
			fop, fwords, fterm := c.fuseLUI(in, ipc, wi, word)
			if fwords > 1 {
				fop.pre = op.pre
				fop.n = op.pre + fwords
				op, terminal = fop, fterm
				wi += uint32(fwords)
				ninst += int(op.n)
				b.ops = append(b.ops, op)
				if terminal {
					return b, nil
				}
				continue
			}
			op.kind, op.rt, op.imm = bLUI, in.rt, uint32(in.imm)<<16
		case isa.OpLW:
			op.kind, op.rt, op.rs, op.imm = bLW, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpLB:
			op.kind, op.rt, op.rs, op.imm = bLB, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpLBU:
			op.kind, op.rt, op.rs, op.imm = bLBU, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpSW:
			op.kind, op.rt, op.rs, op.imm = bSW, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpSB:
			op.kind, op.rt, op.rs, op.imm = bSB, in.rt, in.rs, isa.SignExt(in.imm)
		case isa.OpHALT:
			op.kind, terminal = bHALT, true
		default:
			op.kind, op.imm, terminal = bILLEGAL, w, true
		}
		wi++
		ninst += int(op.n)
		b.ops = append(b.ops, op)
		if terminal {
			return b, nil
		}
	}
}

// RunBatch retires up to max instructions, stopping early at the first
// non-step event or trap (EventStep with a nil error means the budget ran
// out). It is the kernel's executor: probe (or chain into) the block at
// PC, retire its ops, repeat until the budget is gone or an event/trap
// exits the batch. Step accounting stays in locals (retired is folded into
// c.Steps at every exit), register indices are masked so the compiler
// drops the bounds checks from the hot loop, and cache statistics are
// flushed to the obsv counters once per batch rather than once per
// instruction.
func (c *CPU) RunBatch(max uint64) (Event, error) {
	left := max
	var retired uint64 // steps retired since the last fold into c.Steps
	regs := &c.Regs
	var edge **block // unlinked chain slot from the previous block's exit
outer:
	for {
		c.Steps += retired
		retired = 0
		c.sample(0)
		if left == 0 {
			c.FlushObsv()
			return EventStep, nil
		}
		b, err := c.blockAt(c.PC)
		if err != nil {
			ev, terr := c.trap(c.PC, err)
			c.FlushObsv()
			return ev, terr
		}
		if edge != nil {
			*edge = b
			edge = nil
		}
		for { // execute b, then follow its chain while valid
			var slot **block
			ops := b.ops
			for i := range ops {
				op := &ops[i]
				n := uint64(op.n)
				if n > left {
					// The remaining budget cannot retire this (possibly
					// fused) op atomically: finish the tail one
					// instruction at a time through Step, starting at the
					// op's first absorbed nop.
					c.Steps += retired
					c.PC = op.pc - uint32(op.pre)*4
					c.sample(0)
					for ; left > 0; left-- {
						if ev, err := c.Step(); err != nil || ev != EventStep {
							c.FlushObsv()
							return ev, err
						}
					}
					c.FlushObsv()
					return EventStep, nil
				}
				retired += n
				left -= n
				switch op.kind {
				case bSLL:
					bset(regs, op.rd, regs[op.rt&31]<<op.aux)
				case bSRL:
					bset(regs, op.rd, regs[op.rt&31]>>op.aux)
				case bSRA:
					bset(regs, op.rd, uint32(int32(regs[op.rt&31])>>op.aux))
				case bSLLV:
					bset(regs, op.rd, regs[op.rt&31]<<(regs[op.rs&31]&31))
				case bSRLV:
					bset(regs, op.rd, regs[op.rt&31]>>(regs[op.rs&31]&31))
				case bSRAV:
					bset(regs, op.rd, uint32(int32(regs[op.rt&31])>>(regs[op.rs&31]&31)))
				case bMUL:
					bset(regs, op.rd, regs[op.rs&31]*regs[op.rt&31])
				case bDIV:
					if regs[op.rt&31] == 0 {
						c.Steps += retired
						return c.blockTrap(op.pc, 1, ErrDivZero)
					}
					bset(regs, op.rd, uint32(int32(regs[op.rs&31])/int32(regs[op.rt&31])))
				case bADD:
					bset(regs, op.rd, regs[op.rs&31]+regs[op.rt&31])
				case bSUB:
					bset(regs, op.rd, regs[op.rs&31]-regs[op.rt&31])
				case bAND:
					bset(regs, op.rd, regs[op.rs&31]&regs[op.rt&31])
				case bOR:
					bset(regs, op.rd, regs[op.rs&31]|regs[op.rt&31])
				case bXOR:
					bset(regs, op.rd, regs[op.rs&31]^regs[op.rt&31])
				case bNOR:
					bset(regs, op.rd, ^(regs[op.rs&31] | regs[op.rt&31]))
				case bSLT:
					if int32(regs[op.rs&31]) < int32(regs[op.rt&31]) {
						bset(regs, op.rd, 1)
					} else {
						bset(regs, op.rd, 0)
					}
				case bSLTU:
					if regs[op.rs&31] < regs[op.rt&31] {
						bset(regs, op.rd, 1)
					} else {
						bset(regs, op.rd, 0)
					}
				case bADDI:
					bset(regs, op.rt, regs[op.rs&31]+op.imm)
				case bSLTI:
					if int32(regs[op.rs&31]) < int32(op.imm) {
						bset(regs, op.rt, 1)
					} else {
						bset(regs, op.rt, 0)
					}
				case bSLTIU:
					if regs[op.rs&31] < op.imm {
						bset(regs, op.rt, 1)
					} else {
						bset(regs, op.rt, 0)
					}
				case bANDI:
					bset(regs, op.rt, regs[op.rs&31]&op.imm)
				case bORI:
					bset(regs, op.rt, regs[op.rs&31]|op.imm)
				case bXORI:
					bset(regs, op.rt, regs[op.rs&31]^op.imm)
				case bLUI:
					bset(regs, op.rt, op.imm)
				case bFuseLUIORI:
					bset(regs, op.rs, op.aux)
					bset(regs, op.rd, op.imm)
					c.stats.FusedOps++
				case bFuseLUILW:
					v, err := c.loadWord(op.imm)
					if err != nil {
						bset(regs, op.rs, op.aux) // the LUI half retired
						c.Steps += retired
						return c.blockTrap(op.pc+4, 1, err)
					}
					bset(regs, op.rs, op.aux)
					bset(regs, op.rd, v)
					c.stats.FusedOps++
				case bFuseLUISW:
					v := regs[op.rt&31]
					if op.rt == op.rs {
						v = op.aux // sw stores the register the lui just wrote
					}
					if err := c.storeWord(op.imm, v); err != nil {
						bset(regs, op.rs, op.aux)
						c.Steps += retired
						return c.blockTrap(op.pc+4, 1, err)
					}
					bset(regs, op.rs, op.aux)
					c.stats.FusedOps++
					if b.fver != b.frame.Version() {
						c.PC = op.pc + 8
						continue outer // stored into own page: predecode ahead is stale
					}
				case bLW:
					v, err := c.loadWord(regs[op.rs&31] + op.imm)
					if err != nil {
						c.Steps += retired
						return c.blockTrap(op.pc, 1, err)
					}
					bset(regs, op.rt, v)
				case bLB:
					bv, err := c.loadByte(regs[op.rs&31] + op.imm)
					if err != nil {
						c.Steps += retired
						return c.blockTrap(op.pc, 1, err)
					}
					bset(regs, op.rt, uint32(int32(int8(bv))))
				case bLBU:
					bv, err := c.loadByte(regs[op.rs&31] + op.imm)
					if err != nil {
						c.Steps += retired
						return c.blockTrap(op.pc, 1, err)
					}
					bset(regs, op.rt, uint32(bv))
				case bSW:
					if err := c.storeWord(regs[op.rs&31]+op.imm, regs[op.rt&31]); err != nil {
						c.Steps += retired
						return c.blockTrap(op.pc, 1, err)
					}
					if b.fver != b.frame.Version() {
						c.PC = op.pc + 4
						continue outer
					}
				case bSB:
					if err := c.storeByte(regs[op.rs&31]+op.imm, byte(regs[op.rt&31])); err != nil {
						c.Steps += retired
						return c.blockTrap(op.pc, 1, err)
					}
					if b.fver != b.frame.Version() {
						c.PC = op.pc + 4
						continue outer
					}
				case bJ:
					c.PC = op.imm
					slot = &b.taken
				case bJAL:
					bset(regs, isa.RegRA, op.pc+4)
					c.PC = op.imm
					slot = &b.taken
				case bBEQ:
					if regs[op.rs&31] == regs[op.rt&31] {
						c.PC, slot = op.imm, &b.taken
					} else {
						c.PC, slot = op.pc+4, &b.fall
					}
				case bBNE:
					if regs[op.rs&31] != regs[op.rt&31] {
						c.PC, slot = op.imm, &b.taken
					} else {
						c.PC, slot = op.pc+4, &b.fall
					}
				case bBLEZ:
					if int32(regs[op.rs&31]) <= 0 {
						c.PC, slot = op.imm, &b.taken
					} else {
						c.PC, slot = op.pc+4, &b.fall
					}
				case bBGTZ:
					if int32(regs[op.rs&31]) > 0 {
						c.PC, slot = op.imm, &b.taken
					} else {
						c.PC, slot = op.pc+4, &b.fall
					}
				case bJR:
					c.PC = regs[op.rs&31]
				case bJALR:
					ret := op.pc + 4
					c.PC = regs[op.rs&31]
					bset(regs, op.rd, ret)
				case bFuseTramp:
					bset(regs, op.rs, op.aux)
					bset(regs, op.rd, op.imm)
					c.PC = op.imm
					c.stats.FusedOps++
					slot = &b.taken
				case bFuseTrampCall:
					bset(regs, op.rs, op.aux)
					bset(regs, op.rd, op.imm)
					bset(regs, op.rt, op.pc+12)
					c.PC = op.imm
					c.stats.FusedOps++
					slot = &b.taken
				case bSYSCALL:
					c.Steps += retired
					c.PC = op.pc + 4
					c.FlushObsv()
					return EventSyscall, nil
				case bBREAK:
					c.Steps += retired
					c.PC = op.pc + 4
					c.FlushObsv()
					return EventBreak, nil
				case bHALT:
					c.Steps += retired
					c.PC = op.pc
					c.FlushObsv()
					return EventHalt, nil
				case bILLEGAL:
					c.Steps += retired
					return c.blockTrap(op.pc, 1, illegalErr(op.imm))
				case bFALL:
					c.PC = op.imm
					slot = &b.fall
				}
			}
			if slot == nil {
				continue outer // dynamic target: re-enter through the probe
			}
			nb := *slot
			if nb == nil || !nb.valid(c.AS.Gen()) {
				edge = slot
				continue outer // probe/build, then link this edge
			}
			c.stats.BlockHits++
			b = nb
			c.sample(retired)
		}
	}
}

// bset writes a register, dropping writes to $zero. The explicit mask lets
// the compiler elide the bounds check (op register fields are uint8).
func bset(regs *[32]uint32, r uint8, v uint32) {
	if r != 0 {
		regs[r&31] = v
	}
}

// blockTrap exits block execution with a trap at pc. unwind is the number
// of instructions charged on op entry that did not actually retire (the
// trapping instruction itself; its absorbed nops and any fused prefix
// did retire).
func (c *CPU) blockTrap(pc uint32, unwind uint64, err error) (Event, error) {
	c.Steps -= unwind
	c.PC = pc
	ev, terr := c.trap(pc, err)
	c.FlushObsv()
	return ev, terr
}
