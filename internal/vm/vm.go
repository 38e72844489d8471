// Package vm implements the interpreting CPU for R3K-lite.
//
// The CPU executes instructions against a simulated address space. A memory
// access that faults leaves the architectural state (PC and registers)
// exactly as it was before the instruction, so the kernel can run Hemlock's
// user-level fault handler and then simply resume: the faulting instruction
// restarts, which is precisely the behaviour the paper's SIGSEGV-driven
// lazy linking and map-on-pointer-dereference depend on ("It then restarts
// the faulting instruction").
//
// # Two executors
//
// RunBatch is the one production executor: the basic-block engine
// (block.go) decodes straight-line runs once, chains and fuses them, and
// reaches data through a per-CPU direct-mapped D-TLB validated against the
// address space's mapping generation (addrspace.Space.Gen). Blocks are
// validated against the backing frame's store version (mem.Frame.Version),
// so a store into live text — ldl patching a trampoline or jump-table
// slot, self-modifying code, a store from another process sharing the
// frame — is picked up on the very next fetch.
//
// Stores pay for sharing only where memory is shared. A D-TLB fill
// chooses the store tier: a frame this space holds alone, untracked by
// netshm (mem.Frame.Private), takes plain host stores, with a version
// bump only if a block was ever decoded from it; every other frame takes
// the version bump and the host-atomic store. The choice lasts until the
// space's generation moves, and every way a frame gains a second holder
// moves it (dentry states the rule). The step budget is charged once per
// block, not once per instruction.
//
// Step is the cache-free reference: every fetch, load and store goes
// straight through the address space. The differential harness holds
// RunBatch bit-identical to it, and the block engine uses it to retire a
// batch's last instructions when the budget ends inside a block.
package vm

import (
	"errors"
	"fmt"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/obsv"
)

// Event reports why Step returned without error.
type Event uint8

// Step outcomes.
const (
	EventStep    Event = iota // one ordinary instruction retired
	EventHalt                 // HALT executed
	EventSyscall              // SYSCALL executed; PC already advanced
	EventBreak                // BREAK executed; PC already advanced
)

func (e Event) String() string {
	switch e {
	case EventStep:
		return "step"
	case EventHalt:
		return "halt"
	case EventSyscall:
		return "syscall"
	case EventBreak:
		return "break"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Trap is a CPU exception: an illegal instruction, arithmetic trap, or a
// memory fault (in which case Unwrap yields the *addrspace.Fault). PC is
// the address of the instruction that trapped; it has not been retired.
type Trap struct {
	PC  uint32
	Err error
}

func (t *Trap) Error() string { return fmt.Sprintf("vm: trap at pc 0x%08x: %v", t.PC, t.Err) }
func (t *Trap) Unwrap() error { return t.Err }

// FaultOf extracts the memory fault from err, if err is a Trap wrapping one.
func FaultOf(err error) (*addrspace.Fault, bool) {
	var f *addrspace.Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// ErrIllegal is wrapped by traps on undecodable instructions.
var ErrIllegal = errors.New("illegal instruction")

// ErrDivZero is wrapped by traps on division by zero.
var ErrDivZero = errors.New("integer divide by zero")

// D-TLB geometry. Direct-mapped: the low index bits of the VPN pick the
// slot, the full VPN is the tag. Sized for the working sets the linkers
// produce (an image, a few shared modules, a stack) rather than for
// associativity games.
const (
	tlbBits = 6
	tlbSize = 1 << tlbBits // D-TLB entries per CPU

	pageWords = mem.PageSize / 4
)

// tlbEnt is one software-TLB slot. A slot is a hit when the VPN tag
// matches, it grants the access and the space generation has not moved;
// an empty slot grants nothing.
type tlbEnt struct {
	frame *mem.Frame
	gen   uint64
	vpn   uint32
	prot  addrspace.Prot
	priv  bool // writable and private at fill: stores take the plain tier
}

// pinst is one decoded instruction word: the fields isa.Inst carries,
// packed into 12 bytes.
type pinst struct {
	word      uint32
	imm       uint16
	op, fn    uint8
	rs, rt    uint8
	rd, shamt uint8
}

func predecode(w uint32) pinst {
	return pinst{
		word:  w,
		imm:   uint16(w),
		op:    uint8(w >> 26),
		fn:    uint8(w & 63),
		rs:    uint8(w >> 21 & 31),
		rt:    uint8(w >> 16 & 31),
		rd:    uint8(w >> 11 & 31),
		shamt: uint8(w >> 6 & 31),
	}
}

// CacheStats is the cumulative D-TLB and block-engine accounting for one
// CPU.
type CacheStats struct {
	TLBHits        uint64 // D-TLB hit: no lock, no map lookup
	TLBMisses      uint64 // slow-path Translate (fills a slot, or builds a block)
	TLBFillPrivate uint64 // fills that chose the private store tier

	BlockBuilds uint64 // basic blocks decoded (vm.block_build)
	BlockHits   uint64 // block entries served without a build (vm.block_hit)
	BlockInvals uint64 // rebuilds of a stale block: SMC, PLT patch, remap
	FusedOps    uint64 // fused macro-ops executed (vm.fused_ops)
}

// CPU is one simulated processor context.
type CPU struct {
	Regs  [32]uint32
	PC    uint32
	AS    *addrspace.Space
	Steps uint64 // retired instruction count
	Traps uint64 // traps raised (memory faults, illegal instructions, div0)

	// CtrTraps, when wired (kern.Spawn does), mirrors Traps into the
	// kernel-wide vm.traps counter. Nil-safe; fork shares the pointer.
	CtrTraps *obsv.Counter

	// Cache counters (vm.tlb_hit, vm.tlb_miss, vm.tlb_fill_private), wired
	// by kern.Spawn. The hot path accumulates in the plain per-CPU stats
	// fields; FlushObsv folds the deltas into these shared atomics at
	// batch boundaries.
	CtrTLBHit, CtrTLBMiss, CtrTLBFillPrivate *obsv.Counter

	// Block-engine counters (vm.block_build, vm.block_hit,
	// vm.block_invalidate, vm.fused_ops), wired by kern.Spawn and folded
	// by FlushObsv like the cache counters.
	CtrBlockBuild, CtrBlockHit, CtrBlockInval, CtrFusedOps *obsv.Counter

	stats   CacheStats
	flushed CacheStats

	// sampler, when installed via SetSampler, receives guest-PC samples at
	// batch and block boundaries. Nil (the default) costs one comparison
	// per boundary.
	sampler Sampler

	dtlb [tlbSize]tlbEnt

	// bc is the basic-block cache, allocated on first use: the 4 KB
	// pointer array would otherwise dominate the size of a CPU that never
	// runs (zygote clones pay one CPU allocation per launch).
	bc *[bcSize]*block
}

// New returns a CPU bound to the given address space.
func New(as *addrspace.Space) *CPU {
	return &CPU{AS: as}
}

func (c *CPU) set(r uint8, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// trap records and returns a CPU exception at pc.
func (c *CPU) trap(pc uint32, err error) (Event, error) {
	c.Traps++
	c.CtrTraps.Inc()
	return EventStep, &Trap{PC: pc, Err: err}
}

// CacheStats returns the CPU's cumulative D-TLB and block statistics.
func (c *CPU) CacheStats() CacheStats { return c.stats }

// FlushObsv folds cache statistics accumulated since the last flush into
// the wired obsv counters. RunBatch calls it on every exit, so `hemlock
// stats` sees up-to-date numbers without the hot path touching an atomic
// per instruction.
func (c *CPU) FlushObsv() {
	c.CtrTLBHit.Add(c.stats.TLBHits - c.flushed.TLBHits)
	c.CtrTLBMiss.Add(c.stats.TLBMisses - c.flushed.TLBMisses)
	c.CtrTLBFillPrivate.Add(c.stats.TLBFillPrivate - c.flushed.TLBFillPrivate)
	c.CtrBlockBuild.Add(c.stats.BlockBuilds - c.flushed.BlockBuilds)
	c.CtrBlockHit.Add(c.stats.BlockHits - c.flushed.BlockHits)
	c.CtrBlockInval.Add(c.stats.BlockInvals - c.flushed.BlockInvals)
	c.CtrFusedOps.Add(c.stats.FusedOps - c.flushed.FusedOps)
	c.flushed = c.stats
}

// dhit returns the D-TLB slot for page vp if it grants need under the
// space's current generation, else nil. An empty slot grants nothing. It
// is small enough to inline, so the op loop serves an lw hit, and an sw
// hit on a private slot, without a call; everything else goes through
// loadWord/storeWord.
func (c *CPU) dhit(vp uint32, need addrspace.Prot) *tlbEnt {
	e := &c.dtlb[vp&(tlbSize-1)]
	if e.vpn == vp && e.prot&need != 0 && e.gen == c.AS.Gen() {
		return e
	}
	return nil
}

// dentry returns a valid D-TLB entry for addr with the needed right,
// filling the slot from the address space on a miss. The returned *Fault
// is non-nil when translation fails.
func (c *CPU) dentry(addr uint32, a addrspace.Access) (*tlbEnt, *addrspace.Fault) {
	vp := addr >> mem.PageShift
	if e := c.dhit(vp, a.Need()); e != nil {
		c.stats.TLBHits++
		return e, nil
	}
	ent, flt := c.AS.Translate(addr, a)
	if flt != nil {
		return nil, flt
	}
	c.stats.TLBMisses++
	// The store tier is chosen here and kept until the space's generation
	// moves. A writable frame this space holds alone, untracked by netshm,
	// is private: stores through the slot are plain host stores. That is
	// sound because nothing else can read the frame while the slot lives.
	// A frame gains a second holder only through addrspace.Space.ForkInto,
	// which moves the source space's generation whenever it shares a page,
	// or through MapFrames, whose caller already holds the frames, so none
	// of them was private. And one CPU runs against a space at a time:
	// each process has one vm.CPU, and a task moves between host CPUs
	// through the scheduler's lock.
	priv := ent.Prot&addrspace.ProtWrite != 0 && ent.Frame.Private()
	if priv {
		c.stats.TLBFillPrivate++
	}
	e := &c.dtlb[vp&(tlbSize-1)]
	e.frame, e.gen, e.vpn, e.prot, e.priv = ent.Frame, ent.Gen, vp, ent.Prot, priv
	return e, nil
}

func (c *CPU) loadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return c.AS.LoadWord(addr) // canonical unaligned error
	}
	e, flt := c.dentry(addr, addrspace.AccessRead)
	if flt != nil {
		return 0, flt
	}
	return e.frame.LoadWordBE(addr & (mem.PageSize - 1)), nil
}

func (c *CPU) loadByte(addr uint32) (byte, error) {
	e, flt := c.dentry(addr, addrspace.AccessRead)
	if flt != nil {
		return 0, flt
	}
	return e.frame.Data[addr&(mem.PageSize-1)], nil
}

func (c *CPU) storeWord(addr, val uint32) error {
	if addr&3 != 0 {
		return c.AS.StoreWord(addr, val) // canonical unaligned error
	}
	e, flt := c.dentry(addr, addrspace.AccessWrite)
	if flt != nil {
		return flt
	}
	// Self-modifying-code protocol: the store bumps the frame version
	// before the bytes change, so any block decoded from this frame — ours
	// or a sibling CPU's — fails its version check on next entry. A
	// private frame skips the bump until a block is decoded from it. A
	// shared frame's store is host-atomic: a sibling CPU concurrently
	// loading or fetching this word sees the old word or the new one,
	// never a torn mix.
	if e.priv {
		e.frame.StorePrivateWordBE(addr, val)
	} else {
		e.frame.StoreWordBE(addr, val)
	}
	return nil
}

func (c *CPU) storeByte(addr uint32, val byte) error {
	e, flt := c.dentry(addr, addrspace.AccessWrite)
	if flt != nil {
		return flt
	}
	if e.priv {
		e.frame.StorePrivateByte(addr&(mem.PageSize-1), val)
		return nil
	}
	e.frame.NoteStoreRange(addr&(mem.PageSize-1), 1)
	e.frame.Data[addr&(mem.PageSize-1)] = val
	return nil
}

// Step fetches, decodes and executes one instruction with every memory
// access routed through the address space directly: no D-TLB probe, no
// block, no generation or frame-version shortcut. It is the reference the
// differential harness holds RunBatch against. On a memory fault it
// returns a *Trap and leaves PC/registers untouched so the instruction can
// be restarted after the fault is serviced.
func (c *CPU) Step() (Event, error) {
	w, err := c.AS.FetchWord(c.PC)
	if err != nil {
		return c.trap(c.PC, err)
	}
	return c.exec(predecode(w))
}

// exec retires one decoded instruction.
func (c *CPU) exec(in pinst) (Event, error) {
	next := c.PC + 4
	switch in.op {
	case isa.OpSpecial:
		switch in.fn {
		case isa.FnSLL:
			c.set(in.rd, c.Regs[in.rt]<<uint(in.shamt))
		case isa.FnSRL:
			c.set(in.rd, c.Regs[in.rt]>>uint(in.shamt))
		case isa.FnSRA:
			c.set(in.rd, uint32(int32(c.Regs[in.rt])>>uint(in.shamt)))
		case isa.FnSLLV:
			c.set(in.rd, c.Regs[in.rt]<<(c.Regs[in.rs]&31))
		case isa.FnSRLV:
			c.set(in.rd, c.Regs[in.rt]>>(c.Regs[in.rs]&31))
		case isa.FnSRAV:
			c.set(in.rd, uint32(int32(c.Regs[in.rt])>>(c.Regs[in.rs]&31)))
		case isa.FnJR:
			next = c.Regs[in.rs]
		case isa.FnJALR:
			ret := c.PC + 4
			next = c.Regs[in.rs]
			c.set(in.rd, ret)
		case isa.FnSYSCALL:
			c.PC = next
			c.Steps++
			return EventSyscall, nil
		case isa.FnBREAK:
			c.PC = next
			c.Steps++
			return EventBreak, nil
		case isa.FnMUL:
			c.set(in.rd, c.Regs[in.rs]*c.Regs[in.rt])
		case isa.FnDIV:
			if c.Regs[in.rt] == 0 {
				return c.trap(c.PC, ErrDivZero)
			}
			c.set(in.rd, uint32(int32(c.Regs[in.rs])/int32(c.Regs[in.rt])))
		case isa.FnADD, isa.FnADDU:
			c.set(in.rd, c.Regs[in.rs]+c.Regs[in.rt])
		case isa.FnSUB, isa.FnSUBU:
			c.set(in.rd, c.Regs[in.rs]-c.Regs[in.rt])
		case isa.FnAND:
			c.set(in.rd, c.Regs[in.rs]&c.Regs[in.rt])
		case isa.FnOR:
			c.set(in.rd, c.Regs[in.rs]|c.Regs[in.rt])
		case isa.FnXOR:
			c.set(in.rd, c.Regs[in.rs]^c.Regs[in.rt])
		case isa.FnNOR:
			c.set(in.rd, ^(c.Regs[in.rs] | c.Regs[in.rt]))
		case isa.FnSLT:
			if int32(c.Regs[in.rs]) < int32(c.Regs[in.rt]) {
				c.set(in.rd, 1)
			} else {
				c.set(in.rd, 0)
			}
		case isa.FnSLTU:
			if c.Regs[in.rs] < c.Regs[in.rt] {
				c.set(in.rd, 1)
			} else {
				c.set(in.rd, 0)
			}
		default:
			return c.trap(c.PC, fmt.Errorf("%w: special funct %d", ErrIllegal, in.fn))
		}
	case isa.OpJ:
		next = isa.Jump26Target(in.word, c.PC)
	case isa.OpJAL:
		c.set(isa.RegRA, c.PC+4)
		next = isa.Jump26Target(in.word, c.PC)
	case isa.OpBEQ:
		if c.Regs[in.rs] == c.Regs[in.rt] {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpBNE:
		if c.Regs[in.rs] != c.Regs[in.rt] {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpBLEZ:
		if int32(c.Regs[in.rs]) <= 0 {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpBGTZ:
		if int32(c.Regs[in.rs]) > 0 {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpADDI, isa.OpADDIU:
		c.set(in.rt, c.Regs[in.rs]+isa.SignExt(in.imm))
	case isa.OpSLTI:
		if int32(c.Regs[in.rs]) < int32(isa.SignExt(in.imm)) {
			c.set(in.rt, 1)
		} else {
			c.set(in.rt, 0)
		}
	case isa.OpSLTIU:
		if c.Regs[in.rs] < isa.SignExt(in.imm) {
			c.set(in.rt, 1)
		} else {
			c.set(in.rt, 0)
		}
	case isa.OpANDI:
		c.set(in.rt, c.Regs[in.rs]&uint32(in.imm))
	case isa.OpORI:
		c.set(in.rt, c.Regs[in.rs]|uint32(in.imm))
	case isa.OpXORI:
		c.set(in.rt, c.Regs[in.rs]^uint32(in.imm))
	case isa.OpLUI:
		c.set(in.rt, uint32(in.imm)<<16)
	case isa.OpLW:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		v, err := c.AS.LoadWord(addr)
		if err != nil {
			return c.trap(c.PC, err)
		}
		c.set(in.rt, v)
	case isa.OpLB:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		b, err := c.AS.LoadByte(addr)
		if err != nil {
			return c.trap(c.PC, err)
		}
		c.set(in.rt, uint32(int32(int8(b))))
	case isa.OpLBU:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		b, err := c.AS.LoadByte(addr)
		if err != nil {
			return c.trap(c.PC, err)
		}
		c.set(in.rt, uint32(b))
	case isa.OpSW:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		if err := c.AS.StoreWord(addr, c.Regs[in.rt]); err != nil {
			return c.trap(c.PC, err)
		}
	case isa.OpSB:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		if err := c.AS.StoreByte(addr, byte(c.Regs[in.rt])); err != nil {
			return c.trap(c.PC, err)
		}
	case isa.OpHALT:
		c.Steps++
		return EventHalt, nil
	default:
		return c.trap(c.PC, fmt.Errorf("%w: opcode %d", ErrIllegal, in.op))
	}
	c.PC = next
	c.Steps++
	return EventStep, nil
}

// Run executes until a non-step event, a trap, or maxSteps instructions.
// It is a convenience for tests that do not need a kernel; real programs
// run under kern, which services faults and syscalls.
func (c *CPU) Run(maxSteps uint64) (Event, error) {
	ev, err := c.RunBatch(maxSteps)
	if err != nil || ev != EventStep {
		return ev, err
	}
	return EventStep, fmt.Errorf("vm: exceeded %d steps at pc 0x%08x", maxSteps, c.PC)
}

// ArchState is a CPU's architectural state — registers, PC,
// retired-instruction and trap counts, sampler — without its address
// space, wired counters or caches. Fork copies it from parent to child; a
// parked zygote template, which never runs, keeps one instead of a CPU.
type ArchState struct {
	Regs    [32]uint32
	PC      uint32
	Steps   uint64
	Traps   uint64
	sampler Sampler
}

// ArchState returns c's architectural state.
func (c *CPU) ArchState() ArchState {
	return ArchState{Regs: c.Regs, PC: c.PC, Steps: c.Steps, Traps: c.Traps, sampler: c.sampler}
}

// SetArchState loads a into c, keeping c's own address space, wired
// counters and caches. fork uses it to reuse the CPU Spawn already
// allocated instead of paying for a second CPU per clone, and a
// protection-domain call uses it to restore the server's state. Cache
// state is deliberately not part of ArchState: a forked child runs
// against a different address space whose generation counter starts
// fresh, so inherited entries could falsely validate against the parent's
// frames.
func (c *CPU) SetArchState(a ArchState) {
	c.Regs = a.Regs
	c.PC = a.PC
	c.Steps = a.Steps
	c.Traps = a.Traps
	c.sampler = a.sampler
}
