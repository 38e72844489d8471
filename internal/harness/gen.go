package harness

import (
	"math/rand"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/layout"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

// The generated-program memory image. Text is RWX so stores into it are
// legal self-modifying code (the block-invalidation case the engine must
// get right); the read-only page provides protection faults; the shared
// page is frame-backed the way shmfs segments are.
const (
	genTextBase   = layout.TextBase // 2 pages, RWX
	genTextPages  = 2
	genTextWords  = genTextPages * mem.PageSize / 4
	genDataBase   = layout.PrivDataBase          // 1 page, RW
	genROBase     = layout.PrivDataBase + 0x4000 // 1 page, R
	genSharedBase = layout.SharedBase            // 1 page, RW, frame-backed
)

// image is one generated program plus its initial memory and registers —
// everything needed to instantiate any number of bit-identical CPUs.
type image struct {
	text   []uint32
	data   [mem.PageSize]byte
	ro     [mem.PageSize]byte
	shared [mem.PageSize]byte
	regs   [32]uint32
}

// genImage draws a complete program image from rng. The first draw picks
// the program shape: mostly the uniform instruction mix, with dedicated
// shapes that concentrate on what the block engine optimises — hot loops
// (chained blocks entered thousands of times), LUI-pair idioms (macro-op
// fusion), and store-into-text gadgets layered over loops (invalidation of
// already-chained successors). Shapes only skew the distribution; every
// image still runs bit-identically on all execution paths.
func genImage(rng *rand.Rand) *image {
	shape := rng.Intn(10)
	im := &image{text: make([]uint32, genTextWords)}
	rng.Read(im.data[:])
	rng.Read(im.ro[:])
	rng.Read(im.shared[:])

	// Base registers the instruction mix leans on: page bases in r8-r11,
	// planted jump/load targets in r12-r15, random values elsewhere.
	im.regs[8] = genTextBase
	im.regs[9] = genDataBase
	im.regs[10] = genROBase
	im.regs[11] = genSharedBase
	im.regs[12] = genTextBase + uint32(rng.Intn(genTextWords))*4
	im.regs[13] = genTextBase + uint32(rng.Intn(genTextWords))*4
	im.regs[14] = genDataBase + uint32(rng.Intn(mem.PageSize/4))*4
	im.regs[15] = genSharedBase + uint32(rng.Intn(mem.PageSize/4))*4
	for r := 16; r < 32; r++ {
		im.regs[r] = rng.Uint32()
	}

	for i := 0; i < genTextWords; i++ {
		im.text[i] = genInst(rng, i)
	}
	switch {
	case shape < 5: // uniform mix only
	case shape < 7:
		stampHotLoops(rng, im.text)
	case shape < 9:
		stampIdioms(rng, im.text)
	default:
		// Loops first, then stores aimed at text: the stores patch words
		// that blocks chained around the loops have already translated.
		stampHotLoops(rng, im.text)
		stampTextStores(rng, im.text)
	}
	// A halt backstop at the end of text, so straight-line runs stop
	// instead of walking off the mapping (which would also be fine — both
	// paths would fault identically — but ends more runs cleanly).
	for i := genTextWords - 4; i < genTextWords; i++ {
		im.text[i] = uint32(isa.OpHALT) << 26
	}
	return im
}

// stampHotLoops overwrites random text spots with bounded countdown loops:
// andi caps the counter at 63, then addiu/bgtz spin it to zero. Each gadget
// re-enters its own block up to 63 times, which is what heats block
// chaining; control flow that lands mid-gadget is still well-formed code.
func stampHotLoops(rng *rand.Rand, text []uint32) {
	for g := 0; g < 8; g++ {
		w := rng.Intn(len(text) - 8)
		r := 16 + rng.Intn(10)
		text[w] = isa.EncodeI(isa.OpANDI, r, r, 63)
		text[w+1] = isa.EncodeI(isa.OpADDIU, r, r, 0xFFFF) // -1
		text[w+2] = isa.EncodeI(isa.OpBGTZ, 0, r, 0xFFFE)  // back to the addiu
	}
}

// stampIdioms overwrites random text spots with the address-materialisation
// sequences fusion targets: LUI+ORI constants, LUI+absolute loads/stores,
// and full lui/ori/jr|jalr trampolines to in-text targets.
func stampIdioms(rng *rand.Rand, text []uint32) {
	bases := []uint32{genTextBase, genDataBase, genROBase, genSharedBase}
	for g := 0; g < 32; g++ {
		w := rng.Intn(len(text) - 8)
		r := 16 + rng.Intn(10)
		base := bases[rng.Intn(len(bases))]
		off := uint16(base) | uint16(rng.Intn(mem.PageSize/4)*4)
		switch rng.Intn(4) {
		case 0: // composed constant (usually a region address)
			text[w] = isa.EncodeI(isa.OpLUI, r, 0, uint16(base>>16))
			text[w+1] = isa.EncodeI(isa.OpORI, r, r, off)
		case 1: // absolute load
			op := isa.OpLW
			if rng.Intn(3) == 0 {
				op = isa.OpLBU
			}
			text[w] = isa.EncodeI(isa.OpLUI, r, 0, uint16(base>>16))
			text[w+1] = isa.EncodeI(op, genDst(rng), r, off)
		case 2: // absolute store (self-modifying code when base is text)
			op := isa.OpSW
			if rng.Intn(3) == 0 {
				op = isa.OpSB
			}
			text[w] = isa.EncodeI(isa.OpLUI, r, 0, uint16(base>>16))
			text[w+1] = isa.EncodeI(op, rng.Intn(32), r, off)
		case 3: // call trampoline to a planted in-text target
			target := genTextBase + uint32(rng.Intn(len(text)))*4
			text[w] = isa.EncodeI(isa.OpLUI, r, 0, uint16(target>>16))
			text[w+1] = isa.EncodeI(isa.OpORI, r, r, uint16(target))
			if rng.Intn(2) == 0 {
				text[w+2] = isa.EncodeR(isa.FnJR, 0, r, 0, 0)
			} else {
				text[w+2] = isa.EncodeR(isa.FnJALR, genDst(rng), r, 0, 0)
			}
		}
	}
}

// stampTextStores overwrites random text spots with word-aligned stores
// through the text base register: each one rewrites some text word — often
// one inside or just past a stamped loop — so already-chained successor
// blocks go stale mid-run.
func stampTextStores(rng *rand.Rand, text []uint32) {
	for g := 0; g < 24; g++ {
		w := rng.Intn(len(text) - 8)
		text[w] = isa.EncodeI(isa.OpSW, rng.Intn(32), 8, uint16(rng.Intn(len(text)))*4)
	}
}

// reg picks a general destination register, avoiding $zero (writes to it
// are legal no-ops, covered separately) and usually preserving the base
// registers r8-r15 so memory traffic stays interesting.
func genDst(rng *rand.Rand) int {
	if rng.Intn(8) == 0 {
		return rng.Intn(32) // occasionally anything, including $zero and bases
	}
	return 16 + rng.Intn(10) // r16..r25
}

// genInst draws one instruction for text word index wi.
func genInst(rng *rand.Rand, wi int) uint32 {
	aluFns := []int{
		isa.FnADD, isa.FnADDU, isa.FnSUB, isa.FnSUBU, isa.FnAND, isa.FnOR,
		isa.FnXOR, isa.FnNOR, isa.FnSLT, isa.FnSLTU, isa.FnMUL, isa.FnDIV,
	}
	anyReg := func() int { return rng.Intn(32) }
	baseReg := func() int { return 8 + rng.Intn(8) } // r8..r15
	switch p := rng.Intn(100); {
	case p < 20: // R-type ALU (div included: div-by-zero traps are coverage)
		return isa.EncodeR(aluFns[rng.Intn(len(aluFns))], genDst(rng), anyReg(), anyReg(), 0)
	case p < 28: // shifts, constant and variable
		switch rng.Intn(6) {
		case 0:
			return isa.EncodeR(isa.FnSLL, genDst(rng), 0, anyReg(), rng.Intn(32))
		case 1:
			return isa.EncodeR(isa.FnSRL, genDst(rng), 0, anyReg(), rng.Intn(32))
		case 2:
			return isa.EncodeR(isa.FnSRA, genDst(rng), 0, anyReg(), rng.Intn(32))
		case 3:
			return isa.EncodeR(isa.FnSLLV, genDst(rng), anyReg(), anyReg(), 0)
		case 4:
			return isa.EncodeR(isa.FnSRLV, genDst(rng), anyReg(), anyReg(), 0)
		}
		return isa.EncodeR(isa.FnSRAV, genDst(rng), anyReg(), anyReg(), 0)
	case p < 40: // I-type ALU
		ops := []int{isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU, isa.OpANDI, isa.OpORI, isa.OpXORI}
		return isa.EncodeI(ops[rng.Intn(len(ops))], genDst(rng), anyReg(), uint16(rng.Uint32()))
	case p < 45: // LUI/ORI pair start: materialise a region address high half
		bases := []uint32{genTextBase, genDataBase, genROBase, genSharedBase}
		return isa.EncodeI(isa.OpLUI, 12+rng.Intn(4), 0, uint16(bases[rng.Intn(len(bases))]>>16))
	case p < 63: // loads and stores
		ops := []int{isa.OpLW, isa.OpLB, isa.OpLBU, isa.OpSW, isa.OpSB}
		op := ops[rng.Intn(len(ops))]
		var off uint16
		switch rng.Intn(10) {
		case 0: // wild offset: unmapped faults, negative reaches
			off = uint16(rng.Uint32())
		case 1: // unaligned (matters for lw/sw)
			off = uint16(rng.Intn(mem.PageSize))
		default: // in-page, word-aligned
			off = uint16(rng.Intn(mem.PageSize/4)) * 4
		}
		// Stores with a text base register are self-modifying code.
		return isa.EncodeI(op, genDst(rng), baseReg(), off)
	case p < 71: // branches within text
		ops := []int{isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ}
		op := ops[rng.Intn(len(ops))]
		target := rng.Intn(genTextWords)
		imm := uint16(int16(target - (wi + 1)))
		rt := anyReg()
		if op == isa.OpBLEZ || op == isa.OpBGTZ {
			rt = 0
		}
		return isa.EncodeI(op, rt, anyReg(), imm)
	case p < 77: // 26-bit jumps within text
		op := isa.OpJ
		if rng.Intn(2) == 0 {
			op = isa.OpJAL
		}
		return isa.EncodeJ(op, genTextBase+uint32(rng.Intn(genTextWords))*4)
	case p < 81: // register jumps: planted targets mostly, garbage sometimes
		rs := 12 + rng.Intn(2) // r12/r13 hold text addresses
		if rng.Intn(6) == 0 {
			rs = anyReg()
		}
		if rng.Intn(2) == 0 {
			return isa.EncodeR(isa.FnJR, 0, rs, 0, 0)
		}
		return isa.EncodeR(isa.FnJALR, genDst(rng), rs, 0, 0)
	case p < 84: // syscall/break (PC advances, driver records and continues)
		if rng.Intn(2) == 0 {
			return isa.EncodeR(isa.FnSYSCALL, 0, 0, 0, 0)
		}
		return isa.EncodeR(isa.FnBREAK, 0, 0, 0, 0)
	case p < 85: // halt
		return uint32(isa.OpHALT) << 26
	default: // nop filler keeps straight-line stretches common
		return isa.Nop
	}
}

// instantiate materialises the image into a fresh CPU with its own
// address space. Calling it twice yields two independent, bit-identical
// machines — the precondition for a meaningful differential run.
func (im *image) instantiate() (*vm.CPU, error) {
	phys := mem.NewPhysical(0)
	as := addrspace.New(phys)
	if err := as.MapAnon(genTextBase, genTextPages*mem.PageSize, addrspace.ProtRWX); err != nil {
		return nil, err
	}
	for i, w := range im.text {
		if err := as.StoreWord(genTextBase+uint32(i)*4, w); err != nil {
			return nil, err
		}
	}
	if err := as.MapAnon(genDataBase, mem.PageSize, addrspace.ProtRW); err != nil {
		return nil, err
	}
	if _, err := as.Write(genDataBase, im.data[:]); err != nil {
		return nil, err
	}
	// The read-only page is populated while mapped RW, then downgraded —
	// the same dance a loader does, and a Protect-generation bump the
	// TLB must observe.
	if err := as.MapAnon(genROBase, mem.PageSize, addrspace.ProtRW); err != nil {
		return nil, err
	}
	if _, err := as.Write(genROBase, im.ro[:]); err != nil {
		return nil, err
	}
	if err := as.Protect(genROBase, mem.PageSize, addrspace.ProtRead); err != nil {
		return nil, err
	}
	// The shared page is frame-backed (MapFrames), the way shmfs maps
	// public segments into a process.
	frames, err := phys.AllocN(1)
	if err != nil {
		return nil, err
	}
	copy(frames[0].Data[:], im.shared[:])
	if err := as.MapFrames(genSharedBase, frames, addrspace.ProtRW); err != nil {
		return nil, err
	}

	c := vm.New(as)
	c.PC = genTextBase
	c.Regs = im.regs
	return c, nil
}
