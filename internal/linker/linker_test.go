package linker

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/vm"
)

func mustAssemble(t *testing.T, name, src string) *objfile.Object {
	t.Helper()
	o, err := isa.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPlaceLayout(t *testing.T) {
	o := mustAssemble(t, "m.s", `
        .text
        .globl f
f:      nop
        halt
        .data
        .globl v
v:      .word 9
        .comm b, 16
`)
	p, err := Place(o, 0x30100000)
	if err != nil {
		t.Fatal(err)
	}
	if p.TextAddr() != 0x30100000 {
		t.Fatalf("text at 0x%x", p.TextAddr())
	}
	// Data starts on the page after the code, never beside it.
	if p.DataAddr() != 0x30101000 {
		t.Fatalf("data at 0x%x, want the next page 0x30101000", p.DataAddr())
	}
	if p.BssAddr() != 0x30101004 {
		t.Fatalf("bss at 0x%x, want data+4", p.BssAddr())
	}
	if addr, ok := p.AddrOf("v"); !ok || addr != p.DataAddr() {
		t.Fatalf("v at 0x%x", addr)
	}
	if addr, ok := p.AddrOf("b"); !ok || addr != p.BssAddr() {
		t.Fatalf("b at 0x%x", addr)
	}
	if p.Size() != 0x1000+4+16 {
		t.Fatalf("size 0x%x, want 0x%x", p.Size(), 0x1000+4+16)
	}
	// The page boundary is computed from the actual base, not from 0.
	q, err := Place(o, 0x00400010)
	if err != nil {
		t.Fatal(err)
	}
	if q.DataAddr() != 0x00401000 || q.Size() != 0xff0+4+16 {
		t.Fatalf("at 0x00400010: data 0x%x size 0x%x, want 0x00401000 and 0x%x", q.DataAddr(), q.Size(), 0xff0+4+16)
	}
}

// TestPlaceLayoutShapes pins the layout of each section mix: code first
// (text, then its trampoline area), data and bss from the next page
// boundary only when the module also has code.
func TestPlaceLayoutShapes(t *testing.T) {
	jal := []objfile.Symbol{{Name: "far", Section: objfile.SecUndef, Global: true}}
	cases := []struct {
		name                  string
		obj                   *objfile.Object
		base                  uint32
		dataOff, bssOff, size uint32
		writable              bool
	}{
		{"text+data+bss", &objfile.Object{Text: make([]byte, 8), Data: make([]byte, 6), BssSize: 10},
			0, 0x1000, 0x1008, 0x1008 + 12, true},
		{"text only", &objfile.Object{Text: make([]byte, 8)},
			0x400010, 8, 8, 8, false},
		{"data only", &objfile.Object{Data: make([]byte, 6), BssSize: 10},
			0x400010, 0, 8, 8 + 12, true},
		{"bss only", &objfile.Object{BssSize: 10},
			0x400010, 0, 0, 12, true},
		{"text ends on a page boundary", &objfile.Object{Text: make([]byte, 8), Data: make([]byte, 4)},
			0x1ff8, 8, 12, 12, true},
		{"trampoline area is code", &objfile.Object{Text: make([]byte, 8), Data: make([]byte, 4), Symbols: jal,
			Relocs: []objfile.Reloc{{Section: objfile.SecText, Sym: 0, Type: objfile.RelJump26}}},
			0, 0x1000, 0x1004, 0x1004, true},
		{"empty", &objfile.Object{}, 0x400010, 0, 0, 0, false},
	}
	for _, c := range cases {
		c.obj.Name = c.name
		p, err := Place(c.obj, c.base)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]uint32{p.DataAddr() - c.base, p.BssAddr() - c.base, p.Size()}; got != [3]uint32{c.dataOff, c.bssOff, c.size} {
			t.Errorf("%s: data, bss, size = %#x, want %#x", c.name, got, [3]uint32{c.dataOff, c.bssOff, c.size})
		}
		if p.Writable() != c.writable {
			t.Errorf("%s: writable %v, want %v", c.name, p.Writable(), c.writable)
		}
		if img := p.Image(); uint32(len(img)) != c.bssOff {
			t.Errorf("%s: image is %d bytes, want %d", c.name, len(img), c.bssOff)
		}
	}
}

func TestPlaceRejectsGP(t *testing.T) {
	o := mustAssemble(t, "gp.s", ".usesgp\n.text\nnop\n")
	if _, err := Place(o, 0x1000); !errors.Is(err, ErrUsesGP) {
		t.Fatalf("want ErrUsesGP, got %v", err)
	}
}

func TestInternalRelocationHiLo(t *testing.T) {
	// la of a module-internal symbol must compose to the placed address,
	// including the HI16 carry case (data placed past a 0x8000 boundary).
	o := mustAssemble(t, "hilo.s", `
        .text
        .globl f
f:      la      $t0, v
        lw      $t1, 0($t0)
        halt
        .data
        .space  0x7ff8      # push v past the carry boundary
        .globl  v
v:      .word   4242
`)
	base := uint32(0x30100000)
	p, err := Place(o, base)
	if err != nil {
		t.Fatal(err)
	}
	img := p.Image()
	pat := &BytesPatcher{Base: base, B: img}
	pending, err := p.RelocateInternal(pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending relocs on self-contained module: %v", pending)
	}
	// Execute it.
	as := addrspace.New(mem.NewPhysical(0))
	if err := as.MapAnon(base, p.Size(), addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Write(base, img); err != nil {
		t.Fatal(err)
	}
	c := vm.New(as)
	c.PC = base
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[9] != 4242 {
		t.Fatalf("$t1 = %d, want 4242", c.Regs[9])
	}
	vAddr, _ := p.AddrOf("v")
	if c.Regs[8] != vAddr {
		t.Fatalf("$t0 = 0x%x, want 0x%x", c.Regs[8], vAddr)
	}
}

func TestExternalResolution(t *testing.T) {
	o := mustAssemble(t, "ext.s", `
        .text
        la      $t0, other_var
        halt
        .data
ptr:    .word   other_var+8
`)
	base := uint32(0x00400000)
	p, _ := Place(o, base)
	img := p.Image()
	pat := &BytesPatcher{Base: base, B: img}
	// First pass: nothing resolves; relocations stay pending.
	pending, err := p.ApplyRelocs(nil, func(string) (uint32, bool) { return 0, false }, pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 3 { // HI16+LO16+WORD32
		t.Fatalf("pending = %d, want 3", len(pending))
	}
	// Second pass resolves only the pending set.
	table := NewTable()
	table.Define("other_var", 0x30200010, 4)
	left, err := p.ApplyRelocs(pending, table.Resolve, pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("still pending: %v", left)
	}
	// The WORD32 site got S+A.
	ptrAddr, _ := p.AddrOf("ptr")
	got := binary.BigEndian.Uint32(img[ptrAddr-base:])
	if got != 0x30200018 {
		t.Fatalf("pointer = 0x%x, want 0x30200018", got)
	}
	// The HI16/LO16 pair composes to the symbol address.
	hi := isa.Decode(binary.BigEndian.Uint32(img[0:]))
	lo := isa.Decode(binary.BigEndian.Uint32(img[4:]))
	if isa.ComposeHiLo(hi.Imm, lo.Imm) != 0x30200010 {
		t.Fatalf("hi/lo compose to 0x%x", isa.ComposeHiLo(hi.Imm, lo.Imm))
	}
}

func TestJump26WithinRegion(t *testing.T) {
	o := mustAssemble(t, "j.s", `
        .text
        jal     helper
        halt
        .globl  helper
helper: jr      $ra
`)
	base := uint32(0x00400000)
	p, _ := Place(o, base)
	img := p.Image()
	pending, err := p.RelocateInternal(&BytesPatcher{Base: base, B: img})
	if err != nil || len(pending) != 0 {
		t.Fatalf("relocate: %v %v", pending, err)
	}
	w := binary.BigEndian.Uint32(img[0:])
	if got := isa.Jump26Target(w, base); got != base+8 {
		t.Fatalf("jal target 0x%x, want 0x%x", got, base+8)
	}
}

func TestJump26CrossRegionUsesTrampoline(t *testing.T) {
	// A call from private text (region 0) to a shared-segment function
	// (region 3) cannot be encoded in 26 bits; the linker must emit a
	// trampoline and route the call through it.
	o := mustAssemble(t, "far.s", `
        .text
        jal     far_func
        halt
`)
	base := uint32(0x00400000)
	target := uint32(0x30150000)
	p, _ := Place(o, base)
	// Mapped image includes the trampoline area.
	as := addrspace.New(mem.NewPhysical(0))
	if err := as.MapAnon(base, p.Size(), addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Write(base, p.Image()); err != nil {
		t.Fatal(err)
	}
	table := NewTable()
	table.Define("far_func", target, 0)
	pending, err := p.ApplyRelocs(nil, table.Resolve, as)
	if err != nil || len(pending) != 0 {
		t.Fatalf("apply: %v %v", pending, err)
	}
	// The JAL now targets the trampoline, inside this module's area.
	w, _ := as.LoadWord(base)
	tramp := isa.Jump26Target(w, base)
	if tramp < base || tramp >= base+p.Size() {
		t.Fatalf("jal targets 0x%x, outside module [0x%x,+0x%x)", tramp, base, p.Size())
	}
	// Execute: define far_func as halt; the call must arrive there.
	if err := as.MapAnon(addrspace.PageBase(target), mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	as.StoreWord(target, uint32(63)<<26) // halt
	c := vm.New(as)
	c.PC = base
	ev, err := c.Run(20)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("run: %v %v", ev, err)
	}
	if c.PC != target {
		t.Fatalf("halted at 0x%x, want 0x%x", c.PC, target)
	}
	// JAL set $ra to the instruction after the call site, not after the
	// trampoline.
	if c.Regs[isa.RegRA] != base+4 {
		t.Fatalf("$ra = 0x%x, want 0x%x", c.Regs[isa.RegRA], base+4)
	}
}

func TestTrampolinesSharedPerTarget(t *testing.T) {
	o := mustAssemble(t, "two.s", `
        .text
        jal     far_func
        jal     far_func
        halt
`)
	base := uint32(0x00400000)
	p, _ := Place(o, base)
	img := make([]byte, p.Size())
	copy(img, p.Image())
	pat := &BytesPatcher{Base: base, B: img}
	table := NewTable()
	table.Define("far_func", 0x30150000, 0)
	if _, err := p.ApplyRelocs(nil, table.Resolve, pat); err != nil {
		t.Fatal(err)
	}
	w1 := binary.BigEndian.Uint32(img[0:])
	w2 := binary.BigEndian.Uint32(img[4:])
	if isa.Jump26Target(w1, base) != isa.Jump26Target(w2, base+4) {
		t.Fatal("two jumps to one target should share a trampoline")
	}
	if p.trampUsed != isa.TrampolineSize {
		t.Fatalf("trampUsed = %d, want one fragment", p.trampUsed)
	}
}

func TestTableDuplicateDetection(t *testing.T) {
	tb := NewTable()
	if err := tb.Define("x", 0x1000, 4); err != nil {
		t.Fatal(err)
	}
	// Same address is idempotent.
	if err := tb.Define("x", 0x1000, 4); err != nil {
		t.Fatal(err)
	}
	if err := tb.Define("x", 0x2000, 4); !errors.Is(err, ErrDuplicateSymbol) {
		t.Fatalf("want ErrDuplicateSymbol, got %v", err)
	}
	if addr, _ := tb.Resolve("x"); addr != 0x1000 {
		t.Fatalf("x = 0x%x", addr)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestAddExports(t *testing.T) {
	o := mustAssemble(t, "e.s", `
        .text
        .globl f
f:      halt
local:  nop
        .data
        .globl g
g:      .word 1
`)
	p, _ := Place(o, 0x30100000)
	tb := NewTable()
	if err := tb.AddExports(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Resolve("local"); ok {
		t.Fatal("local symbol exported")
	}
	if addr, ok := tb.Resolve("g"); !ok || addr != p.DataAddr() {
		t.Fatalf("g = 0x%x, %v", addr, ok)
	}
}

func TestBytesPatcherBounds(t *testing.T) {
	bp := &BytesPatcher{Base: 0x1000, B: make([]byte, 8)}
	if err := bp.StoreWord(0x1004, 1); err != nil {
		t.Fatal(err)
	}
	if err := bp.StoreWord(0x1008, 1); err == nil {
		t.Fatal("out-of-bounds store accepted")
	}
	if _, err := bp.LoadWord(0x0FFC); err == nil {
		t.Fatal("below-base load accepted")
	}
}

func TestGPRelocRejected(t *testing.T) {
	// A module that slips a GPREL16 reloc past the UsesGP flag is still
	// rejected at relocation time.
	o := &objfile.Object{
		Name:    "gp.o",
		Text:    make([]byte, 4),
		Symbols: []objfile.Symbol{{Name: "v", Section: objfile.SecData}},
		Data:    make([]byte, 4),
		Relocs:  []objfile.Reloc{{Section: objfile.SecText, Offset: 0, Sym: 0, Type: objfile.RelGPRel16}},
	}
	p, err := Place(o, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	img := p.Image()
	if _, err := p.RelocateInternal(&BytesPatcher{Base: 0x1000, B: img}); !errors.Is(err, ErrUsesGP) {
		t.Fatalf("want ErrUsesGP, got %v", err)
	}
}

func TestBranchRangeError(t *testing.T) {
	o := &objfile.Object{
		Name:    "br.o",
		Text:    make([]byte, 4),
		Symbols: []objfile.Symbol{{Name: "far", Section: objfile.SecUndef, Global: true}},
		Relocs:  []objfile.Reloc{{Section: objfile.SecText, Offset: 0, Sym: 0, Type: objfile.RelBranch16}},
	}
	p, _ := Place(o, 0x1000)
	img := p.Image()
	tb := NewTable()
	tb.Define("far", 0x30000000, 0)
	_, err := p.ApplyRelocs(nil, tb.Resolve, &BytesPatcher{Base: 0x1000, B: img})
	if !errors.Is(err, ErrBranchRange) {
		t.Fatalf("want ErrBranchRange, got %v", err)
	}
}

// Property: for any symbol address and addend, applying the HI16/LO16 pair
// to a lui/addiu sequence composes to exactly S+A, and WORD32 stores S+A
// verbatim.
func TestRelocationCompositionProperty(t *testing.T) {
	f := func(sym uint32, addend int16) bool {
		o := &objfile.Object{
			Name: "p.o",
			Text: make([]byte, 8),
			Data: make([]byte, 4),
			Symbols: []objfile.Symbol{
				{Name: "x", Section: objfile.SecUndef, Global: true},
			},
			Relocs: []objfile.Reloc{
				{Section: objfile.SecText, Offset: 0, Sym: 0, Type: objfile.RelHi16, Addend: int32(addend)},
				{Section: objfile.SecText, Offset: 4, Sym: 0, Type: objfile.RelLo16, Addend: int32(addend)},
				{Section: objfile.SecData, Offset: 0, Sym: 0, Type: objfile.RelWord32, Addend: int32(addend)},
			},
		}
		p, err := Place(o, 0x00400000)
		if err != nil {
			return false
		}
		img := p.Image()
		// Seed the instruction words so the patched immediates land in
		// real lui/addiu encodings.
		binary.BigEndian.PutUint32(img[0:], isa.EncodeI(isa.OpLUI, 8, 0, 0))
		binary.BigEndian.PutUint32(img[4:], isa.EncodeI(isa.OpADDIU, 8, 8, 0))
		tb := NewTable()
		tb.Define("x", sym, 0)
		left, err := p.ApplyRelocs(nil, tb.Resolve, &BytesPatcher{Base: 0x00400000, B: img})
		if err != nil || len(left) != 0 {
			return false
		}
		want := sym + uint32(int32(addend))
		hi := isa.Decode(binary.BigEndian.Uint32(img[0:])).Imm
		lo := isa.Decode(binary.BigEndian.Uint32(img[4:])).Imm
		if isa.ComposeHiLo(hi, lo) != want {
			return false
		}
		return binary.BigEndian.Uint32(img[p.DataAddr()-p.Base:]) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
