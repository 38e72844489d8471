// Package linker implements the machinery shared by lds (the static linker)
// and ldl (the lazy dynamic linker): module placement, symbol tables,
// relocation application, and over-long-branch trampolines.
//
// The linkers "relocate modules to reside at particular addresses (by
// finalizing absolute references to internal symbols ...), and they link
// modules together by resolving cross-module references". Relocation
// application is incremental: references whose symbols cannot yet be
// resolved are left pending, which is what makes fault-driven lazy linking
// possible — ldl maps a module without access permissions and resolves the
// pending set when the first touch faults.
package linker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
)

// Errors.
var (
	ErrDuplicateSymbol = errors.New("linker: duplicate symbol definition")
	ErrUsesGP          = errors.New("linker: module compiled with gp register enabled (24-bit offsets are incompatible with a large sparse address space)")
	ErrBranchRange     = errors.New("linker: branch target out of range")
	ErrTrampolines     = errors.New("linker: trampoline area exhausted")
)

// Placed is a module instance assigned a base address. Code comes first:
// text at Base, then the trampoline area for over-long jump fragments.
// Data and bss follow, word-aligned, starting at the next page boundary
// when the module also has code, so no page holds both code and writable
// bytes. The block engine checks each translation against the store
// version of the one frame it was decoded from, so a store to a global on
// a code page would rebuild that page's code. A module with only code, or
// only writable sections, gets no padding.
type Placed struct {
	Obj  *objfile.Object
	Base uint32

	trampOff  uint32 // offset of the trampoline area, right after text
	trampUsed uint32
	trampSize uint32
	dataOff   uint32
	bssOff    uint32

	// trampFor memoises trampoline addresses per target so multiple
	// over-long jumps to one target share a fragment.
	trampFor map[uint32]uint32
}

// Place assigns obj the given base address. It fails for gp-using modules:
// ldl "insists that modules be compiled with a flag that disables use of
// the processor's performance-enhancing global pointer register".
func Place(obj *objfile.Object, base uint32) (*Placed, error) {
	if obj.UsesGP {
		return nil, fmt.Errorf("%w: %s", ErrUsesGP, obj.Name)
	}
	trampOff := align4(uint32(len(obj.Text)))
	trampSize := TrampolineReserve(obj)
	dataOff := trampOff + trampSize
	if dataOff > 0 && (len(obj.Data) > 0 || obj.BssSize > 0) {
		dataOff = mem.PageCeil(base+dataOff) - base
	}
	return &Placed{
		Obj:       obj,
		Base:      base,
		trampOff:  trampOff,
		trampSize: trampSize,
		dataOff:   dataOff,
		bssOff:    dataOff + align4(uint32(len(obj.Data))),
		trampFor:  map[uint32]uint32{},
	}, nil
}

// Clone returns a copy of p with its own trampoline bookkeeping. A forked
// process's private instance inherits the fragments written before the
// fork, in its copy of the memory, but must write any later one itself.
func (p *Placed) Clone() *Placed {
	c := *p
	c.trampFor = make(map[uint32]uint32, len(p.trampFor))
	for target, addr := range p.trampFor {
		c.trampFor[target] = addr
	}
	return &c
}

func align4(v uint32) uint32 { return (v + 3) &^ 3 }

// TrampolineReserve returns the worst-case trampoline area size for a
// module: one fragment per JUMP26 relocation.
func TrampolineReserve(obj *objfile.Object) uint32 {
	var n uint32
	for _, r := range obj.Relocs {
		if r.Type == objfile.RelJump26 {
			n++
		}
	}
	return n * isa.TrampolineSize
}

// Size returns the total mapped size of the placed module: code,
// trampoline area, any padding, data and bss.
func (p *Placed) Size() uint32 { return p.bssOff + align4(p.Obj.BssSize) }

// Writable reports whether the module has writable bytes: data or bss.
func (p *Placed) Writable() bool { return p.Size() > p.dataOff }

// TextAddr/DataAddr/BssAddr return the section base addresses.
func (p *Placed) TextAddr() uint32 { return p.Base }

// DataAddr returns the data section base address.
func (p *Placed) DataAddr() uint32 { return p.Base + p.dataOff }

// BssAddr returns the bss base address.
func (p *Placed) BssAddr() uint32 { return p.Base + p.bssOff }

// SymAddr returns the absolute address of symbol index i; undefined
// symbols report ok=false.
func (p *Placed) SymAddr(i int) (uint32, bool) {
	s := &p.Obj.Symbols[i]
	switch s.Section {
	case objfile.SecText:
		return p.Base + s.Value, true
	case objfile.SecData:
		return p.Base + p.dataOff + s.Value, true
	case objfile.SecBss:
		return p.Base + p.bssOff + s.Value, true
	case objfile.SecAbs:
		return s.Value, true
	}
	return 0, false
}

// AddrOf returns the absolute address of a named symbol.
func (p *Placed) AddrOf(name string) (uint32, bool) {
	i := p.Obj.SymbolIndex(name)
	if i < 0 {
		return 0, false
	}
	return p.SymAddr(i)
}

// Exports returns the module's global defined symbols with their absolute
// addresses, name-sorted.
func (p *Placed) Exports() []objfile.ImageSym {
	var out []objfile.ImageSym
	for i := range p.Obj.Symbols {
		s := &p.Obj.Symbols[i]
		if !s.Global || !s.Defined() {
			continue
		}
		addr, _ := p.SymAddr(i)
		out = append(out, objfile.ImageSym{Name: s.Name, Addr: addr, Size: s.Size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Image returns the initialised bytes of the placed module (text, the
// still-empty trampoline area and padding as zeros, then data) ready to be
// written at Base. Bss is zero and needs no bytes.
func (p *Placed) Image() []byte {
	img := make([]byte, p.bssOff)
	copy(img, p.Obj.Text)
	copy(img[p.dataOff:], p.Obj.Data)
	return img
}

// ---- patchers --------------------------------------------------------------

// Patcher is where relocations are applied: either a raw byte image being
// assembled by lds, or a live address space being patched by ldl.
// *addrspace.Space satisfies Patcher directly.
type Patcher interface {
	LoadWord(addr uint32) (uint32, error)
	StoreWord(addr, val uint32) error
}

// BytesPatcher applies relocations to an in-memory image that will later
// be written to a file or load image. Addresses are absolute; the byte
// slice covers [Base, Base+len).
type BytesPatcher struct {
	Base uint32
	B    []byte
}

// LoadWord reads the big-endian word at the absolute address addr.
func (bp *BytesPatcher) LoadWord(addr uint32) (uint32, error) {
	off := addr - bp.Base
	if addr < bp.Base || int(off)+4 > len(bp.B) {
		return 0, fmt.Errorf("linker: patch address 0x%08x outside image [0x%08x,+0x%x)", addr, bp.Base, len(bp.B))
	}
	return binary.BigEndian.Uint32(bp.B[off:]), nil
}

// StoreWord writes the big-endian word at the absolute address addr.
func (bp *BytesPatcher) StoreWord(addr, val uint32) error {
	off := addr - bp.Base
	if addr < bp.Base || int(off)+4 > len(bp.B) {
		return fmt.Errorf("linker: patch address 0x%08x outside image [0x%08x,+0x%x)", addr, bp.Base, len(bp.B))
	}
	binary.BigEndian.PutUint32(bp.B[off:], val)
	return nil
}

// ---- symbol tables ----------------------------------------------------------

// Table is a symbol table mapping names to absolute addresses.
type Table struct {
	syms map[string]objfile.ImageSym
}

// NewTable returns an empty symbol table.
func NewTable() *Table { return &Table{syms: map[string]objfile.ImageSym{}} }

// Define adds a symbol, rejecting duplicates: "if more than one module
// exports an object with a given name, the linker either picks one ... or
// reports an error" — Table reports the error; scoped linking (package ldl)
// is what avoids the conflict.
func (t *Table) Define(name string, addr, size uint32) error {
	if old, dup := t.syms[name]; dup {
		if old.Addr == addr {
			return nil
		}
		return fmt.Errorf("%w: %q at 0x%08x and 0x%08x", ErrDuplicateSymbol, name, old.Addr, addr)
	}
	t.syms[name] = objfile.ImageSym{Name: name, Addr: addr, Size: size}
	return nil
}

// AddExports defines every global symbol of a placed module.
func (t *Table) AddExports(p *Placed) error {
	for _, s := range p.Exports() {
		if err := t.Define(s.Name, s.Addr, s.Size); err != nil {
			return err
		}
	}
	return nil
}

// Resolve looks a name up.
func (t *Table) Resolve(name string) (uint32, bool) {
	s, ok := t.syms[name]
	return s.Addr, ok
}

// Symbols returns all entries name-sorted.
func (t *Table) Symbols() []objfile.ImageSym {
	out := make([]objfile.ImageSym, 0, len(t.syms))
	for _, s := range t.syms {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of symbols.
func (t *Table) Len() int { return len(t.syms) }

// Resolver maps a symbol name to an address. The bool reports success;
// unresolved references stay pending (for lazy linking) rather than
// failing.
type Resolver func(name string) (uint32, bool)

// ---- relocation application -------------------------------------------------

// siteAddr returns the absolute address of a relocation site.
func (p *Placed) siteAddr(r *objfile.Reloc) uint32 {
	if r.Section == objfile.SecData {
		return p.Base + p.dataOff + r.Offset
	}
	return p.Base + r.Offset
}

// SiteAddr returns the absolute address of a relocation site (lds uses it
// to convert a module's pending relocations into retained image
// relocations).
func (p *Placed) SiteAddr(r *objfile.Reloc) uint32 { return p.siteAddr(r) }

// trampoline returns (allocating if needed) the address of a trampoline
// fragment that jumps to target, writing its code through pat.
func (p *Placed) trampoline(target uint32, pat Patcher) (uint32, error) {
	if addr, ok := p.trampFor[target]; ok {
		return addr, nil
	}
	if p.trampUsed+isa.TrampolineSize > p.trampSize {
		return 0, fmt.Errorf("%w: module %s", ErrTrampolines, p.Obj.Name)
	}
	addr := p.Base + p.trampOff + p.trampUsed
	for i, w := range isa.TrampolineWords(target, false) {
		if err := pat.StoreWord(addr+uint32(i)*4, w); err != nil {
			return 0, err
		}
	}
	p.trampUsed += isa.TrampolineSize
	p.trampFor[target] = addr
	return addr, nil
}

// apply applies a single relocation given the resolved symbol address.
func (p *Placed) apply(r *objfile.Reloc, symAddr uint32, pat Patcher) error {
	site := p.siteAddr(r)
	target := symAddr + uint32(r.Addend)
	w, err := pat.LoadWord(site)
	if err != nil {
		return err
	}
	switch r.Type {
	case objfile.RelWord32:
		return pat.StoreWord(site, target)
	case objfile.RelHi16:
		return pat.StoreWord(site, isa.PatchImm16(w, isa.Hi16(target)))
	case objfile.RelLo16:
		return pat.StoreWord(site, isa.PatchImm16(w, isa.Lo16(target)))
	case objfile.RelJump26:
		if !isa.JumpReach(site, target) {
			// "lds and ldl arrange for over-long branches to be replaced
			// with jumps to new, nearby code fragments that load the
			// appropriate target address into a register and jump
			// indirectly." The fragment lives in the module's trampoline
			// area, which IS reachable (same placement).
			tramp, terr := p.trampoline(target, pat)
			if terr != nil {
				return terr
			}
			if !isa.JumpReach(site, tramp) {
				return fmt.Errorf("linker: trampoline at 0x%08x unreachable from 0x%08x", tramp, site)
			}
			target = tramp
		}
		return pat.StoreWord(site, isa.PatchJump26(w, target))
	case objfile.RelBranch16:
		off, ok := isa.BranchOffset(site, target)
		if !ok {
			return fmt.Errorf("%w: from 0x%08x to 0x%08x", ErrBranchRange, site, target)
		}
		return pat.StoreWord(site, isa.PatchImm16(w, off))
	case objfile.RelGPRel16:
		return fmt.Errorf("%w: %s has a gp-relative reference", ErrUsesGP, p.Obj.Name)
	}
	return fmt.Errorf("linker: unknown relocation type %v", r.Type)
}

// ApplyRelocs applies every relocation in relocs whose symbol resolves
// (internal symbols resolve through the placement itself; external ones
// through resolve). It returns the still-pending relocations. A nil relocs
// means "all of the module's relocations".
func (p *Placed) ApplyRelocs(relocs []objfile.Reloc, resolve Resolver, pat Patcher) ([]objfile.Reloc, error) {
	if relocs == nil {
		relocs = p.Obj.Relocs
	}
	var pending []objfile.Reloc
	for i := range relocs {
		r := relocs[i]
		sym := &p.Obj.Symbols[r.Sym]
		var addr uint32
		if sym.Defined() {
			a, ok := p.SymAddr(r.Sym)
			if !ok {
				return nil, fmt.Errorf("linker: cannot place symbol %q", sym.Name)
			}
			addr = a
		} else if resolve != nil {
			a, ok := resolve(sym.Name)
			if !ok {
				pending = append(pending, r)
				continue
			}
			addr = a
		} else {
			pending = append(pending, r)
			continue
		}
		if err := p.apply(&r, addr, pat); err != nil {
			return nil, err
		}
	}
	return pending, nil
}

// RelocateInternal applies only the module-internal relocations (what
// "internally relocated on the assumption that it resides at that address"
// means for a freshly created public module) and returns the external
// references still pending.
func (p *Placed) RelocateInternal(pat Patcher) ([]objfile.Reloc, error) {
	return p.ApplyRelocs(nil, nil, pat)
}
