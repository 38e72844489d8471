// Package objfile defines the HEMO object-module format, Hemlock's
// equivalent of the Unix .o file.
//
// The paper's central move is to make the unit of sharing — the module —
// correspond to an object file, "the lowest common denominator for language
// implementations". A template .o contains text, initialised data, bss
// size, a symbol table, relocations, and (when pre-processed by lds with
// the retain-relocation option) a module list and search path used by
// scoped linking. Public modules are created from templates and internally
// relocated to a globally-agreed virtual address; private modules are
// instantiated per process.
//
// The package also defines the load-image format (the a.out that lds
// produces), which retains relocation information explicitly because —
// like IRIX ld — a finished executable normally wouldn't keep it, and ldl
// needs it to resolve undefined references in the statically-linked portion
// of the program from symbols found at run time.
package objfile

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Class is a sharing class, assigned module-by-module in the arguments to
// lds (Table 1 of the paper).
type Class uint8

// The four sharing classes.
const (
	StaticPrivate  Class = iota // linked at static link time, new instance per process, private addresses
	DynamicPrivate              // linked at run time, new instance per process, private addresses
	StaticPublic                // linked at static link time, one persistent instance, public address
	DynamicPublic               // linked at run time, one persistent instance, public address
)

func (c Class) String() string {
	switch c {
	case StaticPrivate:
		return "static private"
	case DynamicPrivate:
		return "dynamic private"
	case StaticPublic:
		return "static public"
	case DynamicPublic:
		return "dynamic public"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Static reports whether the class is linked at static link time.
func (c Class) Static() bool { return c == StaticPrivate || c == StaticPublic }

// Public reports whether the class names a persistent module at a public
// address (no per-process instance).
func (c Class) Public() bool { return c == StaticPublic || c == DynamicPublic }

// Section identifies which part of a module a symbol or relocation lives in.
type Section uint8

// Sections.
const (
	SecUndef Section = iota // undefined external reference
	SecText                 // machine code
	SecData                 // initialised data
	SecBss                  // zero-initialised data (size only)
	SecAbs                  // absolute value, not relocated
)

func (s Section) String() string {
	switch s {
	case SecUndef:
		return "undef"
	case SecText:
		return "text"
	case SecData:
		return "data"
	case SecBss:
		return "bss"
	case SecAbs:
		return "abs"
	}
	return fmt.Sprintf("section(%d)", uint8(s))
}

// Symbol is one entry in a module's symbol table. For defined symbols Value
// is the offset within Section (or the absolute value for SecAbs); for
// undefined symbols it is zero.
type Symbol struct {
	Name    string
	Section Section
	Value   uint32
	Global  bool // visible to other modules
	Size    uint32
}

// Defined reports whether the symbol has a definition in this module.
func (s *Symbol) Defined() bool { return s.Section != SecUndef }

// RelType is a relocation kind, modelled on the R3000 relocations the
// IRIX linker wrangles.
type RelType uint8

// Relocation kinds.
const (
	RelWord32   RelType = iota // 32-bit absolute address in data or text
	RelHi16                    // high 16 bits of address (LUI), carry-adjusted
	RelLo16                    // low 16 bits of address (ORI/LW/SW immediate)
	RelJump26                  // 26-bit word-address field of J/JAL; target must share the top 4 address bits
	RelBranch16                // PC-relative signed 16-bit word offset (BEQ/BNE)
	RelGPRel16                 // 16-bit gp-relative offset; incompatible with the sparse shared region
)

func (r RelType) String() string {
	switch r {
	case RelWord32:
		return "WORD32"
	case RelHi16:
		return "HI16"
	case RelLo16:
		return "LO16"
	case RelJump26:
		return "JUMP26"
	case RelBranch16:
		return "BRANCH16"
	case RelGPRel16:
		return "GPREL16"
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// Reloc is one relocation record: patch the word at Offset within Section
// using the address of symbol Sym plus Addend.
type Reloc struct {
	Section Section // SecText or SecData
	Offset  uint32
	Sym     int // index into the symbol table
	Type    RelType
	Addend  int32
}

// ModuleRef names a module dependency together with the sharing class the
// referencing module wants for it. Dependencies drive ldl's recursive,
// scoped inclusion (Figure 2).
type ModuleRef struct {
	Name  string
	Class Class
}

// Object is a HEMO object module (template).
type Object struct {
	Name    string // module name, e.g. "shared1.o"
	UsesGP  bool   // compiled with the global-pointer register enabled
	Text    []byte
	Data    []byte
	BssSize uint32
	Symbols []Symbol
	Relocs  []Reloc

	// Deps and SearchPath are the module's own module list and search
	// path, recorded when the template was pre-processed by lds. They are
	// the scope information used by scoped linking: a module's undefined
	// references resolve first against modules found via its own list and
	// path, then against its parent's, and so on up the DAG.
	Deps       []ModuleRef
	SearchPath []string
}

// SymbolIndex returns the index of the named symbol, or -1.
func (o *Object) SymbolIndex(name string) int {
	for i := range o.Symbols {
		if o.Symbols[i].Name == name {
			return i
		}
	}
	return -1
}

// Lookup returns the named symbol if present.
func (o *Object) Lookup(name string) (*Symbol, bool) {
	if i := o.SymbolIndex(name); i >= 0 {
		return &o.Symbols[i], true
	}
	return nil, false
}

// Exports returns the names of global, defined symbols in sorted order.
func (o *Object) Exports() []string {
	var out []string
	for i := range o.Symbols {
		if s := &o.Symbols[i]; s.Global && s.Defined() {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Undefined returns the names of undefined external references in sorted
// order.
func (o *Object) Undefined() []string {
	var out []string
	for i := range o.Symbols {
		if s := &o.Symbols[i]; !s.Defined() {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// SectionSize returns the byte size of a section.
func (o *Object) SectionSize(s Section) uint32 {
	switch s {
	case SecText:
		return uint32(len(o.Text))
	case SecData:
		return uint32(len(o.Data))
	case SecBss:
		return o.BssSize
	}
	return 0
}

// Validate checks internal consistency: relocation offsets within bounds,
// symbol indices valid, symbol values inside their sections, duplicate
// global definitions rejected.
func (o *Object) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("objfile: module has no name")
	}
	if len(o.Text)%4 != 0 {
		return fmt.Errorf("objfile: %s: text size %d not word aligned", o.Name, len(o.Text))
	}
	seen := map[string]bool{}
	for i := range o.Symbols {
		s := &o.Symbols[i]
		if s.Name == "" {
			return fmt.Errorf("objfile: %s: symbol %d has empty name", o.Name, i)
		}
		if s.Global && s.Defined() {
			if seen[s.Name] {
				return fmt.Errorf("objfile: %s: duplicate global definition of %q", o.Name, s.Name)
			}
			seen[s.Name] = true
		}
		switch s.Section {
		case SecText:
			if s.Value > uint32(len(o.Text)) {
				return fmt.Errorf("objfile: %s: symbol %q beyond text", o.Name, s.Name)
			}
		case SecData:
			if s.Value > uint32(len(o.Data)) {
				return fmt.Errorf("objfile: %s: symbol %q beyond data", o.Name, s.Name)
			}
		case SecBss:
			if s.Value > o.BssSize {
				return fmt.Errorf("objfile: %s: symbol %q beyond bss", o.Name, s.Name)
			}
		}
	}
	for i, r := range o.Relocs {
		if r.Sym < 0 || r.Sym >= len(o.Symbols) {
			return fmt.Errorf("objfile: %s: reloc %d has bad symbol index %d", o.Name, i, r.Sym)
		}
		var lim uint32
		switch r.Section {
		case SecText:
			lim = uint32(len(o.Text))
		case SecData:
			lim = uint32(len(o.Data))
		default:
			return fmt.Errorf("objfile: %s: reloc %d in non-patchable section %v", o.Name, i, r.Section)
		}
		if r.Offset+4 > lim {
			return fmt.Errorf("objfile: %s: reloc %d offset 0x%x beyond %v", o.Name, i, r.Offset, r.Section)
		}
		if r.Offset%4 != 0 {
			return fmt.Errorf("objfile: %s: reloc %d offset 0x%x unaligned", o.Name, i, r.Offset)
		}
	}
	return nil
}

// Clone returns a deep copy of the object (templates are instantiated per
// process for private classes, and instantiation must not scribble on the
// template).
func (o *Object) Clone() *Object {
	c := &Object{
		Name:    o.Name,
		UsesGP:  o.UsesGP,
		Text:    append([]byte(nil), o.Text...),
		Data:    append([]byte(nil), o.Data...),
		BssSize: o.BssSize,
		Symbols: append([]Symbol(nil), o.Symbols...),
		Relocs:  append([]Reloc(nil), o.Relocs...),
		Deps:    append([]ModuleRef(nil), o.Deps...),
	}
	c.SearchPath = append([]string(nil), o.SearchPath...)
	return c
}

// ---- load image ----------------------------------------------------------

// ImageSym is a symbol in a linked load image, at an absolute virtual
// address.
type ImageSym struct {
	Name string
	Addr uint32
	Size uint32
}

// ImageReloc is a retained relocation in a load image: a patch site at an
// absolute virtual address referring to a (possibly still undefined)
// symbol name. IRIX ld refuses to retain relocation information for an
// executable, so lds saves it in this explicit data structure.
type ImageReloc struct {
	Addr   uint32
	Name   string
	Type   RelType
	Addend int32
}

// DynInfo is the data structure lds creates for ldl: the dynamic modules to
// be located at run time, the static public modules already assigned
// addresses, and a description of the search strategy lds used.
type DynInfo struct {
	// DynModules lists modules with a dynamic sharing class, to be found,
	// created if necessary (public only), mapped and linked by ldl.
	DynModules []ModuleRef
	// StaticPublic lists static-public modules and the shared-file-system
	// paths lds resolved them to; ldl maps them before main runs and
	// creates any that do not yet exist from their templates.
	StaticPublic []StaticPublicRef
	// LinkDir is the directory in which static linking occurred.
	LinkDir string
	// CmdPath is the search path given on the lds command line.
	CmdPath []string
	// EnvPath is the LD_LIBRARY_PATH at static link time.
	EnvPath []string
	// DefaultPath is the default library directories.
	DefaultPath []string
}

// StaticPublicRef names a static public module, its shared-fs image path,
// its template path, and its assigned base address.
type StaticPublicRef struct {
	Name     string
	Path     string // shared-fs path of the module instance
	Template string // path of the template .o it is created from
	Addr     uint32
}

// Image is a linked load image (the a.out lds produces): the statically
// linked private portion plus everything ldl needs at run time.
type Image struct {
	Name     string
	Entry    uint32 // entry point (the special crt0 start)
	TextBase uint32
	Text     []byte
	DataBase uint32
	Data     []byte
	BssBase  uint32
	BssSize  uint32

	// TrampBase/TrampSize describe a reserved, executable trampoline area
	// lds leaves at the end of the image for over-long jumps whose targets
	// only become known at run time (when ldl resolves retained
	// relocations).
	TrampBase uint32
	TrampSize uint32

	Symbols []ImageSym   // global symbols at absolute addresses
	Relocs  []ImageReloc // retained relocations (undefined refs from the static portion)
	Dyn     DynInfo

	// PLT lists the jump-table stubs lds emitted for calls to symbols
	// unknown at static link time (the SunOS-style optimisation the paper
	// plans to adopt: "modules first accessed by calling a (named)
	// function will be linked without fault-handling overhead"). Addr is
	// the stub's address inside the image text; Name is the function it
	// stands in for. The stub traps to ldl on first call and is patched
	// into a direct trampoline.
	PLT []ImageSym

	linkHash atomic.Uint64 // LinkHash's value; 0 until first computed
}

// LinkHash returns the FNV-1a 64 hash of the image's HEMX encoding
// (ImageBytes), so every field the codec carries is in it. It fails only
// where ImageBytes does. The hash is computed once per image and kept
// with the image, so it is freed with the image; DecodeImageBytes stores
// the hash of the bytes it decoded, which are the image's encoding because
// the codec is canonical (FuzzDecodeImage holds it to that). Images are
// never changed after lds builds or DecodeImageBytes decodes them, so the
// value stays right for the image's life. ldl derives each launch key from
// it. A zero hash is recomputed each call.
func (im *Image) LinkHash() (uint64, error) {
	if h := im.linkHash.Load(); h != 0 {
		return h, nil
	}
	b, err := im.ImageBytes()
	if err != nil {
		return 0, err
	}
	h := fnv1a64(b)
	im.linkHash.Store(h)
	return h, nil
}

// fnv1a64 is the FNV-1a 64 hash of b.
func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211 // FNV-1a 64 prime
	}
	return h
}

// Lookup returns the address of a global symbol in the image.
func (im *Image) Lookup(name string) (uint32, bool) {
	for i := range im.Symbols {
		if im.Symbols[i].Name == name {
			return im.Symbols[i].Addr, true
		}
	}
	return 0, false
}

// UndefinedRelocs returns the names referenced by retained relocations, in
// sorted, deduplicated order.
func (im *Image) UndefinedRelocs() []string {
	set := map[string]bool{}
	for i := range im.Relocs {
		set[im.Relocs[i].Name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
