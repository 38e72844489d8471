package objfile

import (
	"encoding/binary"
	"fmt"
)

// Builder constructs HEMO objects programmatically. It is the moral
// equivalent of the compiler in Figure 1: examples use it to produce the
// template .o files in which shared variables are defined, while the
// assembler (internal/isa) produces code-bearing templates from source.
type Builder struct {
	o    *Object
	errs []error
}

// NewBuilder returns a builder for a module with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{o: &Object{Name: name}}
}

func (b *Builder) errf(format string, args ...interface{}) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// symIndex returns the index of name, creating an undefined global
// reference if it is not yet in the table.
func (b *Builder) symIndex(name string) int {
	if i := b.o.SymbolIndex(name); i >= 0 {
		return i
	}
	b.o.Symbols = append(b.o.Symbols, Symbol{Name: name, Section: SecUndef, Global: true})
	return len(b.o.Symbols) - 1
}

func (b *Builder) define(name string, sec Section, value, size uint32, global bool) {
	if i := b.o.SymbolIndex(name); i >= 0 {
		s := &b.o.Symbols[i]
		if s.Defined() {
			b.errf("objfile: duplicate definition of %q in %s", name, b.o.Name)
			return
		}
		s.Section, s.Value, s.Size, s.Global = sec, value, size, global
		return
	}
	b.o.Symbols = append(b.o.Symbols, Symbol{Name: name, Section: sec, Value: value, Size: size, Global: global})
}

// Extern declares an undefined external reference.
func (b *Builder) Extern(name string) *Builder {
	b.symIndex(name)
	return b
}

// Word defines a 4-byte initialised data object.
func (b *Builder) Word(name string, val uint32, global bool) *Builder {
	b.padData(4)
	off := uint32(len(b.o.Data))
	var w [4]byte
	binary.BigEndian.PutUint32(w[:], val)
	b.o.Data = append(b.o.Data, w[:]...)
	b.define(name, SecData, off, 4, global)
	return b
}

// Words defines a named array of 4-byte words.
func (b *Builder) Words(name string, vals []uint32, global bool) *Builder {
	b.padData(4)
	off := uint32(len(b.o.Data))
	for _, v := range vals {
		var w [4]byte
		binary.BigEndian.PutUint32(w[:], v)
		b.o.Data = append(b.o.Data, w[:]...)
	}
	b.define(name, SecData, off, uint32(4*len(vals)), global)
	return b
}

// Bytes defines an initialised byte-array data object (padded to a word).
func (b *Builder) Bytes(name string, data []byte, global bool) *Builder {
	b.padData(4)
	off := uint32(len(b.o.Data))
	b.o.Data = append(b.o.Data, data...)
	b.define(name, SecData, off, uint32(len(data)), global)
	return b
}

// String defines a NUL-terminated string data object.
func (b *Builder) String(name, s string, global bool) *Builder {
	return b.Bytes(name, append([]byte(s), 0), global)
}

// Bss defines a zero-initialised object of the given size.
func (b *Builder) Bss(name string, size uint32, global bool) *Builder {
	b.o.BssSize = (b.o.BssSize + 3) &^ 3
	off := b.o.BssSize
	b.o.BssSize += size
	b.define(name, SecBss, off, size, global)
	return b
}

// Pointer defines a 4-byte data object holding the address of target (+
// addend): an absolute internal or cross-module pointer, patched by the
// linker via a WORD32 relocation. This is the paper's "files with internal
// pointers" mechanism.
func (b *Builder) Pointer(name, target string, addend int32, global bool) *Builder {
	b.padData(4)
	off := uint32(len(b.o.Data))
	b.o.Data = append(b.o.Data, 0, 0, 0, 0)
	b.define(name, SecData, off, 4, global)
	b.o.Relocs = append(b.o.Relocs, Reloc{Section: SecData, Offset: off, Sym: b.symIndex(target), Type: RelWord32, Addend: addend})
	return b
}

// PointerAt patches an existing 4-byte data slot at off to hold the address
// of target (+ addend).
func (b *Builder) PointerAt(off uint32, target string, addend int32) *Builder {
	if off+4 > uint32(len(b.o.Data)) || off%4 != 0 {
		b.errf("objfile: PointerAt offset 0x%x invalid in %s", off, b.o.Name)
		return b
	}
	b.o.Relocs = append(b.o.Relocs, Reloc{Section: SecData, Offset: off, Sym: b.symIndex(target), Type: RelWord32, Addend: addend})
	return b
}

// Text appends instruction words with a label at their start.
func (b *Builder) Text(label string, words []uint32, global bool) *Builder {
	off := uint32(len(b.o.Text))
	for _, w := range words {
		var enc [4]byte
		binary.BigEndian.PutUint32(enc[:], w)
		b.o.Text = append(b.o.Text, enc[:]...)
	}
	b.define(label, SecText, off, uint32(4*len(words)), global)
	return b
}

// Dep records a module dependency with its sharing class.
func (b *Builder) Dep(name string, class Class) *Builder {
	b.o.Deps = append(b.o.Deps, ModuleRef{Name: name, Class: class})
	return b
}

// SearchPath sets the module's own search path (scope information).
func (b *Builder) SearchPath(dirs ...string) *Builder {
	b.o.SearchPath = append(b.o.SearchPath, dirs...)
	return b
}

func (b *Builder) padData(align uint32) {
	for uint32(len(b.o.Data))%align != 0 {
		b.o.Data = append(b.o.Data, 0)
	}
}

// Build validates and returns the object. The builder must not be reused.
func (b *Builder) Build() (*Object, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.o.Validate(); err != nil {
		return nil, err
	}
	return b.o, nil
}

// MustBuild is Build for tests and examples with static inputs.
func (b *Builder) MustBuild() *Object {
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	return o
}
