package objfile

import (
	"fmt"

	"hemlock/internal/wire"
)

// Binary encoding of HEMO objects and HEMX images, built from the
// internal/wire primitives: big-endian integers like the simulated
// machine, strings as u16 length + bytes, blobs as u32 length + bytes,
// lists as a u32 count + elements, flags as one 0/1 byte.
//
//	HEMO: "HEMO" | version u32 | name string | usesGP u8 | text blob |
//	      data blob | bss u32 |
//	      symbols: (name string | section u8 | value u32 | global u8 | size u32)* |
//	      relocs:  (section u8 | offset u32 | sym u32 | type u8 | addend i32)* |
//	      deps:    (name string | class u8)* | search path: string*
//
//	HEMX: "HEMX" | version u32 | name string | entry u32 | text base u32 |
//	      text blob | data base u32 | data blob | bss base u32 | bss u32 |
//	      tramp base u32 | tramp size u32 |
//	      symbols: (name string | addr u32 | size u32)* |
//	      relocs:  (addr u32 | name string | type u8 | addend i32)* |
//	      dyn modules: (name string | class u8)* |
//	      static public: (name string | path string | template string | addr u32)* |
//	      link dir string | cmd path: string* | env path: string* |
//	      default path: string* | plt: (name string | addr u32 | size u32)*

const (
	objMagic   = "HEMO"
	imgMagic   = "HEMX"
	objVersion = 1
)

// Bytes returns the HEMO encoding of the object.
func (o *Object) Bytes() ([]byte, error) {
	e := wire.NewEncoder(nil)
	e.Raw([]byte(objMagic))
	e.U32(objVersion)
	e.Str(o.Name)
	e.Bool(o.UsesGP)
	e.Blob(o.Text)
	e.Blob(o.Data)
	e.U32(o.BssSize)
	e.Count32(len(o.Symbols))
	for _, s := range o.Symbols {
		e.Str(s.Name)
		e.U8(uint8(s.Section))
		e.U32(s.Value)
		e.Bool(s.Global)
		e.U32(s.Size)
	}
	e.Count32(len(o.Relocs))
	for _, r := range o.Relocs {
		e.U8(uint8(r.Section))
		e.U32(r.Offset)
		e.U32(uint32(r.Sym))
		e.U8(uint8(r.Type))
		e.U32(uint32(r.Addend))
	}
	encodeModuleRefs(e, o.Deps)
	e.Strs(o.SearchPath)
	return e.Bytes()
}

// DecodeBytes decodes a HEMO object.
func DecodeBytes(b []byte) (*Object, error) {
	d := wire.NewDecoder(b)
	if err := decodeHeader(d, objMagic, "HEMO object"); err != nil {
		return nil, err
	}
	o := &Object{
		Name:    d.Str(),
		UsesGP:  d.Bool(),
		Text:    d.Blob(),
		Data:    d.Blob(),
		BssSize: d.U32(),
	}
	if n := d.Count32(12); n > 0 {
		o.Symbols = make([]Symbol, n)
		for i := range o.Symbols {
			o.Symbols[i] = Symbol{
				Name:    d.Str(),
				Section: Section(d.U8()),
				Value:   d.U32(),
				Global:  d.Bool(),
				Size:    d.U32(),
			}
		}
	}
	if n := d.Count32(14); n > 0 {
		o.Relocs = make([]Reloc, n)
		for i := range o.Relocs {
			o.Relocs[i] = Reloc{
				Section: Section(d.U8()),
				Offset:  d.U32(),
				Sym:     int(d.U32()),
				Type:    RelType(d.U8()),
				Addend:  int32(d.U32()),
			}
		}
	}
	o.Deps = decodeModuleRefs(d)
	o.SearchPath = d.Strs()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("objfile: decoding %q: %w", o.Name, err)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// ImageBytes returns the HEMX encoding of the image.
func (im *Image) ImageBytes() ([]byte, error) {
	e := wire.NewEncoder(nil)
	e.Raw([]byte(imgMagic))
	e.U32(objVersion)
	e.Str(im.Name)
	e.U32(im.Entry)
	e.U32(im.TextBase)
	e.Blob(im.Text)
	e.U32(im.DataBase)
	e.Blob(im.Data)
	e.U32(im.BssBase)
	e.U32(im.BssSize)
	e.U32(im.TrampBase)
	e.U32(im.TrampSize)
	encodeImageSyms(e, im.Symbols)
	e.Count32(len(im.Relocs))
	for _, r := range im.Relocs {
		e.U32(r.Addr)
		e.Str(r.Name)
		e.U8(uint8(r.Type))
		e.U32(uint32(r.Addend))
	}
	encodeModuleRefs(e, im.Dyn.DynModules)
	e.Count32(len(im.Dyn.StaticPublic))
	for _, sp := range im.Dyn.StaticPublic {
		e.Str(sp.Name)
		e.Str(sp.Path)
		e.Str(sp.Template)
		e.U32(sp.Addr)
	}
	e.Str(im.Dyn.LinkDir)
	e.Strs(im.Dyn.CmdPath)
	e.Strs(im.Dyn.EnvPath)
	e.Strs(im.Dyn.DefaultPath)
	encodeImageSyms(e, im.PLT)
	return e.Bytes()
}

// DecodeImageBytes decodes a HEMX load image.
func DecodeImageBytes(b []byte) (*Image, error) {
	d := wire.NewDecoder(b)
	if err := decodeHeader(d, imgMagic, "HEMX image"); err != nil {
		return nil, err
	}
	im := &Image{
		Name:      d.Str(),
		Entry:     d.U32(),
		TextBase:  d.U32(),
		Text:      d.Blob(),
		DataBase:  d.U32(),
		Data:      d.Blob(),
		BssBase:   d.U32(),
		BssSize:   d.U32(),
		TrampBase: d.U32(),
		TrampSize: d.U32(),
	}
	im.Symbols = decodeImageSyms(d)
	if n := d.Count32(11); n > 0 {
		im.Relocs = make([]ImageReloc, n)
		for i := range im.Relocs {
			im.Relocs[i] = ImageReloc{
				Addr:   d.U32(),
				Name:   d.Str(),
				Type:   RelType(d.U8()),
				Addend: int32(d.U32()),
			}
		}
	}
	im.Dyn.DynModules = decodeModuleRefs(d)
	if n := d.Count32(10); n > 0 {
		im.Dyn.StaticPublic = make([]StaticPublicRef, n)
		for i := range im.Dyn.StaticPublic {
			im.Dyn.StaticPublic[i] = StaticPublicRef{
				Name:     d.Str(),
				Path:     d.Str(),
				Template: d.Str(),
				Addr:     d.U32(),
			}
		}
	}
	im.Dyn.LinkDir = d.Str()
	im.Dyn.CmdPath = d.Strs()
	im.Dyn.EnvPath = d.Strs()
	im.Dyn.DefaultPath = d.Strs()
	im.PLT = decodeImageSyms(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("objfile: decoding image %q: %w", im.Name, err)
	}
	im.linkHash.Store(fnv1a64(b))
	return im, nil
}

// decodeHeader checks the magic and version that open both formats.
func decodeHeader(d *wire.Decoder, magic, what string) error {
	m := d.Raw(len(magic))
	if err := d.Err(); err != nil {
		return fmt.Errorf("objfile: reading %s magic: %w", what, err)
	}
	if string(m) != magic {
		return fmt.Errorf("objfile: bad magic %q (not a %s)", m, what)
	}
	if v := d.U32(); d.Err() == nil && v != objVersion {
		return fmt.Errorf("objfile: unsupported %s version %d", what, v)
	}
	return nil
}

func encodeModuleRefs(e *wire.Encoder, refs []ModuleRef) {
	e.Count32(len(refs))
	for _, r := range refs {
		e.Str(r.Name)
		e.U8(uint8(r.Class))
	}
}

func decodeModuleRefs(d *wire.Decoder) []ModuleRef {
	n := d.Count32(3)
	if n == 0 {
		return nil
	}
	refs := make([]ModuleRef, n)
	for i := range refs {
		refs[i] = ModuleRef{Name: d.Str(), Class: Class(d.U8())}
	}
	return refs
}

func encodeImageSyms(e *wire.Encoder, syms []ImageSym) {
	e.Count32(len(syms))
	for _, s := range syms {
		e.Str(s.Name)
		e.U32(s.Addr)
		e.U32(s.Size)
	}
}

func decodeImageSyms(d *wire.Decoder) []ImageSym {
	n := d.Count32(10)
	if n == 0 {
		return nil
	}
	syms := make([]ImageSym, n)
	for i := range syms {
		syms[i] = ImageSym{
			Name: d.Str(),
			Addr: d.U32(),
			Size: d.U32(),
		}
	}
	return syms
}
