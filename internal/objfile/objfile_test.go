package objfile

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleObject(t *testing.T) *Object {
	t.Helper()
	o, err := NewBuilder("sample.o").
		Word("counter", 42, true).
		String("banner", "hello", true).
		Bss("scratch", 128, false).
		Pointer("head", "counter", 0, true).
		Extern("external_fn").
		Dep("other.o", DynamicPublic).
		SearchPath("/lib", "/usr/lib").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestClassPredicates(t *testing.T) {
	// Table 1: classes differ in link time and per-process instantiation.
	cases := []struct {
		c              Class
		static, public bool
		str            string
	}{
		{StaticPrivate, true, false, "static private"},
		{DynamicPrivate, false, false, "dynamic private"},
		{StaticPublic, true, true, "static public"},
		{DynamicPublic, false, true, "dynamic public"},
	}
	for _, c := range cases {
		if c.c.Static() != c.static || c.c.Public() != c.public || c.c.String() != c.str {
			t.Errorf("%v: static=%v public=%v str=%q", c.c, c.c.Static(), c.c.Public(), c.c.String())
		}
	}
}

func TestBuilderSymbols(t *testing.T) {
	o := sampleObject(t)
	if got := o.Exports(); !reflect.DeepEqual(got, []string{"banner", "counter", "head"}) {
		t.Fatalf("exports = %v", got)
	}
	if got := o.Undefined(); !reflect.DeepEqual(got, []string{"external_fn"}) {
		t.Fatalf("undefined = %v", got)
	}
	s, ok := o.Lookup("counter")
	if !ok || s.Section != SecData || s.Size != 4 {
		t.Fatalf("counter symbol: %+v", s)
	}
	if v := binary.BigEndian.Uint32(o.Data[s.Value:]); v != 42 {
		t.Fatalf("counter initial value = %d", v)
	}
}

func TestBuilderPointerReloc(t *testing.T) {
	o := sampleObject(t)
	var found bool
	for _, r := range o.Relocs {
		if o.Symbols[r.Sym].Name == "counter" && r.Type == RelWord32 && r.Section == SecData {
			found = true
		}
	}
	if !found {
		t.Fatal("pointer relocation missing")
	}
}

func TestBuilderDuplicateDefinition(t *testing.T) {
	_, err := NewBuilder("dup.o").Word("x", 1, true).Word("x", 2, true).Build()
	if err == nil {
		t.Fatal("duplicate definition accepted")
	}
}

func TestBuilderAlignment(t *testing.T) {
	o, err := NewBuilder("align.o").
		Bytes("odd", []byte{1, 2, 3}, false).
		Word("w", 7, true).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := o.Lookup("w")
	if s.Value%4 != 0 {
		t.Fatalf("word symbol at unaligned offset %d", s.Value)
	}
}

func TestValidateCatchesBadRelocs(t *testing.T) {
	o := &Object{
		Name:    "bad.o",
		Data:    make([]byte, 8),
		Symbols: []Symbol{{Name: "x", Section: SecData}},
		Relocs:  []Reloc{{Section: SecData, Offset: 6, Sym: 0, Type: RelWord32}},
	}
	if err := o.Validate(); err == nil {
		t.Fatal("out-of-bounds reloc accepted")
	}
	o.Relocs[0].Offset = 2
	if err := o.Validate(); err == nil {
		t.Fatal("unaligned reloc accepted")
	}
	o.Relocs[0] = Reloc{Section: SecData, Offset: 0, Sym: 5, Type: RelWord32}
	if err := o.Validate(); err == nil {
		t.Fatal("bad symbol index accepted")
	}
}

func TestValidateUnalignedText(t *testing.T) {
	o := &Object{Name: "t.o", Text: make([]byte, 6)}
	if err := o.Validate(); err == nil {
		t.Fatal("unaligned text accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	o := sampleObject(t)
	b, err := o.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, o)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBytes([]byte("GARBAGEGARBAGE")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeBytes(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	o := sampleObject(t)
	b, _ := o.Bytes()
	if _, err := DecodeBytes(b[:len(b)/2]); err == nil {
		t.Fatal("truncated object accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	o := sampleObject(t)
	c := o.Clone()
	c.Data[0] = 0xFF
	c.Symbols[0].Name = "mutated"
	if o.Data[0] == 0xFF || o.Symbols[0].Name == "mutated" {
		t.Fatal("clone aliases original")
	}
}

func TestImageRoundTrip(t *testing.T) {
	im := &Image{
		Name:     "a.out",
		Entry:    0x400000,
		TextBase: 0x400000,
		Text:     []byte{1, 2, 3, 4},
		DataBase: 0x10000000,
		Data:     []byte{5, 6, 7, 8},
		BssBase:  0x10001000,
		BssSize:  256,
		Symbols:  []ImageSym{{Name: "main", Addr: 0x400000, Size: 4}},
		Relocs:   []ImageReloc{{Addr: 0x10000000, Name: "shared_var", Type: RelWord32, Addend: 8}},
		Dyn: DynInfo{
			DynModules:   []ModuleRef{{Name: "shared1.o", Class: DynamicPublic}},
			StaticPublic: []StaticPublicRef{{Name: "tbl.o", Path: "/lib/tbl", Template: "/lib/tbl.o", Addr: 0x30100000}},
			LinkDir:      "/home/user",
			CmdPath:      []string{"/opt/lib"},
			EnvPath:      []string{"/env/lib"},
			DefaultPath:  []string{"/lib"},
		},
	}
	b, err := im.ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImageBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	// The decoder keeps the hash of the bytes it read as LinkHash: the
	// value the built image computes from its encoding.
	if h, err := im.LinkHash(); err != nil || got.linkHash.Load() != h {
		t.Fatalf("decoded LinkHash %x, want %x (%v)", got.linkHash.Load(), h, err)
	}
	if !reflect.DeepEqual(im, got) {
		t.Fatalf("image round trip mismatch:\n got %+v\nwant %+v", got, im)
	}
	if addr, ok := got.Lookup("main"); !ok || addr != 0x400000 {
		t.Fatalf("Lookup(main) = %x, %v", addr, ok)
	}
	if u := got.UndefinedRelocs(); len(u) != 1 || u[0] != "shared_var" {
		t.Fatalf("UndefinedRelocs = %v", u)
	}
}

func TestImageDecodeRejectsObjMagic(t *testing.T) {
	o := sampleObject(t)
	b, _ := o.Bytes()
	if _, err := DecodeImageBytes(b); err == nil {
		t.Fatal("HEMO accepted as HEMX")
	}
}

// Property: any builder-produced module with random words and strings
// round-trips through the binary encoding.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []uint32, s string, bss uint16) bool {
		if len(s) > 1000 {
			s = s[:1000]
		}
		b := NewBuilder("prop.o").Words("arr", vals, true).Bss("z", uint32(bss), false)
		if s != "" {
			b.String("msg", s, false)
		}
		o, err := b.Build()
		if err != nil {
			return false
		}
		enc, err := o.Bytes()
		if err != nil {
			return false
		}
		got, err := DecodeBytes(enc)
		return err == nil && reflect.DeepEqual(o, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSectionStrings(t *testing.T) {
	for sec, want := range map[Section]string{SecUndef: "undef", SecText: "text", SecData: "data", SecBss: "bss", SecAbs: "abs"} {
		if sec.String() != want {
			t.Errorf("%d.String() = %q", sec, sec.String())
		}
	}
	for rt, want := range map[RelType]string{RelWord32: "WORD32", RelHi16: "HI16", RelLo16: "LO16", RelJump26: "JUMP26", RelBranch16: "BRANCH16", RelGPRel16: "GPREL16"} {
		if rt.String() != want {
			t.Errorf("reloc %d.String() = %q, want %q", rt, rt.String(), want)
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	o := sampleObject(t)
	b1, _ := o.Bytes()
	b2, _ := o.Bytes()
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoding not deterministic")
	}
}
