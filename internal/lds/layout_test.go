package lds_test

import (
	"errors"
	"strings"
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/linker"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// Modules for the page-rule link: main (text+data) reads a bss-only and a
// data-only module's words, and calls f in a text-only module and dyn_get
// in a dynamic-public text+data module. It exits 1 + 30 + 5 + 0 + 7.
const (
	pageMainSrc = `
        .text
        .globl  main
        .extern f
        .extern dyn_get
main:   move    $s0, $ra
        jal     f
        move    $s1, $v0
        jal     dyn_get
        addu    $s1, $s1, $v0
        la      $t0, g
        lw      $t1, 0($t0)
        addu    $s1, $s1, $t1
        la      $t0, b
        lw      $t1, 0($t0)
        addu    $s1, $s1, $t1
        la      $t0, d
        lw      $t1, 0($t0)
        addu    $v0, $s1, $t1
        move    $ra, $s0
        jr      $ra
        .data
        .globl  g
g:      .word   5
`
	pageTextSrc = `
        .text
        .globl  f
f:      li      $v0, 1
        jr      $ra
`
	pageBssSrc = `
        .globl  b
        .comm   b, 8
`
	pageDataSrc = `
        .data
        .globl  d
d:      .word   7
`
	pageDynSrc = `
        .text
        .globl  dyn_get
dyn_get: la     $t0, dv
        lw      $v0, 0($t0)
        jr      $ra
        .data
dv:     .word   30
`
)

// span is a byte range of a linked image and whether it is code.
type span struct {
	name       string
	addr, size uint32
	code       bool
}

// checkPages fails t if any page holds both a code span and a writable one.
func checkPages(t *testing.T, spans []span) {
	t.Helper()
	code := map[uint32]string{}
	for _, s := range spans {
		if s.code {
			for a := s.addr; a < s.addr+s.size; a += 4 {
				code[a/mem.PageSize] = s.name
			}
		}
	}
	for _, s := range spans {
		if s.code {
			continue
		}
		for a := s.addr; a < s.addr+s.size; a += 4 {
			if other, ok := code[a/mem.PageSize]; ok {
				t.Errorf("page 0x%08x holds %s (writable, at 0x%08x) and %s (code)", a&^(mem.PageSize-1), s.name, s.addr, other)
				break
			}
		}
	}
}

func mustAsm(t *testing.T, s *core.System, path, src string) *objfile.Object {
	t.Helper()
	o, err := s.Asm(path, src)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func mustAddr(t *testing.T, im *objfile.Image, name string) uint32 {
	t.Helper()
	a, ok := im.Lookup(name)
	if !ok {
		t.Fatalf("image has no symbol %q", name)
	}
	return a
}

// TestLinkKeepsCodeAndWritableBytesApart states the layout rule: a
// module's data and bss never share a page with its code, code (text,
// trampoline areas, jump-table stubs) never follows another module's
// writable bytes on a page, and a module with only code or only writable
// bytes is laid out without padding. In this link, writable-only modules
// follow main's data, so no page holds both code and writable bytes.
func TestLinkKeepsCodeAndWritableBytesApart(t *testing.T) {
	s := newSys(t)
	mainObj := mustAsm(t, s, "/bin/main.o", pageMainSrc)
	textObj := mustAsm(t, s, "/bin/text.o", pageTextSrc)
	bssObj := mustAsm(t, s, "/bin/bss.o", pageBssSrc)
	dataObj := mustAsm(t, s, "/bin/data.o", pageDataSrc)
	dynObj := mustAsm(t, s, "/lib/dyn.o", pageDynSrc)
	res, err := s.Link(&lds.Options{
		Output: "a.out",
		Modules: []lds.Input{
			{Name: "main.o", Class: objfile.StaticPrivate},
			{Name: "bss.o", Class: objfile.StaticPrivate},
			{Name: "data.o", Class: objfile.StaticPrivate},
			{Name: "text.o", Class: objfile.StaticPrivate},
			{Name: "dyn.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
		JumpTables:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	im := res.Image
	if len(im.PLT) != 1 || im.PLT[0].Name != "dyn_get" {
		t.Fatalf("PLT = %+v, want one stub for dyn_get", im.PLT)
	}
	start, mainAddr, f := mustAddr(t, im, "__start"), mustAddr(t, im, "main"), mustAddr(t, im, "f")
	g, b, d := mustAddr(t, im, "g"), mustAddr(t, im, "b"), mustAddr(t, im, "d")
	spans := []span{
		{"crt0", start, 16, true},
		{"main.o text", mainAddr, uint32(len(mainObj.Text)), true},
		{"main.o data", g, uint32(len(mainObj.Data)), false},
		{"text.o", f, uint32(len(textObj.Text)), true},
		{"bss.o", b, bssObj.BssSize, false},
		{"data.o", d, uint32(len(dataObj.Data)), false},
		{"PLT", im.PLT[0].Addr, im.PLT[0].Size, true},
		{"trampolines", im.TrampBase, im.TrampSize, true},
	}
	checkPages(t, spans)

	// Writable bytes pack as before: bss.o follows main's data and data.o
	// follows bss.o at the next 16-byte boundary. The text-only, bss-only
	// and data-only modules carry no padding of their own.
	if want := (g + uint32(len(mainObj.Data)) + 15) &^ 15; b != want {
		t.Errorf("bss.o at 0x%08x, want 0x%08x right after main's data", b, want)
	}
	if want := (b + bssObj.BssSize + 15) &^ 15; d != want {
		t.Errorf("data.o at 0x%08x, want 0x%08x right after bss.o", d, want)
	}
	for _, c := range []struct {
		obj  *objfile.Object
		at   uint32
		size uint32
	}{{textObj, f, uint32(len(textObj.Text))}, {dataObj, d, uint32(len(dataObj.Data))}, {bssObj, b, 8}} {
		p, err := linker.Place(c.obj, c.at)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size() != c.size {
			t.Errorf("%s lays out to %d bytes, want %d (no padding)", c.obj.Name, p.Size(), c.size)
		}
	}
	// An empty image trampoline area adds no padding either.
	if im.TrampSize != 0 || im.TrampBase != im.TextBase+uint32(len(im.Text)) {
		t.Errorf("trampoline area %d bytes at 0x%08x, want empty at the image end 0x%08x",
			im.TrampSize, im.TrampBase, im.TextBase+uint32(len(im.Text)))
	}

	prog, err := s.Launch(im, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(100000); err != nil {
		t.Fatal(err)
	}
	if prog.P.ExitCode != 43 {
		t.Fatalf("exit code = %d, want 43", prog.P.ExitCode)
	}
	// The dynamic-public instance ldl created: code on its first page, its
	// word on the next.
	st, err := s.FS.StatPath("/lib/dyn")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint32(mem.PageSize + len(dynObj.Data)); st.Size != want {
		t.Fatalf("/lib/dyn is %d bytes, want %d (text page, then data page)", st.Size, want)
	}
}

// TestTrampolineAreaAfterWritableTail: without jump tables a call into a
// dynamic module is retained for ldl, which writes a trampoline into the
// image's trampoline area at run time. When the image ends in a module's
// data that area starts on a fresh page.
func TestTrampolineAreaAfterWritableTail(t *testing.T) {
	s := newSys(t)
	mainObj := mustAsm(t, s, "/bin/main.o", `
        .text
        .globl  main
        .extern dyn_get
main:   move    $s0, $ra
        jal     dyn_get
        move    $ra, $s0
        jr      $ra
        .data
        .globl  d
d:      .word   7
`)
	mustAsm(t, s, "/lib/dyn.o", pageDynSrc)
	res, err := s.Link(&lds.Options{
		Output: "a.out",
		Modules: []lds.Input{
			{Name: "main.o", Class: objfile.StaticPrivate},
			{Name: "dyn.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		t.Fatal(err)
	}
	im := res.Image
	if im.TrampSize == 0 {
		t.Fatal("no trampoline area reserved for the retained call")
	}
	d := mustAddr(t, im, "d")
	checkPages(t, []span{
		{"main.o", mustAddr(t, im, "main"), uint32(len(mainObj.Text)), true},
		{"main.o data", d, uint32(len(mainObj.Data)), false},
		{"trampolines", im.TrampBase, im.TrampSize, true},
	})
	prog, err := s.Launch(im, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Run(100000); err != nil {
		t.Fatal(err)
	}
	if prog.P.ExitCode != 30 {
		t.Fatalf("exit code = %d, want 30 through the trampoline", prog.P.ExitCode)
	}
}

// TestStoresToOwnGlobalKeepCodeBlocks: a loop that stores to a global in
// its own module's .data. The global is on its own page, so the stores
// never move the store version of the frame the loop was decoded from,
// and no block is rebuilt.
func TestStoresToOwnGlobalKeepCodeBlocks(t *testing.T) {
	s := newSys(t)
	mustAsm(t, s, "/bin/loop.o", `
        .text
        .globl  main
main:   li      $t1, 200
loop:   la      $t0, acc
        lw      $t2, 0($t0)
        addu    $t2, $t2, $t1
        sw      $t2, 0($t0)
        addiu   $t1, $t1, -1
        bnez    $t1, loop
        lw      $v0, 0($t0)
        jr      $ra
        .data
acc:    .word   0
`)
	prog, err := s.BuildAndRun(&lds.Options{
		Output:  "a.out",
		Modules: []lds.Input{{Name: "loop.o", Class: objfile.StaticPrivate}},
		LinkDir: "/bin",
	}, 0, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if prog.P.ExitCode != 200*201/2 {
		t.Fatalf("exit code = %d, want %d", prog.P.ExitCode, 200*201/2)
	}
	st := prog.P.CPU.CacheStats()
	if st.BlockInvals != 0 {
		t.Fatalf("%d block invalidations over 200 stores to the module's own global, want 0", st.BlockInvals)
	}
	if st.BlockBuilds > 8 {
		t.Fatalf("%d blocks built for a 200-pass loop, want only the first pass's", st.BlockBuilds)
	}
}

// TestContiguousInstanceRefused: a dynamic-public module's instance
// written under the contiguous layout of earlier linkers (data right after
// text, 20 bytes, where the module now lays out to 4100). A cold link that
// reaches it fails with both sizes and leaves the file as it was; it never
// runs against the instance's bytes at the new offsets.
func TestContiguousInstanceRefused(t *testing.T) {
	s := newSys(t)
	lib := mustAsm(t, s, "/lib/lib.o", `
        .text
        .globl  get
get:    la      $t0, val
        lw      $v0, 0($t0)
        jr      $ra
        .data
        .globl  val
val:    .word   42
`)
	mustAsm(t, s, "/bin/main.o", `
        .text
        .globl  main
        .extern val
main:   la      $t0, val
        lw      $v0, 0($t0)
        jr      $ra
`)
	before := append(append([]byte(nil), lib.Text...), lib.Data...)
	if _, err := s.FS.Create("/lib/lib", shmfs.DefaultFileMode|shmfs.ModeOtherWrite, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FS.WriteAt("/lib/lib", 0, before, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Link(&lds.Options{
		Output: "a.out",
		Modules: []lds.Input{
			{Name: "main.o", Class: objfile.StaticPrivate},
			{Name: "lib.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Launch(res.Image, 0, nil)
	if err == nil {
		err = prog.Run(10000)
		t.Fatalf("launch against a 20-byte instance succeeded (run: %v, exit %d)", err, prog.P.ExitCode)
	}
	if !errors.Is(err, lds.ErrInstanceLayout) || !strings.Contains(err.Error(), "/lib/lib is 20 bytes but /lib/lib.o lays out to 4100") {
		t.Fatalf("err = %v, want the instance-layout error naming both sizes", err)
	}
	after, err := s.FS.ReadFile("/lib/lib", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("instance changed from %d to %d bytes", len(before), len(after))
	}
}

// TestReassembledTemplateInstanceRefused: an instance made from a template
// that was later re-assembled with other section sizes no longer matches
// it, and a static link against it fails instead of using stale offsets.
func TestReassembledTemplateInstanceRefused(t *testing.T) {
	s := newSys(t)
	mustAsm(t, s, "/lib/pub.o", pageDataSrc)
	mustAsm(t, s, "/bin/main.o", mainReturns42)
	opts := &lds.Options{
		Output: "a.out",
		Modules: []lds.Input{
			{Name: "main.o", Class: objfile.StaticPrivate},
			{Name: "pub.o", Class: objfile.StaticPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	}
	if _, err := s.Link(opts); err != nil {
		t.Fatal(err)
	}
	mustAsm(t, s, "/lib/pub.o", pageDataSrc+"e:      .word   8\n")
	if _, err := s.Link(opts); !errors.Is(err, lds.ErrInstanceLayout) {
		t.Fatalf("link after re-assembly: err = %v, want ErrInstanceLayout", err)
	}
}

// TestEmptyModuleInstanceStillMatches: mapping the instance of an empty
// module grows its file to one page. The next world to reach it must still
// accept it, since an empty layout places nothing.
func TestEmptyModuleInstanceStillMatches(t *testing.T) {
	s := newSys(t)
	empty := mustAsm(t, s, "/lib/empty.o", "        .text\n")
	mustAsm(t, s, "/bin/main.o", mainReturns42)
	prog, err := s.BuildAndRun(&lds.Options{
		Output: "a.out",
		Modules: []lds.Input{
			{Name: "main.o", Class: objfile.StaticPrivate},
			{Name: "empty.o", Class: objfile.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	}, 0, nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if prog.P.ExitCode != 42 {
		t.Fatalf("exit code = %d, want 42", prog.P.ExitCode)
	}
	if _, _, created, err := s.LD.CreatePublicInstance("/lib/empty.o", empty, 0); err != nil || created {
		t.Fatalf("reaching the mapped empty instance again: created %v, err %v", created, err)
	}
}
