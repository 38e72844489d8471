package ldl_test

import (
	"errors"
	"strings"
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/layout"
	"hemlock/internal/ldl"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
)

// TestPublicModuleCannotBindPrivateSymbol: a public module whose undefined
// reference would resolve to a private symbol must stay unresolved —
// private addresses are overloaded and mean different things in different
// processes, so patching them into a shared segment would be unsound.
func TestPublicModuleCannotBindPrivateSymbol(t *testing.T) {
	s := core.NewSystem()
	// private.o defines priv_sym in the private region (dynamic private).
	s.Asm("/lib/private.o", ".data\n.globl priv_sym\npriv_sym: .word 1\n")
	// pub.o references priv_sym from a public segment.
	s.Asm("/lib/pub.o", `
        .data
        .globl  pub_ptr
pub_ptr: .word priv_sym
`)
	res := linkWith(t, s, trivialMain,
		lds.Input{Name: "private.o", Class: objfile.DynamicPrivate},
		lds.Input{Name: "pub.o", Class: objfile.DynamicPublic},
	)
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := pg.Var("pub_ptr")
	if err != nil {
		t.Fatal(err)
	}
	// Touching the module triggers a lazy link; the private binding is
	// refused, so the reference stays pending and the word stays zero.
	got, err := v.Load()
	if err != nil {
		t.Fatal(err)
	}
	if layout.Private(got) && got != 0 {
		t.Fatalf("public segment holds private address 0x%08x", got)
	}
	if got != 0 {
		t.Fatalf("pub_ptr = 0x%08x, want unresolved 0", got)
	}
}

// TestPublicModuleLinksOnceGlobally: when process A links a public module,
// process B's first touch must not re-link it — it just restores access.
func TestPublicModuleLinksOnceGlobally(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/leafg.o", ".data\n.globl leafg\nleafg: .word 7\n")
	s.Asm("/lib/outer2.o", `
        .dep    leafg.o, dynamic-public
        .searchpath /lib
        .data
        .globl  optr
optr:   .word   leafg
`)
	res := linkWith(t, s, trivialMain, lds.Input{Name: "outer2.o", Class: objfile.DynamicPublic})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	p1, err := s.Launch(res.Image, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := p1.Var("optr")
	if _, err := v1.Load(); err != nil {
		t.Fatal(err)
	}
	links := s.W.Stats.LazyLinks
	p2, err := s.Launch(res.Image, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := p2.Var("optr")
	ptr, err := v2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p2.VarAt("", ptr).Load(); got != 7 {
		t.Fatalf("p2 leaf = %d", got)
	}
	if s.W.Stats.LazyLinks != links {
		t.Fatalf("public module re-linked: %d -> %d", links, s.W.Stats.LazyLinks)
	}
}

// TestTemplateLockedByAnotherProcess: creation is synchronised with file
// locking; a held lock surfaces as an error rather than a corrupt segment.
func TestTemplateLockedByAnotherProcess(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/locked.o", ".data\n.globl lv\nlv: .word 1\n")
	res := linkWith(t, s, trivialMain, lds.Input{Name: "locked.o", Class: objfile.DynamicPublic})
	// Some other process holds the template lock.
	if ok, err := s.FS.TryLock("/lib/locked.o", 9999); err != nil || !ok {
		t.Fatalf("pre-lock: %v %v", ok, err)
	}
	_, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("want lock error, got %v", err)
	}
	// Released lock unblocks the next launch.
	s.FS.Unlock("/lib/locked.o", 9999)
	if _, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"}); err != nil {
		t.Fatalf("after unlock: %v", err)
	}
}

// TestDeepRecursiveInclusion: a chain of 12 modules, each pulling in the
// next via its own list — "linking a single module may therefore cause a
// chain reaction".
func TestDeepRecursiveInclusion(t *testing.T) {
	s := core.NewSystem()
	const depth = 12
	for i := 0; i < depth; i++ {
		var src string
		if i == depth-1 {
			src = ".data\n.globl deep_ptr" + itoa(i) + "\ndeep_ptr" + itoa(i) + ": .word 4242\n"
		} else {
			// Each level exports a pointer to the next level's export,
			// resolvable only through its own module list (scoped
			// resolution searches up the DAG, never down).
			src = `
        .dep    deepNEXT.o, dynamic-public
        .searchpath /lib
        .data
        .globl  deep_ptrTHIS
deep_ptrTHIS: .word deep_ptrNEXT
`
			src = strings.ReplaceAll(src, "NEXT", itoa(i+1))
			src = strings.ReplaceAll(src, "THIS", itoa(i))
		}
		s.Asm("/lib/deep"+itoa(i)+".o", src)
	}
	res := linkWith(t, s, trivialMain, lds.Input{Name: "deep00.o", Class: objfile.DynamicPublic})
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	mapped := len(pg.LDL.Instances())
	v, err := pg.Var("deep_ptr00")
	if err != nil {
		t.Fatal(err)
	}
	// Follow the chain: each dereference lazy-links the next module.
	cur := v
	for i := 0; i < depth-1; i++ {
		next, err := cur.Follow(0)
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		cur = next
	}
	if got, _ := cur.Load(); got != 4242 {
		t.Fatalf("deep value = %d", got)
	}
	// The chain reaction brought in all 12 modules, one level at a time.
	if got := len(pg.LDL.Instances()); got != mapped+depth-1 {
		t.Fatalf("instances = %d, want %d", got, mapped+depth-1)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestPendingImageRefsReported: unresolved references in the main image
// are visible for diagnosis, and resolve later when a module providing
// them is linked in.
func TestPendingImageRefsReported(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/latecomer.o", ".data\n.globl late_sym\nlate_sym: .word 3\n")
	res := linkWith(t, s, `
        .text
        .globl  main
        .extern late_sym
main:   la      $t0, late_sym
        lw      $v0, 0($t0)
        jr      $ra
`)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if refs := pg.LDL.PendingImageRefs(); len(refs) != 1 || refs[0] != "late_sym" {
		t.Fatalf("pending refs = %v", refs)
	}
	// Bring the provider in explicitly (the dlopen-ish path) under the
	// root scope; the image relocations resolve.
	if _, err := pg.LDL.BringIn(objfile.ModuleRef{Name: "/lib/latecomer.o", Class: objfile.DynamicPublic}, nil); err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(100000); err != nil {
		t.Fatal(err)
	}
	if pg.P.ExitCode != 3 {
		t.Fatalf("exit = %d, want 3 (late resolution)", pg.P.ExitCode)
	}
	if refs := pg.LDL.PendingImageRefs(); len(refs) != 0 {
		t.Fatalf("refs still pending: %v", refs)
	}
}

// TestSegmentGrowthBeyondModuleImage: a public module's bss can exceed the
// template bytes; the instance file covers the whole placed size.
func TestSegmentGrowthBeyondModuleImage(t *testing.T) {
	s := core.NewSystem()
	obj := objfile.NewBuilder("big.o").
		Word("big_head", 1, true).
		Bss("big_buf", 300*1024, true).
		MustBuild()
	if err := s.AddTemplate("/lib/big.o", obj); err != nil {
		t.Fatal(err)
	}
	res := linkWith(t, s, trivialMain, lds.Input{Name: "big.o", Class: objfile.DynamicPublic})
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := pg.Var("big_buf")
	if err != nil {
		t.Fatal(err)
	}
	// Write at the far end of the 300 KB bss.
	if err := v.StoreAt(300*1024-4, 0xFEED); err != nil {
		t.Fatal(err)
	}
	st, _ := s.FS.StatPath("/lib/big")
	if st.Size < 300*1024 {
		t.Fatalf("instance size %d < bss", st.Size)
	}
}

// TestErrModuleNotFoundSentinel verifies the exported error is usable with
// errors.Is through the Launch path.
func TestErrModuleNotFoundSentinel(t *testing.T) {
	s := core.NewSystem()
	res := linkWith(t, s, trivialMain, lds.Input{Name: "phantom.o", Class: objfile.DynamicPrivate})
	_, err := s.Launch(res.Image, 0, nil)
	if !errors.Is(err, ldl.ErrModuleNotFound) {
		t.Fatalf("error chain broken: %v", err)
	}
}
