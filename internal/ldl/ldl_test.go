package ldl_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hemlock/internal/addrspace"
	"hemlock/internal/core"
	"hemlock/internal/kern"
	"hemlock/internal/ldl"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
)

const trivialMain = `
        .text
        .globl  main
main:   li      $v0, 0
        jr      $ra
`

// linkWith links main.o (in /app) plus the given extra module inputs.
func linkWith(t *testing.T, s *core.System, mainSrc string, extra ...lds.Input) *lds.Result {
	t.Helper()
	if _, err := s.Asm("/app/main.o", mainSrc); err != nil {
		t.Fatal(err)
	}
	opts := &lds.Options{
		Output:  "a.out",
		Modules: append([]lds.Input{{Name: "main.o", Class: objfile.StaticPrivate}}, extra...),
		LinkDir: "/app",
	}
	res, err := s.Link(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDynamicPublicCreatedOnFirstUse(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/db.o", `
        .data
        .globl  db_count
db_count: .word 100
`)
	res := linkWith(t, s, trivialMain, lds.Input{Name: "db.o", Class: objfile.DynamicPublic})
	// Not created at link time (dynamic), only warned about if missing —
	// it exists here, so no instance yet either.
	if _, err := s.FS.StatPath("/lib/db"); err == nil {
		t.Fatal("dynamic public instance created at static link time")
	}
	opts := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	p1, err := s.Launch(res.Image, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Now the instance exists: created by ldl on first use.
	if _, err := s.FS.StatPath("/lib/db"); err != nil {
		t.Fatalf("instance not created by ldl: %v", err)
	}
	v1, err := p1.Var("db_count")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v1.Load(); got != 100 {
		t.Fatalf("initial value %d, want 100 (initialised from template)", got)
	}
	if err := v1.Store(777); err != nil {
		t.Fatal(err)
	}
	// A second program sees the write at the same address.
	p2, err := s.Launch(res.Image, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p2.Var("db_count")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Addr != v1.Addr {
		t.Fatalf("addresses differ across processes: 0x%x vs 0x%x", v1.Addr, v2.Addr)
	}
	if got, _ := v2.Load(); got != 777 {
		t.Fatalf("second process sees %d, want 777", got)
	}
	// The template's file lock was released.
	if owner, _ := s.FS.LockOwner("/lib/db.o"); owner != 0 {
		t.Fatalf("template still locked by %d", owner)
	}
}

func TestDynamicPrivatePerProcessInstance(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", `
        .data
        .globl  buf_val
buf_val: .word 5
`)
	res := linkWith(t, s, trivialMain, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	p1, err := s.Launch(res.Image, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Launch(res.Image, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := p1.Var("buf_val")
	v2, _ := p2.Var("buf_val")
	if v1 == nil || v2 == nil {
		t.Fatal("buf_val unresolved")
	}
	v1.Store(11)
	if got, _ := v2.Load(); got != 5 {
		t.Fatalf("private instance shared: p2 sees %d", got)
	}
}

func TestLazyLinkingOnFirstTouch(t *testing.T) {
	// outer.o has an undefined reference satisfied by inner.o, which is on
	// outer's own module list. outer must be mapped inaccessible and
	// linked only when touched; inner is brought in at that moment.
	s := core.NewSystem()
	s.Asm("/lib/inner.o", `
        .data
        .globl  inner_val
inner_val: .word 31337
`)
	s.Asm("/lib/outer.o", `
        .dep    inner.o, dynamic-public
        .searchpath /lib
        .data
        .globl  outer_ptr
outer_ptr: .word inner_val
`)
	res := linkWith(t, s, trivialMain, lds.Input{Name: "outer.o", Class: objfile.DynamicPublic})
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	if s.W.Stats.LazyLinks != 0 {
		t.Fatalf("lazy links before touch: %d", s.W.Stats.LazyLinks)
	}
	// inner.o is not even mapped yet: linking only the used portion of
	// the reachability graph.
	if _, err := s.FS.StatPath("/lib/inner"); err == nil {
		t.Fatal("inner instance created before outer was touched")
	}
	// Touch outer_ptr: faults, links outer, brings in inner, resolves.
	v, err := pg.Var("outer_ptr")
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := v.Load()
	if err != nil {
		t.Fatal(err)
	}
	if s.W.Stats.LazyLinks != 1 {
		t.Fatalf("lazy links = %d, want 1", s.W.Stats.LazyLinks)
	}
	// Follow the pointer into inner.
	target := pg.VarAt("inner_val", ptr)
	if got, _ := target.Load(); got != 31337 {
		t.Fatalf("followed pointer to %d, want 31337", got)
	}
}

func TestUntouchedModuleNeverLinked(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/unused.o", `
        .extern never_defined
        .data
        .globl  u
u:      .word   never_defined
`)
	res := linkWith(t, s, trivialMain, lds.Input{Name: "unused.o", Class: objfile.DynamicPublic})
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(10000); err != nil {
		t.Fatal(err)
	}
	// The program ran to completion without ever resolving the broken
	// module: lazy linking allows a huge reachability graph with broken
	// or missing leaves as long as they are not used.
	if s.W.Stats.LazyLinks != 0 {
		t.Fatalf("lazy links = %d for untouched module", s.W.Stats.LazyLinks)
	}
}

func TestScopedLinkingFigure2(t *testing.T) {
	// Two DIFFERENT modules both named e.o, exporting the same symbol
	// name `evalue` with different values. c.o and d.o each pull in
	// "e.o" via their own search paths; scoped linking must bind each to
	// its own E without a naming conflict.
	s := core.NewSystem()
	s.Asm("/libC/e.o", ".data\n.globl evalue\nevalue: .word 111\n")
	s.Asm("/libD/e.o", ".data\n.globl evalue\nevalue: .word 222\n")
	s.Asm("/lib/c.o", `
        .dep    e.o, dynamic-public
        .searchpath /libC
        .data
        .globl  c_eptr
c_eptr: .word evalue
`)
	s.Asm("/lib/d.o", `
        .dep    e.o, dynamic-public
        .searchpath /libD
        .data
        .globl  d_eptr
d_eptr: .word evalue
`)
	res := linkWith(t, s, trivialMain,
		lds.Input{Name: "c.o", Class: objfile.DynamicPublic},
		lds.Input{Name: "d.o", Class: objfile.DynamicPublic},
	)
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pg.Var("c_eptr")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := pg.Var("d_eptr")
	if err != nil {
		t.Fatal(err)
	}
	cAddr, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	dAddr, err := dp.Load()
	if err != nil {
		t.Fatal(err)
	}
	if cAddr == dAddr {
		t.Fatal("scoped linking collapsed two distinct e.o modules")
	}
	if got, _ := pg.VarAt("", cAddr).Load(); got != 111 {
		t.Fatalf("c's evalue = %d, want 111", got)
	}
	if got, _ := pg.VarAt("", dAddr).Load(); got != 222 {
		t.Fatalf("d's evalue = %d, want 222", got)
	}
}

func TestScopedResolutionFallsBackToParent(t *testing.T) {
	// A module with no module list of its own resolves against symbols
	// available at the root (here: another root-level module).
	s := core.NewSystem()
	s.Asm("/lib/provider.o", ".data\n.globl root_sym\nroot_sym: .word 9\n")
	s.Asm("/lib/needy.o", `
        .data
        .globl  needy_ptr
needy_ptr: .word root_sym
`)
	res := linkWith(t, s, trivialMain,
		lds.Input{Name: "provider.o", Class: objfile.DynamicPublic},
		lds.Input{Name: "needy.o", Class: objfile.DynamicPublic},
	)
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := pg.Var("needy_ptr")
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := v.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := pg.VarAt("", ptr).Load(); got != 9 {
		t.Fatalf("parent-scope resolution failed: got %d", got)
	}
}

func TestChildScopeShadowsParent(t *testing.T) {
	// When both the child's own list and the root provide a symbol, the
	// child's own binding wins (preserving abstraction).
	s := core.NewSystem()
	s.Asm("/root/common.o", ".data\n.globl common\ncommon: .word 1\n")
	s.Asm("/sub/common.o", ".data\n.globl common\ncommon: .word 2\n")
	s.Asm("/lib/user.o", `
        .dep    common.o, dynamic-public
        .searchpath /sub
        .data
        .globl  user_ptr
user_ptr: .word common
`)
	res := linkWith(t, s, trivialMain,
		lds.Input{Name: "common.o", Class: objfile.DynamicPublic},
		lds.Input{Name: "user.o", Class: objfile.DynamicPublic},
	)
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib:/root"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := pg.Var("user_ptr")
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := v.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := pg.VarAt("", ptr).Load(); got != 2 {
		t.Fatalf("user bound to %d, want its own common (2)", got)
	}
}

func TestPointerFollowingAcrossSegments(t *testing.T) {
	// A linked list spanning two raw shared segments, neither of them a
	// module: dereferencing faults map them in one by one.
	s := core.NewSystem()
	s.FS.MkdirAll("/data", 0644, 0)
	s.FS.Create("/data/node2", 0644, 0)
	s.FS.WriteAt("/data/node2", 0, []byte{0, 0, 0, 0, 0, 0, 0, 99}, 0)
	node2Addr, _ := s.FS.PathToAddr("/data/node2")
	s.FS.Create("/data/node1", 0644, 0)
	s.FS.WriteAt("/data/node1", 0, []byte{
		byte(node2Addr >> 24), byte(node2Addr >> 16), byte(node2Addr >> 8), byte(node2Addr), // next
		0, 0, 0, 42, // payload
	}, 0)
	node1Addr, _ := s.FS.PathToAddr("/data/node1")

	res := linkWith(t, s, trivialMain)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	head := pg.VarAt("node1", node1Addr)
	if got, _ := head.LoadAt(4); got != 42 {
		t.Fatalf("node1 payload = %d", got)
	}
	next, err := head.Follow(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := next.LoadAt(4); got != 99 {
		t.Fatalf("node2 payload = %d", got)
	}
	if s.W.Stats.PointerMaps != 2 {
		t.Fatalf("pointer maps = %d, want 2", s.W.Stats.PointerMaps)
	}
}

func TestUnmappedHoleSegfaults(t *testing.T) {
	s := core.NewSystem()
	res := linkWith(t, s, trivialMain)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An address in the shared region with no file behind it cannot be
	// resolved; the fault surfaces as a segmentation violation.
	if _, err := pg.P.LoadWord(0x6F000000); err == nil {
		t.Fatal("load from hole succeeded")
	}
}

// TestLoadPastMappedPagesSegfaults: a guest load inside a shared file's
// slot but past the file's pages is a segmentation fault. Pointer-following
// maps the file's pages, which changes nothing once they are all mapped,
// so it must not call the fault resolved and restart the load for ever.
func TestLoadPastMappedPagesSegfaults(t *testing.T) {
	s := core.NewSystem()
	s.FS.MkdirAll("/data", 0644, 0)
	s.FS.Create("/data/page", 0644, 0)
	s.FS.WriteAt("/data/page", 0, []byte{0, 0, 0, 7}, 0) // one page
	base, err := s.FS.PathToAddr("/data/page")
	if err != nil {
		t.Fatal(err)
	}
	res := linkWith(t, s, fmt.Sprintf(`
        .text
        .globl  main
main:   li      $t0, 0x%08x
        lw      $t1, 0($t0)     # the file's first word: maps the file
        lw      $v0, 8192($t0)  # two pages on: past the file
        jr      $ra
`, base))
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pg.Run(10_000) }()
	select {
	case err := <-done:
		if !errors.Is(err, kern.ErrUnhandled) || !strings.Contains(err.Error(), "segmentation fault") {
			t.Fatalf("load past the file's pages: %v, want a segmentation fault", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("load past the file's pages still running after 10 s")
	}
}

// TestGuestLoadReachesGrownFile: pages a shared file gains after the
// process mapped it reach the process by pointer-following. The guest's
// load two pages on, past what it had mapped, reads the new word.
func TestGuestLoadReachesGrownFile(t *testing.T) {
	s := core.NewSystem()
	s.FS.MkdirAll("/data", 0644, 0)
	s.FS.Create("/data/grow", 0644, 0)
	s.FS.WriteAt("/data/grow", 0, []byte{0, 0, 0, 7}, 0) // one page
	base, err := s.FS.PathToAddr("/data/grow")
	if err != nil {
		t.Fatal(err)
	}
	res := linkWith(t, s, fmt.Sprintf(`
        .text
        .globl  main
main:   li      $t0, 0x%08x
        lw      $v0, 8192($t0)  # two pages on
        jr      $ra
`, base))
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := pg.P.LoadWord(base); err != nil || v != 7 { // maps the one page
		t.Fatalf("first word = %d, %v", v, err)
	}
	s.FS.WriteAt("/data/grow", 8192, []byte{0, 0, 0, 9}, 0) // three pages
	done := make(chan error, 1)
	go func() { done <- pg.Run(10_000) }()
	select {
	case err := <-done:
		if err != nil || pg.P.ExitCode != 9 {
			t.Fatalf("load from the grown file: exit %d, %v; want 9", pg.P.ExitCode, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("load from the grown file still running after 10 s")
	}
}

func TestUserHandlerRecovery(t *testing.T) {
	// Application-specific recovery: the program's own handler gets the
	// faults ldl cannot resolve.
	s := core.NewSystem()
	res := linkWith(t, s, trivialMain)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	pg.P.UserHandler = func(p *kern.Process, f *addrspace.Fault) error {
		recovered++
		return p.AS.MapAnon(f.Addr&^4095, 4096, addrspace.ProtRW)
	}
	if _, err := pg.P.LoadWord(0x28000000); err != nil {
		t.Fatalf("user handler did not recover: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("recovered = %d", recovered)
	}
}

func TestLDLibraryPathSelectsVersion(t *testing.T) {
	// "Users can arrange to use new versions of dynamic modules by
	// changing the LD_LIBRARY_PATH environment variable prior to
	// execution."
	s := core.NewSystem()
	s.Asm("/v1/cfg.o", ".data\n.globl cfg\ncfg: .word 1\n")
	s.Asm("/v2/cfg.o", ".data\n.globl cfg\ncfg: .word 2\n")
	res := linkWith(t, s, trivialMain, lds.Input{Name: "cfg.o", Class: objfile.DynamicPrivate})
	// Give the link a default path of /v1.
	res2, err := s.Link(&lds.Options{
		Output:      "a.out",
		Modules:     []lds.Input{{Name: "main.o", Class: objfile.StaticPrivate}, {Name: "cfg.o", Class: objfile.DynamicPrivate}},
		LinkDir:     "/app",
		DefaultPath: []string{"/v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	run := func(env map[string]string) uint32 {
		pg, err := s.Launch(res2.Image, 0, env)
		if err != nil {
			t.Fatal(err)
		}
		v, err := pg.Var("cfg")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := v.Load()
		return got
	}
	if got := run(nil); got != 1 {
		t.Fatalf("default path picked %d, want 1", got)
	}
	if got := run(map[string]string{"LD_LIBRARY_PATH": "/v2"}); got != 2 {
		t.Fatalf("LD_LIBRARY_PATH override picked %d, want 2", got)
	}
}

func TestVMCallIntoSharedModule(t *testing.T) {
	// End-to-end: compiled code in the main image calls a function that
	// lives in a dynamic public module in the shared region. The call is
	// a retained JUMP26 resolved by ldl at start-up, routed through a
	// trampoline (cross-region), executing shared text.
	s := core.NewSystem()
	s.Asm("/lib/svc.o", `
        .text
        .globl  get_seven
get_seven:
        li      $v0, 7
        jr      $ra
`)
	res := linkWith(t, s, `
        .text
        .globl  main
        .extern get_seven
main:   addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        jal     get_seven
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
`, lds.Input{Name: "svc.o", Class: objfile.DynamicPublic})
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(100000); err != nil {
		t.Fatal(err)
	}
	if pg.P.ExitCode != 7 {
		t.Fatalf("exit code = %d, want 7 (returned from shared function)", pg.P.ExitCode)
	}
}

func TestForkSharesPublicLinkerState(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/shared.o", ".data\n.globl sh\nsh: .word 0\n")
	res := linkWith(t, s, trivialMain, lds.Input{Name: "shared.o", Class: objfile.DynamicPublic})
	parent, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	pv, err := parent.Var("sh")
	if err != nil {
		t.Fatal(err)
	}
	cv, err := child.Var("sh")
	if err != nil {
		t.Fatal(err)
	}
	if pv.Addr != cv.Addr {
		t.Fatal("addresses differ after fork")
	}
	cv.Store(1234)
	if got, _ := pv.Load(); got != 1234 {
		t.Fatalf("parent sees %d after child store", got)
	}
}

func TestModuleNotFoundError(t *testing.T) {
	s := core.NewSystem()
	res := linkWith(t, s, trivialMain, lds.Input{Name: "ghost.o", Class: objfile.DynamicPublic})
	_, err := s.Launch(res.Image, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "ghost.o") {
		t.Fatalf("want module-not-found at start-up, got %v", err)
	}
	var target error = ldl.ErrModuleNotFound
	if !strings.Contains(err.Error(), strings.TrimPrefix(target.Error(), "")) && err == nil {
		t.Fatal("wrong error kind")
	}
}

// TestImageRelocsAcrossPages: a main image whose retained relocations
// span several pages is patched on every page. Each `la` refers to a
// different word of a dynamic-public module, and the program exits with
// the sum of the words it loaded.
func TestImageRelocsAcrossPages(t *testing.T) {
	s := core.NewSystem()
	var mod, main strings.Builder
	mod.WriteString("        .data\n")
	main.WriteString("        .text\n        .globl main\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&mod, "        .globl v%d\nv%d: .word %d\n", i, i, i+1)
		fmt.Fprintf(&main, "        .extern v%d\n", i)
	}
	main.WriteString("main:   li $a0, 0\n")
	const refs = 800 // 4 words each: 12.5 KB of text
	want := 0
	for i := 0; i < refs; i++ {
		fmt.Fprintf(&main, "        la $t0, v%d\n        lw $t1, 0($t0)\n        addu $a0, $a0, $t1\n", i%64)
		want += i%64 + 1
	}
	main.WriteString("        li $v0, 1\n        syscall\n")
	if _, err := s.Asm("/lib/vals.o", mod.String()); err != nil {
		t.Fatal(err)
	}
	res := linkWith(t, s, main.String(), lds.Input{Name: "vals.o", Class: objfile.DynamicPublic})
	pages := map[uint32]bool{}
	for _, r := range res.Image.Relocs {
		pages[addrspace.PageBase(r.Addr)] = true
	}
	if len(res.Image.Relocs) != 2*refs || len(pages) < 3 {
		t.Fatalf("%d retained relocations on %d pages, want %d on at least 3", len(res.Image.Relocs), len(pages), 2*refs)
	}
	for i := 0; i < 2; i++ { // link cold and park, then clone
		pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		if pg.P.ExitCode != want {
			t.Fatalf("launch %d: exit %d, want %d", i, pg.P.ExitCode, want)
		}
	}
}
