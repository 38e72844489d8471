package ldl_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
)

// exitWithModuleVal loads a word exported by a dynamic module and exits
// with it: the exit code proves which template version the launch linked.
const exitWithModuleVal = `
        .text
        .globl  main
        .extern buf_val
main:   la      $t0, buf_val
        lw      $a0, 0($t0)
        li      $v0, 1
        syscall
`

func counters(s *core.System) map[string]uint64 {
	return s.Obs().R.Snapshot().Counters
}

func launchRun(t *testing.T, s *core.System, im *objfile.Image, env map[string]string) *core.Program {
	t.Helper()
	pg, err := s.Launch(im, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !pg.P.Exited {
		t.Fatal("program did not exit")
	}
	return pg
}

// TestZygoteRegisterCloneCounters: the first launch links cold and parks
// a zygote; an identical second launch clones it.
func TestZygoteRegisterCloneCounters(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 7\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}

	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 7 {
		t.Fatalf("cold exit = %d, want 7", pg.P.ExitCode)
	}
	if c := counters(s); c["kern.zygote_register"] != 1 || c["kern.zygote_clone"] != 0 {
		t.Fatalf("after cold launch: register=%d clone=%d, want 1/0", c["kern.zygote_register"], c["kern.zygote_clone"])
	}
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 7 {
		t.Fatalf("warm exit = %d, want 7", pg.P.ExitCode)
	}
	if c := counters(s); c["kern.zygote_register"] != 1 || c["kern.zygote_clone"] != 1 {
		t.Fatalf("after warm launch: register=%d clone=%d, want 1/1", c["kern.zygote_register"], c["kern.zygote_clone"])
	}
}

// TestCloneImagePatchStaysPrivate: a relocation the main image retains
// past start-up is patched when a later module brings its symbol in. In a
// zygote clone that patch lands in the clone's own copy of the page; the
// parked template, the process that parked it and the next clone still
// hold the unpatched word.
func TestCloneImagePatchStaysPrivate(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/late.o", ".data\n.globl late_val\nlate_val: .word 9\n")
	res := linkWith(t, s, `
        .text
        .globl  main
        .extern late_val
main:   la      $t0, late_val
        lw      $v0, 0($t0)
        jr      $ra
`)
	addr := res.Image.Relocs[0].Addr
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	launch := func() *core.Program {
		pg, err := s.Launch(res.Image, 0, env)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	word := func(pg *core.Program) uint32 {
		w, err := pg.P.AS.LoadWord(addr)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	first := launch()
	unpatched := word(first)
	clone := launch()
	if _, err := clone.LDL.BringIn(objfile.ModuleRef{Name: "late.o", Class: objfile.DynamicPublic}, nil); err != nil {
		t.Fatal(err)
	}
	if word(clone) == unpatched {
		t.Fatal("bringing late.o in did not patch the clone's image")
	}
	if w := word(first); w != unpatched {
		t.Fatalf("parking process sees %#x, want the unpatched %#x", w, unpatched)
	}
	if w := word(launch()); w != unpatched {
		t.Fatalf("next clone sees %#x, want the unpatched %#x", w, unpatched)
	}
	if c := counters(s); c["kern.zygote_clone"] != 2 {
		t.Fatalf("clones = %d, want 2", c["kern.zygote_clone"])
	}
}

// TestZygoteInvalidateOnModuleMutation: rewriting a module template in
// place drops the zygote at the next launch, which links cold against the
// new template, counts kern.zygote_invalidate and names the template in
// its trace event; the launch after that clones again.
func TestZygoteInvalidateOnModuleMutation(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 5\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}

	for i := 0; i < 2; i++ {
		if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 5 {
			t.Fatalf("launch %d exit = %d, want 5", i, pg.P.ExitCode)
		}
	}
	if _, err := s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 9\n"); err != nil {
		t.Fatal(err)
	}

	ring := obsv.NewRing(256)
	s.Obs().T.Attach(ring)
	pg := launchRun(t, s, res.Image, env)
	s.Obs().T.Detach(ring)
	if pg.P.ExitCode != 9 {
		t.Fatalf("post-mutation exit = %d, want 9 (stale zygote cloned?)", pg.P.ExitCode)
	}
	c := counters(s)
	if c["kern.zygote_invalidate"] != 1 || c["kern.zygote_register"] != 2 {
		t.Fatalf("invalidate=%d register=%d, want 1/2", c["kern.zygote_invalidate"], c["kern.zygote_register"])
	}
	var inval []string
	for _, e := range ring.Events() {
		if e.Subsys == "kern" && e.Name == "zygote_invalidate" {
			inval = append(inval, e.Mod)
		}
	}
	if len(inval) != 1 || !strings.HasSuffix(inval[0], " by /lib/buf.o") {
		t.Fatalf("zygote_invalidate events = %q, want one naming /lib/buf.o", inval)
	}

	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 9 {
		t.Fatalf("re-warmed exit = %d, want 9", pg.P.ExitCode)
	}
	if c := counters(s); c["kern.zygote_invalidate"] != 1 || c["kern.zygote_clone"] != 2 {
		t.Fatalf("re-warmed launch: invalidate=%d clone=%d, want 1/2", c["kern.zygote_invalidate"], c["kern.zygote_clone"])
	}
}

// TestZygoteInvalidationRulesMatchColdWorld: each way a template can
// change under a parked zygote — rewritten in place, unlinked and
// re-created at the same path, size and inode, or a symlink re-pointed at
// another file — makes the next launch link cold, exit with the new
// value, and leave the world's linker stats equal to a world that links
// every launch cold.
func TestZygoteInvalidationRulesMatchColdWorld(t *testing.T) {
	val := func(v int) string {
		return fmt.Sprintf(".data\n.globl buf_val\nbuf_val: .word %d\n", v)
	}
	for _, c := range []struct {
		name   string
		change func(t *testing.T, s *core.System)
	}{
		{"rewrite", func(t *testing.T, s *core.System) {
			if _, err := s.Asm("/lib/v1/buf.o", val(9)); err != nil {
				t.Fatal(err)
			}
		}},
		{"recreate", func(t *testing.T, s *core.System) {
			st, err := s.FS.StatPath("/lib/v1/buf.o")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FS.Unlink("/lib/v1/buf.o", 0); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Asm("/lib/v1/buf.o", val(9)); err != nil {
				t.Fatal(err)
			}
			if st2, _ := s.FS.StatPath("/lib/v1/buf.o"); st2.Ino != st.Ino || st2.Size != st.Size {
				t.Fatalf("re-created at ino %d size %d, want ino %d size %d", st2.Ino, st2.Size, st.Ino, st.Size)
			}
		}},
		{"repoint", func(t *testing.T, s *core.System) {
			if err := s.FS.Unlink("/lib/buf.o", 0); err != nil {
				t.Fatal(err)
			}
			if err := s.FS.Symlink("/lib/v2/buf.o", "/lib/buf.o", 0); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(stable bool) (*core.System, *objfile.Image) {
				s := core.NewSystem()
				s.SetStableLinking(stable)
				s.Asm("/lib/v1/buf.o", val(5))
				s.Asm("/lib/v2/buf.o", val(9))
				if err := s.FS.Symlink("/lib/v1/buf.o", "/lib/buf.o", 0); err != nil {
					t.Fatal(err)
				}
				return s, linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate}).Image
			}
			cold, imC := build(false)
			zyg, imZ := build(true)
			env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
			for i := 0; i < 2; i++ {
				launchRun(t, cold, imC, env)
				launchRun(t, zyg, imZ, env)
			}
			c.change(t, cold)
			c.change(t, zyg)
			if got := launchRun(t, cold, imC, env).P.ExitCode; got != 9 {
				t.Fatalf("cold world exit = %d, want 9", got)
			}
			if got := launchRun(t, zyg, imZ, env).P.ExitCode; got != 9 {
				t.Fatalf("zygote world exit = %d, want 9 (stale zygote cloned?)", got)
			}
			if n := counters(zyg)["kern.zygote_invalidate"]; n != 1 {
				t.Fatalf("kern.zygote_invalidate = %d, want 1", n)
			}
			if cold.W.Stats != zyg.W.Stats {
				t.Fatalf("stats diverge:\ncold   %+v\nzygote %+v", cold.W.Stats, zyg.W.Stats)
			}
		})
	}
}

// TestDynamicPrivateLazyLinkEveryLaunch: main calls into a dynamic-private
// module that calls into another module, so every launch links the
// private module lazily during its run — a clone too, whose copy of the
// module is still mapped without access. Each launch must exit 42.
func TestDynamicPrivateLazyLinkEveryLaunch(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/answer.o", ".text\n.globl answer\nanswer: li $v0, 42\n jr $ra\n")
	s.Asm("/lib/mid.o", `
        .text
        .globl  mid
        .extern answer
mid:    addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        jal     answer
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
`)
	res := linkWith(t, s, `
        .text
        .globl  main
        .extern mid
main:   addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        jal     mid
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
`, lds.Input{Name: "mid.o", Class: objfile.DynamicPrivate}, lds.Input{Name: "answer.o", Class: objfile.DynamicPublic})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	for i := 0; i < 3; i++ {
		pg, err := s.Launch(res.Image, 0, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Run(100000); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if !pg.P.Exited || pg.P.ExitCode != 42 {
			t.Fatalf("launch %d: exited %v with %d, want 42", i, pg.P.Exited, pg.P.ExitCode)
		}
	}
	c := counters(s)
	if c["kern.zygote_clone"] != 2 {
		t.Fatalf("zygote clones = %d, want 2", c["kern.zygote_clone"])
	}
	if s.W.Stats.LazyLinks != 3 {
		t.Fatalf("lazy links = %d, want 3 (one per launch)", s.W.Stats.LazyLinks)
	}
}

// TestLaunchAfterWorldResetLinksCold: ResetWorld drops every zygote with
// the World, so the first launch after it links cold — lazy links
// included — and parks a new zygote.
func TestLaunchAfterWorldResetLinksCold(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/inner.o", ".data\n.globl inner_val\ninner_val: .word 31337\n")
	s.Asm("/lib/outer.o", `
        .dep    inner.o, dynamic-public
        .searchpath /lib
        .data
        .globl  outer_ptr
outer_ptr: .word inner_val
`)
	res := linkWith(t, s, trivialMain, lds.Input{Name: "outer.o", Class: objfile.DynamicPublic})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}

	pg, err := s.Launch(res.Image, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pg.Var("outer_ptr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Load(); err != nil { // faults: lazy-links outer
		t.Fatal(err)
	}
	if s.W.Stats.LazyLinks != 1 {
		t.Fatalf("cold lazy links = %d, want 1", s.W.Stats.LazyLinks)
	}

	s.ResetWorld()
	if len(s.K.Zygotes()) != 0 {
		t.Fatal("a zygote survived ResetWorld")
	}
	pg2, err := s.Launch(res.Image, 0, env)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := pg2.Var("outer_ptr")
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := v2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := pg2.VarAt("inner_val", ptr).Load(); got != 31337 {
		t.Fatalf("followed pointer to %d, want 31337", got)
	}
	if s.W.Stats.LazyLinks != 1 {
		t.Fatalf("post-reset lazy links = %d, want 1", s.W.Stats.LazyLinks)
	}
	if c := counters(s); c["kern.zygote_register"] != 2 || c["kern.zygote_clone"] != 0 {
		t.Fatalf("register=%d clone=%d, want 2/0", c["kern.zygote_register"], c["kern.zygote_clone"])
	}
}

// TestLayout1WorldLaunches loads testdata/layout1-world.hsfs, a world
// saved by the linker that laid each module out contiguously (text, data,
// bss, trampoline area). In it /bin/demo reads val (.word 42) with la/lw
// from /lib/lib.o, a dynamic-private module with text and data, and exits
// with it. Its one launch there left a link-cache entry under
// /var/ldl/cache, which nothing reads any more. Launches link against the
// current layout and exit 42, the second as a clone, and none touches the
// old entry. The file is HSFS v2; the world saves as v3, reloads with the
// same files, and launches from there exit 42 too.
func TestLayout1WorldLaunches(t *testing.T) {
	f, err := os.Open("testdata/layout1-world.hsfs")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	entries := func() []string {
		ents, err := s.FS.ReadDir("/var/ldl/cache")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		return names
	}
	before := entries()
	if len(before) != 1 {
		t.Fatalf("saved world holds %d link-cache entries, want 1", len(before))
	}
	im, err := s.LoadExecutable("/bin/demo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if pg := launchRun(t, s, im, nil); pg.P.ExitCode != 42 {
			t.Fatalf("launch %d exit = %d, want 42", i, pg.P.ExitCode)
		}
	}
	if c := counters(s); c["kern.zygote_clone"] != 1 {
		t.Fatalf("zygote clones = %d, want 1", c["kern.zygote_clone"])
	}
	if after := entries(); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("/var/ldl/cache went from %v to %v", before, after)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint32(buf.Bytes()[4:]); v != 3 {
		t.Fatalf("saved as HSFS v%d, want v3", v)
	}
	s2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := worldFiles(t, s2), worldFiles(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("files after the v3 reload:\n%v\nwant\n%v", got, want)
	}
	im2, err := s2.LoadExecutable("/bin/demo")
	if err != nil {
		t.Fatal(err)
	}
	if pg := launchRun(t, s2, im2, nil); pg.P.ExitCode != 42 {
		t.Fatalf("launch after the v3 reload exit = %d, want 42", pg.P.ExitCode)
	}
}

// worldFiles maps each file in s's file system to its stat and bytes.
func worldFiles(t *testing.T, s *core.System) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := s.FS.WalkFiles(func(p string, st shmfs.Stat) error {
		b, err := s.FS.ReadFile(p, 0)
		out[p] = fmt.Sprintf("%+v %x", st, b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestZygoteWorldMatchesColdWorld: two worlds, identical inputs, one with
// stable linking off and one with it on (two launches each). Exit codes,
// PIDs, link stats and the public instance bytes must be
// indistinguishable.
func TestZygoteWorldMatchesColdWorld(t *testing.T) {
	build := func(s *core.System) (*lds.Result, map[string]string) {
		s.Asm("/lib/inner.o", ".data\n.globl inner_val\ninner_val: .word 77\n")
		s.Asm("/lib/outer.o", `
        .dep    inner.o, dynamic-public
        .searchpath /lib
        .data
        .globl  outer_ptr
outer_ptr: .word inner_val
        .globl  buf_val
buf_val: .word 11
`)
		res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "outer.o", Class: objfile.DynamicPublic})
		return res, map[string]string{"LD_LIBRARY_PATH": "/lib"}
	}

	cold := core.NewSystem()
	cold.SetStableLinking(false)
	warm := core.NewSystem()

	resC, envC := build(cold)
	resW, envW := build(warm)
	var codes, pids [2][2]int
	for i := 0; i < 2; i++ {
		pc := launchRun(t, cold, resC.Image, envC)
		pw := launchRun(t, warm, resW.Image, envW)
		codes[0][i], pids[0][i] = pc.P.ExitCode, pc.P.PID
		codes[1][i], pids[1][i] = pw.P.ExitCode, pw.P.PID
	}
	if codes[0] != codes[1] {
		t.Fatalf("exit codes diverge: cold %v warm %v", codes[0], codes[1])
	}
	if pids[0] != pids[1] {
		t.Fatalf("PIDs diverge: cold %v warm %v", pids[0], pids[1])
	}
	if cold.W.Stats != warm.W.Stats {
		t.Fatalf("stats diverge:\ncold %+v\nwarm %+v", cold.W.Stats, warm.W.Stats)
	}
	instC, err := cold.FS.ReadFile("/lib/outer", 0)
	if err != nil {
		t.Fatal(err)
	}
	instW, err := warm.FS.ReadFile("/lib/outer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(instC) != string(instW) {
		t.Fatal("public instance bytes diverge between cold and warm worlds")
	}
	if c := counters(warm); c["kern.zygote_clone"] != 1 {
		t.Fatalf("warm world zygote clones = %d, want 1", c["kern.zygote_clone"])
	}
}

// TestStableLinkingKeepsModuleSlots: stable linking writes no file, so
// after the same launches a world with it on holds exactly the files, at
// the same inode slots (public addresses), as a world with it off.
func TestStableLinkingKeepsModuleSlots(t *testing.T) {
	files := func(s *core.System) []string {
		s.Asm("/lib/db.o", ".data\n.globl db_count\ndb_count: .word 1\n")
		res := linkWith(t, s, trivialMain, lds.Input{Name: "db.o", Class: objfile.DynamicPublic})
		env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
		for i := 0; i < 2; i++ {
			launchRun(t, s, res.Image, env)
		}
		var out []string
		s.FS.WalkFiles(func(p string, st shmfs.Stat) error {
			out = append(out, fmt.Sprintf("%s@%d", p, st.Ino))
			return nil
		})
		return out
	}
	off := core.NewSystem()
	off.SetStableLinking(false)
	a, b := files(off), files(core.NewSystem())
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("files diverge:\noff %v\non  %v", a, b)
	}
}

// TestZygoteRecreatedModuleInvalidates: a template unlinked and re-created
// at the same path and size reuses the inode number, so its fingerprint
// must come from the fresh frames. Otherwise the zygote parked against the
// old bytes keeps being cloned.
func TestZygoteRecreatedModuleInvalidates(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 7\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 7 {
		t.Fatalf("cold exit = %d, want 7", pg.P.ExitCode)
	}
	st, err := s.FS.StatPath("/lib/buf.o")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FS.Unlink("/lib/buf.o", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 9\n"); err != nil {
		t.Fatal(err)
	}
	st2, err := s.FS.StatPath("/lib/buf.o")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ino != st.Ino || st2.Size != st.Size {
		t.Fatalf("re-created file at ino %d size %d, want ino %d size %d (the case under test)",
			st2.Ino, st2.Size, st.Ino, st.Size)
	}
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 9 {
		t.Fatalf("exit after re-create = %d, want 9 (stale zygote cloned?)", pg.P.ExitCode)
	}
	if c := counters(s); c["kern.zygote_invalidate"] != 1 {
		t.Fatalf("invalidations = %d, want 1", c["kern.zygote_invalidate"])
	}
}

// fullImage returns a load image with every field set.
func fullImage() *objfile.Image {
	return &objfile.Image{
		Name: "full", Entry: 0x400010,
		TextBase: 0x400000, Text: []byte{0x27, 0xbd, 0xff, 0xf8, 0x03, 0xe0, 0x00, 0x08},
		DataBase: 0x401000, Data: []byte{0, 0, 0, 42},
		BssBase: 0x401004, BssSize: 16,
		TrampBase: 0x400008, TrampSize: 64,
		Symbols: []objfile.ImageSym{{Name: "main", Addr: 0x400000, Size: 8}},
		Relocs:  []objfile.ImageReloc{{Addr: 0x400004, Name: "buf_val", Type: objfile.RelHi16, Addend: -4}},
		Dyn: objfile.DynInfo{
			DynModules:   []objfile.ModuleRef{{Name: "buf.o", Class: objfile.DynamicPublic}},
			StaticPublic: []objfile.StaticPublicRef{{Name: "s.o", Path: "/lib/s", Template: "/lib/s.o", Addr: 0x30000000}},
			LinkDir:      "/bin", CmdPath: []string{"/c"}, EnvPath: []string{"/e"}, DefaultPath: []string{"/lib"},
		},
		PLT: []objfile.ImageSym{{Name: "f", Addr: 0x400020, Size: 16}},
	}
}

// changeLeaf changes the n-th leaf under v, counted in field order, and
// returns its path, or "" when v has fewer leaves. A leaf is a string, an
// integer, a byte slice (grown by a byte), or a list, which counts its
// entries' leaves and then itself (grown by a zero entry). A field of a
// kind it does not know panics, so a new Image field cannot be skipped.
func changeLeaf(v reflect.Value, path string, n *int) string {
	leaf := func(change func()) string {
		if *n > 0 {
			*n--
			return ""
		}
		change()
		return path
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				if p := changeLeaf(v.Field(i), path+"."+f.Name, n); p != "" {
					return p
				}
			}
		}
		return ""
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return leaf(func() { v.SetBytes(append(v.Bytes(), 0)) })
		}
		for i := 0; i < v.Len(); i++ {
			if p := changeLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), n); p != "" {
				return p
			}
		}
		return leaf(func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
	case reflect.String:
		return leaf(func() { v.SetString(v.String() + "x") })
	case reflect.Uint8, reflect.Uint32:
		return leaf(func() { v.SetUint(v.Uint() + 1) })
	case reflect.Int32:
		return leaf(func() { v.SetInt(v.Int() + 1) })
	}
	panic(fmt.Sprintf("changeLeaf: %s is a %s", path, v.Kind()))
}

// TestLaunchKeyTellsImagesApart: a launch key hashes the image's HEMX
// encoding, so images that encode differently get different keys. That
// includes a pair a key built field by field, without lengths, confused:
// text one word longer (the old data base), with the data base and data
// shifted to match. Every leaf of a fully set image moves the key, and so
// do the uid and each environment entry; an image decoded from another's
// encoding shares its key.
func TestLaunchKeyTellsImagesApart(t *testing.T) {
	w := core.NewSystem().W
	key := func(im *objfile.Image, uid int, env map[string]string) uint64 {
		t.Helper()
		k, err := w.LaunchKey(im, uid, env)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(fullImage(), 0, nil)

	shifted := fullImage()
	shifted.Text = append(shifted.Text, 0x00, 0x40, 0x10, 0x00)
	shifted.DataBase, shifted.Data = 42, nil
	if key(shifted, 0, nil) == base {
		t.Error("text one word longer, data base and data shifted to match: same key")
	}

	leaves := 0
	for ; ; leaves++ {
		im, n := fullImage(), leaves
		path := changeLeaf(reflect.ValueOf(im).Elem(), "Image", &n)
		if path == "" {
			break
		}
		if key(im, 0, nil) == base {
			t.Errorf("changing %s leaves the key", path)
		}
	}
	if leaves < 30 {
		t.Fatalf("changed %d leaves of a full image, want at least 30", leaves)
	}

	b, err := fullImage().ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	copied, err := objfile.DecodeImageBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if key(copied, 0, nil) != base {
		t.Error("an image decoded from another's encoding has another key")
	}

	env := map[string]string{"LD_LIBRARY_PATH": "/lib", "A": "bc"}
	seen := map[uint64]string{base: "uid 0, no env"}
	for _, c := range []struct {
		name string
		uid  int
		env  map[string]string
	}{
		{"uid 7", 7, nil},
		{"env", 0, env},
		{"env A changed", 0, map[string]string{"LD_LIBRARY_PATH": "/lib", "A": "bd"}},
		{"env A split differently", 0, map[string]string{"LD_LIBRARY_PATH": "/lib", "Ab": "c"}},
		{"env LD_LIBRARY_PATH changed", 0, map[string]string{"LD_LIBRARY_PATH": "/usr/lib", "A": "bc"}},
		{"env without A", 0, map[string]string{"LD_LIBRARY_PATH": "/lib"}},
	} {
		k := key(fullImage(), c.uid, c.env)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s has the key of %s", c.name, prev)
		}
		seen[k] = c.name
	}
}

// TestUnencodableImageLaunchesCold: an image the codec cannot encode (a
// name over the 65535-byte string limit) has no launch key. It launches
// and runs, links cold every time, and parks no zygote.
func TestUnencodableImageLaunchesCold(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 7\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	res.Image.Name = strings.Repeat("x", 1<<16)
	if _, err := s.W.LaunchKey(res.Image, 0, nil); err == nil {
		t.Fatal("LaunchKey of an image the codec cannot encode succeeded")
	}
	for i := 0; i < 2; i++ {
		if pg := launchRun(t, s, res.Image, map[string]string{"LD_LIBRARY_PATH": "/lib"}); pg.P.ExitCode != 7 {
			t.Fatalf("launch %d exit = %d, want 7", i, pg.P.ExitCode)
		}
	}
	if c := counters(s); c["kern.zygote_register"] != 0 || c["kern.zygote_clone"] != 0 || len(s.K.Zygotes()) != 0 {
		t.Fatalf("zygote register/clone = %d/%d, registry %v, want none", c["kern.zygote_register"], c["kern.zygote_clone"], s.K.Zygotes())
	}
}

// TestLaunchKeepsNoImage: the image's hash lives on the image, so once
// a launched process has exited and its zygote is dropped nothing in the
// world holds its image: not the launch key, the singleflight lock, the
// zygote manifest or the decoded-template memo. The two launches run
// under stable linking, so the first links cold and parks and the second
// clones; a parked template keeps the image it was linked from, so every
// zygote is dropped before looking.
func TestLaunchKeepsNoImage(t *testing.T) {
	s := core.NewSystem()
	defer runtime.KeepAlive(s)
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 7\n")
	freed := make(chan struct{})
	func() {
		res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
		runtime.SetFinalizer(res.Image, func(*objfile.Image) { close(freed) })
		for i := 0; i < 2; i++ { // link cold and park, then clone
			launchRun(t, s, res.Image, map[string]string{"LD_LIBRARY_PATH": "/lib"})
		}
	}()
	if c := counters(s); c["kern.zygote_register"] != 1 || c["kern.zygote_clone"] != 1 {
		t.Fatalf("zygote register/clone = %d/%d, want 1/1", c["kern.zygote_register"], c["kern.zygote_clone"])
	}
	s.K.DropAllZygotes()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an image is still reachable after its launches exited")
}
