package ldl_test

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/ldl"
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

func TestLinkCacheHitMissCounters(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 7\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}

	pg := launchRun(t, s, res.Image, env)
	if pg.P.ExitCode != 7 {
		t.Fatalf("cold exit = %d, want 7", pg.P.ExitCode)
	}
	c := counters(s)
	if c["ldl.linkcache_miss"] != 1 || c["ldl.linkcache_hit"] != 0 {
		t.Fatalf("after cold launch: miss=%d hit=%d, want 1/0", c["ldl.linkcache_miss"], c["ldl.linkcache_hit"])
	}
	// The recording was persisted.
	if s.Obs().R.Snapshot().Gauges["ldl.linkcache_bytes"] <= 0 {
		t.Fatal("linkcache_bytes gauge not positive after a recorded launch")
	}

	pg2 := launchRun(t, s, res.Image, env)
	if pg2.P.ExitCode != 7 {
		t.Fatalf("warm exit = %d, want 7", pg2.P.ExitCode)
	}
	c = counters(s)
	if c["ldl.linkcache_hit"] == 0 {
		t.Fatal("second identical launch did not hit the cache")
	}
	if c["ldl.linkcache_miss"] != 1 {
		t.Fatalf("warm launch counted a miss: %d", c["ldl.linkcache_miss"])
	}
	// And it was satisfied by the zygote registry, not a fresh exec.
	if c["kern.zygote_clone"] != 1 {
		t.Fatalf("zygote clones = %d, want 1", c["kern.zygote_clone"])
	}
}

func TestLinkCacheInvalidateOnModuleMutation(t *testing.T) {
	// The acceptance test: modifying a module's bytes in place forces a
	// cold relink on the next launch — ldl.linkcache_invalidate increments
	// and the program's output changes to match the new template.
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 5\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}

	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 5 {
		t.Fatalf("cold exit = %d, want 5", pg.P.ExitCode)
	}
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 5 {
		t.Fatalf("warm exit = %d, want 5", pg.P.ExitCode)
	}
	if c := counters(s); c["ldl.linkcache_invalidate"] != 0 {
		t.Fatalf("invalidations before mutation: %d", c["ldl.linkcache_invalidate"])
	}

	// Mutate the module template in place.
	if _, err := s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 9\n"); err != nil {
		t.Fatal(err)
	}

	ring := obsv.NewRing(256)
	s.Obs().T.Attach(ring)
	pg := launchRun(t, s, res.Image, env)
	s.Obs().T.Detach(ring)
	if pg.P.ExitCode != 9 {
		t.Fatalf("post-mutation exit = %d, want 9 (stale cache replayed?)", pg.P.ExitCode)
	}
	c := counters(s)
	if c["ldl.linkcache_invalidate"] != 1 {
		t.Fatalf("invalidations = %d, want 1", c["ldl.linkcache_invalidate"])
	}
	// The trace names the entry and the template that invalidated it.
	var inval []string
	for _, e := range ring.Events() {
		if e.Subsys == "ldl" && e.Name == "cache_invalidate" {
			inval = append(inval, e.Mod)
		}
	}
	if len(inval) != 1 || !strings.HasSuffix(inval[0], " by /lib/buf.o") {
		t.Fatalf("cache_invalidate events = %q, want one naming /lib/buf.o", inval)
	}
	if c["ldl.linkcache_miss"] != 2 {
		t.Fatalf("misses = %d, want 2 (initial + post-invalidation)", c["ldl.linkcache_miss"])
	}

	// The relink re-records: the NEXT launch is warm again, with the new
	// template's value.
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 9 {
		t.Fatalf("re-warmed exit = %d, want 9", pg.P.ExitCode)
	}
	if c := counters(s); c["ldl.linkcache_invalidate"] != 1 {
		t.Fatalf("extra invalidation on re-warmed launch: %d", c["ldl.linkcache_invalidate"])
	}
}

func TestLinkCacheCorruptEntryFallsBackCold(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 3\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	launchRun(t, s, res.Image, env)

	// Corrupt the recorded entry: flip bytes in the middle of the file.
	ents, err := s.FS.ReadDir("/var/ldl/cache")
	if err != nil || len(ents) == 0 {
		t.Fatalf("no cache entries recorded: %v", err)
	}
	path := "/var/ldl/cache/" + ents[0].Name
	if _, err := s.FS.WriteAt(path, 8, []byte{0xde, 0xad, 0xbe, 0xef}, 0); err != nil {
		t.Fatal(err)
	}

	pg := launchRun(t, s, res.Image, env)
	if pg.P.ExitCode != 3 {
		t.Fatalf("post-corruption exit = %d, want 3", pg.P.ExitCode)
	}
	c := counters(s)
	if c["ldl.linkcache_invalidate"] != 1 {
		t.Fatalf("corrupt entry not invalidated: %d", c["ldl.linkcache_invalidate"])
	}
	// The corrupt file was unlinked and a fresh recording took its place.
	if _, err := s.FS.StatPath(path); err != nil {
		t.Fatal("cache entry not re-recorded after corruption")
	}
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 3 {
		t.Fatalf("re-warmed exit = %d", pg.P.ExitCode)
	}
}

func TestLinkCacheReplayAcrossWorldReset(t *testing.T) {
	// Cache entries live on the shared file system: they survive a "reboot"
	// (ResetWorld), so even the first launch of the new world replays — the
	// lazy-link event included.
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
	if _, err := v.Load(); err != nil { // faults: lazy-links outer, recorded
		t.Fatal(err)
	}
	if s.W.Stats.LazyLinks != 1 {
		t.Fatalf("cold lazy links = %d, want 1", s.W.Stats.LazyLinks)
	}

	s.ResetWorld()
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
	// The new world replayed: stats credit the same work, and the probe hit.
	if s.W.Stats.LazyLinks != 1 {
		t.Fatalf("post-reset lazy links = %d, want 1", s.W.Stats.LazyLinks)
	}
	if c := counters(s); c["ldl.linkcache_hit"] == 0 {
		t.Fatal("post-reset launch missed the persistent cache")
	}
}

// TestLinkCacheReplayAcrossReboot is the stronger reboot: the whole file
// system is serialised to a disk image and booted on a fresh kernel, the
// way cmd/hemlock persists a world between invocations. Cache entries AND
// the fingerprints in their manifests must survive the round trip — the
// first launch on the rebooted machine replays instead of relinking, and
// in-place mutation on the rebooted machine still invalidates.
func TestLinkCacheReplayAcrossReboot(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 6\n")
	res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
	if err := s.SaveExecutable("/app/a.hemx", res.Image); err != nil {
		t.Fatal(err)
	}
	env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
	if pg := launchRun(t, s, res.Image, env); pg.P.ExitCode != 6 {
		t.Fatalf("cold exit = %d, want 6", pg.P.ExitCode)
	}

	var img bytes.Buffer
	if err := s.Save(&img); err != nil {
		t.Fatal(err)
	}
	s2, err := core.Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := s2.LoadExecutable("/app/a.hemx")
	if err != nil {
		t.Fatal(err)
	}
	if pg := launchRun(t, s2, im2, env); pg.P.ExitCode != 6 {
		t.Fatalf("post-reboot exit = %d, want 6", pg.P.ExitCode)
	}
	c := counters(s2)
	if c["ldl.linkcache_hit"] == 0 {
		t.Fatalf("first launch after reboot missed the persistent cache (miss=%d invalidate=%d)",
			c["ldl.linkcache_miss"], c["ldl.linkcache_invalidate"])
	}
	if c["ldl.linkcache_invalidate"] != 0 {
		t.Fatalf("reboot alone invalidated the cache: %d", c["ldl.linkcache_invalidate"])
	}

	// A real in-place mutation on the rebooted machine is still caught.
	if _, err := s2.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 8\n"); err != nil {
		t.Fatal(err)
	}
	if pg := launchRun(t, s2, im2, env); pg.P.ExitCode != 8 {
		t.Fatalf("post-mutation exit = %d, want 8 (stale cache replayed)", pg.P.ExitCode)
	}
	if c := counters(s2); c["ldl.linkcache_invalidate"] != 1 {
		t.Fatalf("invalidations after mutation = %d, want 1", c["ldl.linkcache_invalidate"])
	}
}

// TestLinkCacheEntryFromOlderLayoutMisses loads testdata/layout1-world.hsfs,
// a world saved by the linker that laid each module out contiguously (text,
// data, bss, trampoline area). In it /bin/demo reads val (.word 42) with
// la/lw from /lib/lib.o, a dynamic-private module with text and data, and
// exits with it; its one launch there recorded a link-cache entry. Place
// now puts lib's data a page higher, so replaying that entry would point
// main at zeroed bytes. The layout version in the launch key makes the
// entry miss: the launch links cold and exits 42, and the entry it records
// serves the next launch.
func TestLinkCacheEntryFromOlderLayoutMisses(t *testing.T) {
	f, err := os.Open("testdata/layout1-world.hsfs")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if names, _ := s.FS.ReadDir(ldl.CacheDir); len(names) != 1 {
		t.Fatalf("saved world holds %d link-cache entries, want 1", len(names))
	}
	im, err := s.LoadExecutable("/bin/demo")
	if err != nil {
		t.Fatal(err)
	}
	if pg := launchRun(t, s, im, nil); pg.P.ExitCode != 42 {
		t.Fatalf("first launch exit = %d, want 42 (older layout's entry replayed)", pg.P.ExitCode)
	}
	if c := counters(s); c["ldl.linkcache_hit"] != 0 || c["ldl.linkcache_miss"] != 1 {
		t.Fatalf("first launch: hit=%d miss=%d, want 0/1", c["ldl.linkcache_hit"], c["ldl.linkcache_miss"])
	}
	if pg := launchRun(t, s, im, nil); pg.P.ExitCode != 42 {
		t.Fatalf("second launch exit = %d, want 42", pg.P.ExitCode)
	}
	if c := counters(s); c["ldl.linkcache_hit"] == 0 || c["ldl.linkcache_miss"] != 1 {
		t.Fatalf("second launch: hit=%d miss=%d, want a hit and no new miss", c["ldl.linkcache_hit"], c["ldl.linkcache_miss"])
	}
}

func TestLinkCacheWarmWorldMatchesColdWorld(t *testing.T) {
	// Two worlds, identical inputs: one with stable linking off, one with
	// it on (two launches each). Link stats, exit codes, and the public
	// instance bytes must be indistinguishable.
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
	cold.SetStableLinking(false, false)
	warm := core.NewSystem()

	resC, envC := build(cold)
	resW, envW := build(warm)
	var codes [2][2]int
	for i := 0; i < 2; i++ {
		codes[0][i] = launchRun(t, cold, resC.Image, envC).P.ExitCode
		codes[1][i] = launchRun(t, warm, resW.Image, envW).P.ExitCode
	}
	if codes[0] != codes[1] {
		t.Fatalf("exit codes diverge: cold %v warm %v", codes[0], codes[1])
	}
	if cold.W.Stats != warm.W.Stats {
		t.Fatalf("stats diverge:\ncold %+v\nwarm %+v", cold.W.Stats, warm.W.Stats)
	}
	// Public instance bytes are bit-identical in both worlds.
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
	// The warm world's second launch really did skip linker work.
	if c := counters(warm); c["kern.zygote_clone"] != 1 {
		t.Fatalf("warm world zygote clones = %d, want 1", c["kern.zygote_clone"])
	}
}

func TestLinkCacheFilesStayOutOfModuleSlots(t *testing.T) {
	// Cache traffic must not perturb public address assignment: module
	// instances land in the same low slots with the cache on or off.
	slots := func(s *core.System) []int {
		s.Asm("/lib/db.o", ".data\n.globl db_count\ndb_count: .word 1\n")
		res := linkWith(t, s, trivialMain, lds.Input{Name: "db.o", Class: objfile.DynamicPublic})
		env := map[string]string{"LD_LIBRARY_PATH": "/lib"}
		launchRun(t, s, res.Image, env)
		var out []int
		s.FS.WalkFiles(func(p string, st shmfs.Stat) error {
			if !strings.HasPrefix(p, "/var/ldl/cache/") {
				out = append(out, st.Ino)
			}
			return nil
		})
		return out
	}
	off := core.NewSystem()
	off.SetStableLinking(false, false)
	on := core.NewSystem()
	a, b := slots(off), slots(on)
	if len(a) != len(b) {
		t.Fatalf("file counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d diverges: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestLinkCacheRecreatedModuleInvalidates: a template unlinked and
// re-created at the same path and size reuses the inode number, so its
// fingerprint must come from the fresh frames. Otherwise the zygote
// recorded against the old bytes keeps being cloned.
func TestLinkCacheRecreatedModuleInvalidates(t *testing.T) {
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
	if c := counters(s); c["ldl.linkcache_invalidate"] != 1 {
		t.Fatalf("invalidations = %d, want 1", c["ldl.linkcache_invalidate"])
	}
}

// TestLaunchKeyPinned: link-cache entries in saved worlds are named by
// LaunchKey, so its value for a given image, uid and environment must not
// change. The image sets every field the key hashes.
func TestLaunchKeyPinned(t *testing.T) {
	im := &objfile.Image{
		Name: "pinned", Entry: 0x400010,
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
	w := core.NewSystem().W
	for _, c := range []struct {
		uid  int
		env  map[string]string
		want string
	}{
		{0, nil, "46a0030bdc644e55"},
		{7, map[string]string{"LD_LIBRARY_PATH": "/lib", "A": "b"}, "3e7474f05b913efa"},
	} {
		if got := w.LaunchKey(im, c.uid, c.env); got != c.want {
			t.Errorf("LaunchKey(uid %d, env %v) = %s, want %s", c.uid, c.env, got, c.want)
		}
	}
}

// TestLaunchKeepsNoImage: the image's hash lives on the image, so once
// a launched process has exited nothing in the world holds its image.
// Zygotes are off: a parked template keeps the image it was linked from.
func TestLaunchKeepsNoImage(t *testing.T) {
	s := core.NewSystem()
	defer runtime.KeepAlive(s)
	s.SetStableLinking(true, false)
	s.Asm("/lib/buf.o", ".data\n.globl buf_val\nbuf_val: .word 7\n")
	freed := make(chan struct{})
	func() {
		res := linkWith(t, s, exitWithModuleVal, lds.Input{Name: "buf.o", Class: objfile.DynamicPrivate})
		runtime.SetFinalizer(res.Image, func(*objfile.Image) { close(freed) })
		for i := 0; i < 2; i++ { // record, then replay
			launchRun(t, s, res.Image, map[string]string{"LD_LIBRARY_PATH": "/lib"})
		}
	}()
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
