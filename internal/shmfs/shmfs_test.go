package shmfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"hemlock/internal/mem"
	"hemlock/internal/wire"
)

func newFS(t testing.TB) *FS {
	t.Helper()
	fs, err := New(mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestGeometry(t *testing.T) {
	// The 1 GB region divides into exactly 1024 slots of 1 MB.
	if (Limit-Base)/SlotSize != NumInodes {
		t.Fatalf("region holds %d slots, want %d", (Limit-Base)/SlotSize, NumInodes)
	}
	if AddrOf(0) != Base {
		t.Fatalf("inode 0 at 0x%08x, want 0x%08x", AddrOf(0), Base)
	}
	if AddrOf(NumInodes-1)+SlotSize != Limit {
		t.Fatal("last slot does not end at region limit")
	}
}

func TestCreateStatAddr(t *testing.T) {
	fs := newFS(t)
	st, err := fs.Create("/mod.o", DefaultFileMode, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Addr != AddrOf(st.Ino) {
		t.Fatalf("addr 0x%08x != AddrOf(%d)", st.Addr, st.Ino)
	}
	got, err := fs.StatPath("/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	if got.Ino != st.Ino || got.Type != TypeFile || got.UID != 100 {
		t.Fatalf("stat mismatch: %+v", got)
	}
}

func TestCreateExisting(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("/x", DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/x", DefaultFileMode, 0); !errors.Is(err, ErrExist) {
		t.Fatalf("want ErrExist, got %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("/data", DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("segment "), 1000) // spans pages
	if _, err := fs.WriteAt("/data", 100, msg, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	n, err := fs.ReadAt("/data", 100, buf, 0)
	if err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("round trip mismatch")
	}
	st, _ := fs.StatPath("/data")
	if st.Size != uint32(100+len(msg)) {
		t.Fatalf("size = %d, want %d", st.Size, 100+len(msg))
	}
}

func TestReadPastEOF(t *testing.T) {
	fs := newFS(t)
	fs.Create("/f", DefaultFileMode, 0)
	fs.WriteAt("/f", 0, []byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := fs.ReadAt("/f", 0, buf, 0)
	if err != nil || n != 3 {
		t.Fatalf("short read got %d, %v", n, err)
	}
	n, err = fs.ReadAt("/f", 100, buf, 0)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF got %d, %v", n, err)
	}
}

func TestFileSizeLimit(t *testing.T) {
	fs := newFS(t)
	fs.Create("/big", DefaultFileMode, 0)
	// Exactly 1 MB is fine.
	if err := fs.Truncate("/big", MaxFile, 0); err != nil {
		t.Fatalf("1 MB truncate failed: %v", err)
	}
	// One byte over the limit is rejected.
	if _, err := fs.WriteAt("/big", MaxFile, []byte{1}, 0); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("want ErrFileTooBig, got %v", err)
	}
	if err := fs.Truncate("/big", MaxFile+1, 0); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("want ErrFileTooBig, got %v", err)
	}
}

func TestInodeExhaustion(t *testing.T) {
	fs := newFS(t)
	// Root consumes inode 0; 1023 files fit.
	for i := 0; i < NumInodes-1; i++ {
		if _, err := fs.Create(fmt.Sprintf("/f%d", i), DefaultFileMode, 0); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if _, err := fs.Create("/overflow", DefaultFileMode, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Destroying one frees its slot for reuse.
	if err := fs.Unlink("/f7", 0); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Create("/reborn", DefaultFileMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ino == 0 {
		t.Fatal("reused root inode")
	}
}

func TestHardLinksProhibited(t *testing.T) {
	fs := newFS(t)
	fs.Create("/a", DefaultFileMode, 0)
	if err := fs.Link("/a", "/b"); !errors.Is(err, ErrHardLink) {
		t.Fatalf("want ErrHardLink, got %v", err)
	}
}

func TestDirectories(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/usr/local/lib", DefaultDirMode, 0); err != nil {
		t.Fatal(err)
	}
	fs.Create("/usr/local/lib/mod.o", DefaultFileMode, 0)
	fs.Create("/usr/local/lib/aaa", DefaultFileMode, 0)
	ents, err := fs.ReadDir("/usr/local/lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "aaa" || ents[1].Name != "mod.o" {
		t.Fatalf("bad listing: %+v", ents)
	}
	if err := fs.Rmdir("/usr/local/lib", 0); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("want ErrNotEmpty, got %v", err)
	}
	fs.Unlink("/usr/local/lib/mod.o", 0)
	fs.Unlink("/usr/local/lib/aaa", 0)
	if err := fs.Rmdir("/usr/local/lib", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StatPath("/usr/local/lib"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("dir still present: %v", err)
	}
}

func TestSymlinks(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/tmp/app.123", DefaultDirMode, 0)
	fs.Create("/templates/shared.o", DefaultFileMode, 0) // fails: no /templates yet
	fs.MkdirAll("/templates", DefaultDirMode, 0)
	fs.Create("/templates/shared.o", DefaultFileMode, 0)
	// The Presto trick: symlink the template into a temp directory.
	if err := fs.Symlink("/templates/shared.o", "/tmp/app.123/shared.o", 0); err != nil {
		t.Fatal(err)
	}
	st, err := fs.StatPath("/tmp/app.123/shared.o")
	if err != nil {
		t.Fatal(err)
	}
	real, _ := fs.StatPath("/templates/shared.o")
	if st.Ino != real.Ino {
		t.Fatal("symlink does not resolve to target inode")
	}
	lst, err := fs.LstatPath("/tmp/app.123/shared.o")
	if err != nil {
		t.Fatal(err)
	}
	if lst.Type != TypeSymlink {
		t.Fatalf("lstat type = %v, want symlink", lst.Type)
	}
	target, err := fs.Readlink("/tmp/app.123/shared.o")
	if err != nil || target != "/templates/shared.o" {
		t.Fatalf("readlink = %q, %v", target, err)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := newFS(t)
	fs.Symlink("/b", "/a", 0)
	fs.Symlink("/a", "/b", 0)
	if _, err := fs.StatPath("/a"); !errors.Is(err, ErrLoop) {
		t.Fatalf("want ErrLoop, got %v", err)
	}
}

func TestRelativeSymlink(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	fs.Create("/lib/real.o", DefaultFileMode, 0)
	fs.Symlink("real.o", "/lib/alias.o", 0)
	st, err := fs.StatPath("/lib/alias.o")
	if err != nil {
		t.Fatal(err)
	}
	real, _ := fs.StatPath("/lib/real.o")
	if st.Ino != real.Ino {
		t.Fatal("relative symlink broken")
	}
}

func TestPermissions(t *testing.T) {
	fs := newFS(t)
	fs.Create("/secret", ModeOwnerRead|ModeOwnerWrite, 100)
	fs.WriteAt("/secret", 0, []byte("data"), 100)
	// Another user cannot read or write.
	if _, err := fs.ReadAt("/secret", 0, make([]byte, 4), 200); !errors.Is(err, ErrPerm) {
		t.Fatalf("want ErrPerm on read, got %v", err)
	}
	if _, err := fs.WriteAt("/secret", 0, []byte("x"), 200); !errors.Is(err, ErrPerm) {
		t.Fatalf("want ErrPerm on write, got %v", err)
	}
	// Root can.
	if _, err := fs.ReadAt("/secret", 0, make([]byte, 4), 0); err != nil {
		t.Fatalf("root read failed: %v", err)
	}
	// Owner opens up other-read.
	if err := fs.Chmod("/secret", DefaultFileMode, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadAt("/secret", 0, make([]byte, 4), 200); err != nil {
		t.Fatalf("read after chmod failed: %v", err)
	}
	// Non-owner cannot chmod.
	if err := fs.Chmod("/secret", 0, 200); !errors.Is(err, ErrPerm) {
		t.Fatalf("want ErrPerm on chmod, got %v", err)
	}
}

func TestAddrToPathRoundTrip(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	st, _ := fs.Create("/lib/table.o", DefaultFileMode, 0)
	addr, err := fs.PathToAddr("/lib/table.o")
	if err != nil || addr != st.Addr {
		t.Fatalf("PathToAddr = 0x%x, %v", addr, err)
	}
	// Interior address resolves to the same file with an offset.
	p, off, err := fs.AddrToPath(addr + 12345)
	if err != nil || p != "/lib/table.o" || off != 12345 {
		t.Fatalf("AddrToPath = %q, %d, %v", p, off, err)
	}
	// Address in an empty slot fails.
	if _, _, err := fs.AddrToPath(Limit - 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	// Address outside the region fails.
	if _, _, err := fs.AddrToPath(0x10000000); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("want ErrBadAddr, got %v", err)
	}
}

func TestBootScanRebuildsTable(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/a/b", DefaultDirMode, 0)
	fs.Create("/a/b/one", DefaultFileMode, 0)
	fs.Create("/two", DefaultFileMode, 0)
	addr, _ := fs.PathToAddr("/a/b/one")
	fs.ClearTable() // crash
	if _, _, err := fs.AddrToPath(addr); err == nil {
		t.Fatal("lookup should fail before boot scan")
	}
	n := fs.BootScan()
	if n != 2 {
		t.Fatalf("boot scan found %d files, want 2", n)
	}
	p, _, err := fs.AddrToPath(addr)
	if err != nil || p != "/a/b/one" {
		t.Fatalf("AddrToPath after scan = %q, %v", p, err)
	}
}

func TestUnlinkRemovesTableEntry(t *testing.T) {
	fs := newFS(t)
	st, _ := fs.Create("/gone", DefaultFileMode, 0)
	fs.Unlink("/gone", 0)
	if _, _, err := fs.AddrToPath(st.Addr); !errors.Is(err, ErrNotExist) {
		t.Fatalf("table entry survived unlink: %v", err)
	}
	if fs.TableLen() != 0 {
		t.Fatalf("table len = %d, want 0", fs.TableLen())
	}
}

func TestUnlinkReleasesFrames(t *testing.T) {
	phys := mem.NewPhysical(0)
	fs, _ := New(phys)
	fs.Create("/f", DefaultFileMode, 0)
	fs.Truncate("/f", 10*mem.PageSize, 0)
	if st := phys.Stats(); st.Live != 10 {
		t.Fatalf("live = %d, want 10", st.Live)
	}
	fs.Unlink("/f", 0)
	if st := phys.Stats(); st.Live != 0 {
		t.Fatalf("live after unlink = %d, want 0", st.Live)
	}
}

func TestTruncateZeroesShrunkRange(t *testing.T) {
	fs := newFS(t)
	fs.Create("/f", DefaultFileMode, 0)
	fs.WriteAt("/f", 0, []byte("secretdata"), 0)
	fs.Truncate("/f", 3, 0)
	fs.Truncate("/f", 10, 0)
	buf := make([]byte, 10)
	fs.ReadAt("/f", 0, buf, 0)
	if !bytes.Equal(buf, []byte("sec\x00\x00\x00\x00\x00\x00\x00")) {
		t.Fatalf("stale data after shrink+grow: %q", buf)
	}
}

// TestWriteFileIsOneStep: readers racing WriteFiles of two equal-size
// versions only ever read one version or the other, never the empty or
// zero-filled file between a truncate and its write.
func TestWriteFileIsOneStep(t *testing.T) {
	fs := newFS(t)
	versions := [][]byte{bytes.Repeat([]byte("a"), 3*mem.PageSize+17), bytes.Repeat([]byte("b"), 3*mem.PageSize+17)}
	if err := fs.WriteFile("/f", versions[0], DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	const writes, readers = 2000, 2
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := fs.ReadFile("/f", 0)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, versions[0]) && !bytes.Equal(got, versions[1]) {
					errs <- fmt.Errorf("read %d bytes that are neither version", len(got))
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if err := fs.WriteFile("/f", versions[i%2], DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFramesAliasFileContents(t *testing.T) {
	fs := newFS(t)
	fs.Create("/seg", DefaultFileMode, 0)
	fs.WriteAt("/seg", 0, []byte("before"), 0)
	frames, st, err := fs.Frames("/seg", mem.PageSize, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != mem.PageSize {
		t.Fatalf("Frames grew size to %d, want %d", st.Size, mem.PageSize)
	}
	// A store through the frame is visible through the read interface.
	copy(frames[0].Data[0:], "AFTER!")
	buf := make([]byte, 6)
	fs.ReadAt("/seg", 0, buf, 0)
	if string(buf) != "AFTER!" {
		t.Fatalf("file read saw %q, want AFTER!", buf)
	}
}

func TestLocking(t *testing.T) {
	fs := newFS(t)
	fs.Create("/lockme", DefaultFileMode, 0)
	ok, err := fs.TryLock("/lockme", 10)
	if err != nil || !ok {
		t.Fatalf("first lock: %v %v", ok, err)
	}
	// Reentrant for the same pid.
	ok, _ = fs.TryLock("/lockme", 10)
	if !ok {
		t.Fatal("reentrant lock failed")
	}
	// Other pid blocked.
	ok, _ = fs.TryLock("/lockme", 20)
	if ok {
		t.Fatal("lock not exclusive")
	}
	if err := fs.Unlock("/lockme", 20); !errors.Is(err, ErrLocked) {
		t.Fatalf("non-owner unlock: %v", err)
	}
	fs.Unlock("/lockme", 10)
	if owner, _ := fs.LockOwner("/lockme"); owner != 10 {
		t.Fatalf("owner = %d after one unlock of two, want 10", owner)
	}
	fs.Unlock("/lockme", 10)
	ok, _ = fs.TryLock("/lockme", 20)
	if !ok {
		t.Fatal("lock not released")
	}
}

func TestWalkFiles(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/d1", DefaultDirMode, 0)
	fs.Create("/d1/b", DefaultFileMode, 0)
	fs.Create("/a", DefaultFileMode, 0)
	var got []string
	fs.WalkFiles(func(p string, st Stat) error {
		got = append(got, p)
		return nil
	})
	if len(got) != 2 || got[0] != "/a" || got[1] != "/d1/b" {
		t.Fatalf("walk = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib/app", DefaultDirMode, 42)
	fs.Create("/lib/app/mod.o", DefaultFileMode, 42)
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 3000)
	fs.WriteAt("/lib/app/mod.o", 0, payload, 42)
	fs.Symlink("/lib/app/mod.o", "/alias", 0)

	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs2.ReadFile("/lib/app/mod.o", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("payload mismatch after load")
	}
	st, err := fs2.StatPath("/alias")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := fs.StatPath("/lib/app/mod.o")
	if st.Ino != orig.Ino || st.UID != 42 {
		t.Fatalf("stat after load: %+v vs %+v", st, orig)
	}
	// The lookup table was rebuilt on load.
	p, _, err := fs2.AddrToPath(orig.Addr)
	if err != nil || p != "/lib/app/mod.o" {
		t.Fatalf("AddrToPath after load = %q, %v", p, err)
	}
}

// TestLoadEveryVersion: one world written as a version 1, 2 and 3 image
// (v2 puts a store-version counter before each page) loads from each with
// the same file bytes, and saves as the v3 image.
func TestLoadEveryVersion(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, mem.PageSize+10) // two frames
	image := func(version uint32) []byte {
		e := wire.NewEncoder(nil)
		e.Raw([]byte("HSFS"))
		e.U32(version)
		e.U32(2) // inodes
		e.U32(0) // root directory
		e.U8(uint8(TypeDir))
		e.U16(uint16(DefaultDirMode))
		e.U32(0)
		e.U64(1)
		e.Count32(1)
		e.Str("f")
		e.U32(5)
		e.U32(5) // the file: size, then its pages
		e.U8(uint8(TypeFile))
		e.U16(uint16(DefaultFileMode))
		e.U32(0)
		e.U64(2)
		e.U32(uint32(len(payload)))
		for off := 0; off < len(payload); off += mem.PageSize {
			if version == 2 {
				e.U64(uint64(off+1) << 32)
			}
			e.Raw(payload[off:min(off+mem.PageSize, len(payload))])
		}
		img, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	v3 := image(3)
	for _, version := range []uint32{1, 2, 3} {
		fs, err := Load(bytes.NewReader(image(version)), mem.NewPhysical(0))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if got, err := fs.ReadFile("/f", 0); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("v%d file content: %d bytes, %v", version, len(got), err)
		}
		var out bytes.Buffer
		if err := fs.Save(&out); err != nil || !bytes.Equal(out.Bytes(), v3) {
			t.Errorf("v%d does not save as the v3 image (err %v)", version, err)
		}
	}
}

// TestContentVersionMovesOnRecreate: a file unlinked and re-created at the
// same path and size gets the same inode number back, so only the fresh
// frames' counters can tell the two apart. The fingerprint must move, on
// a running machine and on one booted from a saved image, whose frames
// start at version 0.
func TestContentVersionMovesOnRecreate(t *testing.T) {
	data := bytes.Repeat([]byte{0x11}, 5000)
	recreate := func(t *testing.T, fs *FS, before uint64, ino int) {
		t.Helper()
		if err := fs.Unlink("/lib/mod.o", 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/lib/mod.o", data, DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
		st, _ := fs.StatPath("/lib/mod.o")
		if st.Ino != ino || st.Size != uint32(len(data)) {
			t.Fatalf("re-created at ino %d size %d, want ino %d size %d", st.Ino, st.Size, ino, len(data))
		}
		if v, _ := fs.ContentVersion("/lib/mod.o"); v == before {
			t.Fatalf("fingerprint %016x unchanged by unlink and re-create", v)
		}
	}
	fs := newFS(t)
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	fs.WriteFile("/lib/mod.o", data, DefaultFileMode, 0)
	st, _ := fs.StatPath("/lib/mod.o")
	before, err := fs.ContentVersion("/lib/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	recreate(t, fs, before, st.Ino)

	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := fs2.ContentVersion("/lib/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	recreate(t, fs2, loaded, st.Ino)
}

// TestContentVersionMovesOnReplace: shmfs has no rename, so a name is
// swapped over to a replacement file through a symlink. The replacement
// here is older than the file it replaces and holds the same bytes; the
// fingerprint read through the name must still move.
func TestContentVersionMovesOnReplace(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/bin", DefaultDirMode, 0)
	data := bytes.Repeat([]byte{0x22}, 300)
	fs.WriteFile("/bin/x.2", data, DefaultFileMode, 0)
	fs.WriteFile("/bin/x.1", data, DefaultFileMode, 0)
	fs.Symlink("/bin/x.1", "/bin/x", 0)
	before, err := fs.ContentVersion("/bin/x")
	if err != nil {
		t.Fatal(err)
	}
	fs.Unlink("/bin/x", 0)
	fs.Symlink("/bin/x.2", "/bin/x", 0)
	if v, _ := fs.ContentVersion("/bin/x"); v == before {
		t.Fatalf("fingerprint %016x unchanged after /bin/x was pointed at another file", v)
	}
}

func TestContentVersionAllocatesNothing(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/usr/bin", DefaultDirMode, 0)
	fs.WriteFile("/usr/bin/prog", bytes.Repeat([]byte{1}, 9000), DefaultFileMode, 0)
	if n := testing.AllocsPerRun(100, func() { fs.ContentVersion("/usr/bin/prog") }); n != 0 {
		t.Fatalf("ContentVersion allocates %.1f times per call, want 0", n)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTANIMAGE")), mem.NewPhysical(0)); err == nil {
		t.Fatal("garbage image accepted")
	}
}

func TestLinearVsIndexedLookupAgree(t *testing.T) {
	fs := newFS(t)
	for i := 0; i < 50; i++ {
		fs.Create(fmt.Sprintf("/f%02d", i), DefaultFileMode, 0)
	}
	for i := 0; i < 50; i += 7 {
		addr := AddrOf(i+1) + uint32(i*13)
		fs.Lookup = LookupLinear
		p1, o1, e1 := fs.AddrToPath(addr)
		fs.Lookup = LookupIndexed
		p2, o2, e2 := fs.AddrToPath(addr)
		fs.Lookup = LookupBTree
		p3, o3, e3 := fs.AddrToPath(addr)
		if p1 != p2 || o1 != o2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("linear/indexed disagree at 0x%x: %q/%q", addr, p1, p2)
		}
		if p1 != p3 || o1 != o3 || (e1 == nil) != (e3 == nil) {
			t.Fatalf("linear/btree disagree at 0x%x: %q/%q", addr, p1, p3)
		}
	}
}

// Property: Clean produces an absolute path and AddrOf/InodeAt are inverses
// over the inode range.
func TestAddrInodeInverseProperty(t *testing.T) {
	f := func(n uint16, off uint32) bool {
		ino := int(n) % NumInodes
		addr := AddrOf(ino) + off%SlotSize
		got, err := InodeAt(addr)
		return err == nil && got == ino
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"":           "/",
		"/":          "/",
		"a/b":        "/a/b",
		"/a//b/":     "/a/b",
		"/a/../b":    "/b",
		"/a/./b":     "/a/b",
		"../../etc":  "/etc",
		"/x/y/../..": "/",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}
