package shmfs

import (
	"bytes"
	"strings"
	"testing"

	"hemlock/internal/mem"
	"hemlock/internal/wire/wiretest"
)

// FuzzLoadImage: disk images may be truncated or corrupted on the host.
// Load returns an error, or a file system with a readable root that
// survives a boot scan and saves, reloads and saves again to the same
// bytes. It never panics or hangs.
func FuzzLoadImage(f *testing.F) {
	fs := newFS(f)
	fs.MkdirAll("/a/b", DefaultDirMode, 3)
	fs.Create("/a/b/file", DefaultFileMode, 3)
	fs.WriteAt("/a/b/file", 0, bytes.Repeat([]byte{0xAA}, 9000), 3)
	fs.Symlink("/a/b/file", "/link", 0)
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		f.Fatal(err)
	}
	for _, c := range wiretest.Mutations(buf.Bytes(), 5, 400) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fs, err := Load(bytes.NewReader(b), mem.NewPhysical(0))
		if err != nil {
			return
		}
		if _, err := fs.ReadDir("/"); err != nil {
			t.Fatalf("loaded fs has broken root: %v", err)
		}
		fs.BootScan()
		var once, twice bytes.Buffer
		if err := fs.Save(&once); err != nil {
			t.Fatalf("save: %v", err)
		}
		again, err := Load(bytes.NewReader(once.Bytes()), mem.NewPhysical(0))
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
		if err := again.Save(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("save/load/save changed the image (err %v)", err)
		}
	})
}

// TestLoadRejectsCrashInputs: the crash-* seeds are images that panicked
// or recursed without end before Load checked the directory tree.
func TestLoadRejectsCrashInputs(t *testing.T) {
	for name, b := range wiretest.Corpus(t, "FuzzLoadImage", "crash-") {
		if _, err := Load(bytes.NewReader(b), mem.NewPhysical(0)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

// TestImageSeedsReencodeByteForByte: the enc-* seeds are v3 worlds; each
// must load and save to the same bytes. The v2-* seeds are the same
// worlds saved as version 2, with a counter per page; each must load and
// save as its enc-* twin.
func TestImageSeedsReencodeByteForByte(t *testing.T) {
	enc := wiretest.Corpus(t, "FuzzLoadImage", "enc-")
	resave := func(name string, b, want []byte) {
		fs, err := Load(bytes.NewReader(b), mem.NewPhysical(0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := fs.Save(&out); err != nil || !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: re-encoding differs (err %v)", name, err)
		}
	}
	for name, b := range enc {
		resave(name, b, b)
	}
	for name, b := range wiretest.Corpus(t, "FuzzLoadImage", "v2-") {
		twin, ok := enc["enc-"+strings.TrimPrefix(name, "v2-")]
		if !ok {
			t.Fatalf("%s has no enc-* twin", name)
		}
		resave(name, b, twin)
	}
}

// TestSaveLoadManyFilesStress exercises a heavily populated image.
func TestSaveLoadManyFilesStress(t *testing.T) {
	fs := newFS(t)
	payload := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 200; i++ {
		dir := "/d" + string(rune('0'+i%10))
		fs.MkdirAll(dir, DefaultDirMode, 0)
		p := dir + "/f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if _, err := fs.Create(p, DefaultFileMode, i%50); err != nil {
			continue // name collisions are fine for this stress shape
		}
		fs.WriteAt(p, 0, payload[:i%len(payload)+1], 0)
	}
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	// Every file resolves by address after the load's boot scan.
	n := 0
	fs2.WalkFiles(func(p string, st Stat) error {
		got, _, err := fs2.AddrToPath(st.Addr)
		if err != nil || got != p {
			t.Fatalf("%s: %q, %v", p, got, err)
		}
		n++
		return nil
	})
	if n == 0 {
		t.Fatal("no files survived")
	}
	if fs2.InodesInUse() != fs.InodesInUse() {
		t.Fatalf("inode counts differ: %d vs %d", fs2.InodesInUse(), fs.InodesInUse())
	}
}
