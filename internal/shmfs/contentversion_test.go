package shmfs

import (
	"testing"

	"hemlock/internal/mem"
)

func newTestFS(t *testing.T) *FS {
	t.Helper()
	fs, err := New(mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestContentVersionTracksMappedStores(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Create("/m", DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/m", []byte("hello module text"), DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	v1, err := fs.ContentVersion("/m")
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := fs.ContentVersion("/m")
	if v1 != v2 {
		t.Fatal("fingerprint not stable across reads")
	}
	// Mutate through the mapping: grab the frames and store directly, the
	// way a guest writes a mapped segment. mtime will NOT move; the
	// fingerprint must.
	frames, _, err := fs.Frames("/m", 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	frames[0].NoteStoreRange(0, 1)
	frames[0].Data[0] = 'X'
	v3, _ := fs.ContentVersion("/m")
	if v3 == v1 {
		t.Fatal("fingerprint blind to a store through the mapping")
	}
	// WriteAt moves it too.
	if _, err := fs.WriteAt("/m", 0, []byte("h"), 0); err != nil {
		t.Fatal(err)
	}
	if v4, _ := fs.ContentVersion("/m"); v4 == v3 {
		t.Fatal("fingerprint blind to WriteAt")
	}
	// Directories are rejected.
	if _, err := fs.ContentVersion("/"); err == nil {
		t.Fatal("ContentVersion of a directory should fail")
	}
}
