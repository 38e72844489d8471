package ldl

import (
	"fmt"
	"testing"

	"hemlock/internal/kern"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// TestExeMemoBoundedLRU: after 200 distinct executables a World holds
// exactly exeMemoSize decoded images, and the one it evicts is the least
// recently used, not the oldest inserted.
func TestExeMemoBoundedLRU(t *testing.T) {
	w := NewWorld(kern.New())
	b, err := (&objfile.Image{Name: "a.out"}).ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	path := func(i int) string { return fmt.Sprintf("/p%03d", i) }
	for i := 0; i < 200; i++ {
		if err := w.K.FS.WriteFile(path(i), b, shmfs.DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
	}
	// load reports whether loading path(i) found its image memoized.
	load := func(i int) bool {
		t.Helper()
		miss := w.ctrExeMiss.Value()
		if _, err := w.LoadExecutable(path(i)); err != nil {
			t.Fatal(err)
		}
		return w.ctrExeMiss.Value() == miss
	}
	for i := 0; i < exeMemoSize; i++ {
		load(i)
	}
	load(0)           // most recent now; p001 is the least recently used
	load(exeMemoSize) // evicts p001
	if !load(0) {
		t.Fatal("recently used p000 was evicted")
	}
	if load(1) {
		t.Fatal("least recently used p001 was not evicted")
	}
	for i := 0; i < 200; i++ {
		load(i)
		if n := len(w.exeMemo.m); n > exeMemoSize {
			t.Fatalf("memo holds %d images after %d paths, bound %d", n, i+1, exeMemoSize)
		}
	}
	if n := len(w.exeMemo.m); n != exeMemoSize {
		t.Fatalf("memo holds %d images, want %d", n, exeMemoSize)
	}
}
