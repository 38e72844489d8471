package ldl

import (
	"fmt"
	"testing"

	"hemlock/internal/kern"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// checkBoundedLRU writes 200 distinct files holding b, loads them through
// load, which reports whether a load found its value memoized, and
// requires the memo, whose size held reports, to keep exactly memoSize of
// them, evicting the least recently used, not the oldest inserted.
func checkBoundedLRU(t *testing.T, w *World, b []byte, load func(path string) bool, held func() int) {
	t.Helper()
	path := func(i int) string { return fmt.Sprintf("/p%03d", i) }
	for i := 0; i < 200; i++ {
		if err := w.K.FS.WriteFile(path(i), b, shmfs.DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < memoSize; i++ {
		load(path(i))
	}
	load(path(0))        // most recent now; p001 is the least recently used
	load(path(memoSize)) // evicts p001
	if !load(path(0)) {
		t.Fatal("recently used p000 was evicted")
	}
	if load(path(1)) {
		t.Fatal("least recently used p001 was not evicted")
	}
	for i := 0; i < 200; i++ {
		load(path(i))
		if n := held(); n > memoSize {
			t.Fatalf("memo holds %d values after %d paths, bound %d", n, i+1, memoSize)
		}
	}
	if n := held(); n != memoSize {
		t.Fatalf("memo holds %d values, want %d", n, memoSize)
	}
}

// TestExeMemoBoundedLRU: a World keeps at most memoSize decoded images.
func TestExeMemoBoundedLRU(t *testing.T) {
	w := NewWorld(kern.New())
	b, err := (&objfile.Image{Name: "a.out"}).ImageBytes()
	if err != nil {
		t.Fatal(err)
	}
	checkBoundedLRU(t, w, b, func(path string) bool {
		t.Helper()
		miss := w.ctrExeMiss.Value()
		if _, err := w.LoadExecutable(path); err != nil {
			t.Fatal(err)
		}
		return w.ctrExeMiss.Value() == miss
	}, func() int { return len(w.exeMemo.m) })
}

// TestTemplateMemoBoundedLRU: under stable linking a World keeps at most
// memoSize decoded templates, with the executables' eviction.
func TestTemplateMemoBoundedLRU(t *testing.T) {
	w := NewWorld(kern.New())
	w.SetStableLinking(true)
	pr := &Proc{W: w, P: w.K.Spawn(0)}
	b, err := (&objfile.Object{Name: "m.o"}).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]*template{}
	checkBoundedLRU(t, w, b, func(path string) bool {
		t.Helper()
		tm, _, err := pr.loadTemplate(path)
		if err != nil {
			t.Fatal(err)
		}
		hit := last[path] == tm
		last[path] = tm
		return hit
	}, func() int { return len(w.objMemo.m) })
}
