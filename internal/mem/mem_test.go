package mem

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocZeroed(t *testing.T) {
	p := NewPhysical(0)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Data {
		if b != 0 {
			t.Fatalf("byte %d not zero: %d", i, b)
		}
	}
	if f.Refs() != 1 {
		t.Fatalf("fresh frame refs = %d, want 1", f.Refs())
	}
}

func TestAllocDistinctPFNs(t *testing.T) {
	p := NewPhysical(0)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.PFN()] {
			t.Fatalf("duplicate PFN %d", f.PFN())
		}
		seen[f.PFN()] = true
	}
}

func TestLimitEnforced(t *testing.T) {
	p := NewPhysical(2)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if _, err := p.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	a.Release()
	c, err := p.Alloc()
	if err != nil {
		t.Fatalf("alloc after release failed: %v", err)
	}
	b.Release()
	c.Release()
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("live = %d after releasing all, want 0", st.Live)
	}
}

func TestAllocNRollsBackOnFailure(t *testing.T) {
	p := NewPhysical(3)
	if _, err := p.AllocN(5); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("partial allocation leaked %d frames", st.Live)
	}
	fs, err := p.AllocN(3)
	if err != nil {
		t.Fatalf("AllocN within limit failed: %v", err)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d frames, want 3", len(fs))
	}
}

func TestRetainRelease(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Retain()
	f.Retain()
	if f.Refs() != 3 {
		t.Fatalf("refs = %d, want 3", f.Refs())
	}
	f.Release()
	f.Release()
	if st := p.Stats(); st.Live != 1 {
		t.Fatalf("live = %d, want 1 (still one ref held)", st.Live)
	}
	f.Release()
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("live = %d, want 0", st.Live)
	}
}

func TestReleasePanicsWhenOverReleased(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	f.Release()
}

func TestCopyIndependence(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Data[17] = 0xAB
	g, err := f.Copy()
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[17] != 0xAB {
		t.Fatal("copy did not preserve contents")
	}
	g.Data[17] = 0xCD
	if f.Data[17] != 0xAB {
		t.Fatal("copy aliases original")
	}
}

func TestStatsCounters(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	g, _ := p.Alloc()
	f.Release()
	g.Release()
	st := p.Stats()
	if st.Allocs != 2 || st.Frees != 2 {
		t.Fatalf("allocs=%d frees=%d, want 2/2", st.Allocs, st.Frees)
	}
}

// Property: for any sequence of extra retains, it takes exactly retains+1
// releases to free the frame.
func TestRefCountProperty(t *testing.T) {
	p := NewPhysical(0)
	f := func(extra uint8) bool {
		fr, err := p.Alloc()
		if err != nil {
			return false
		}
		n := int(extra % 16)
		for i := 0; i < n; i++ {
			fr.Retain()
		}
		for i := 0; i < n; i++ {
			fr.Release()
			if fr.Refs() != n-i {
				return false
			}
		}
		fr.Release()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWatermarkUntrackedIsFree(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.NoteStoreRange(10, 5)
	if _, _, ok := f.TakeDirtyRange(); ok {
		t.Fatal("untracked frame recorded a dirty range")
	}
}

func TestDirtyWatermarkMergesRanges(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.SetTracked(true)
	f.NoteStoreRange(100, 4)
	f.NoteStoreRange(8, 2)
	f.NoteStoreRange(50, 1)
	lo, end, ok := f.TakeDirtyRange()
	if !ok || lo != 8 || end != 104 {
		t.Fatalf("got [%d,%d) ok=%v, want [8,104) true", lo, end, ok)
	}
	if _, _, ok := f.TakeDirtyRange(); ok {
		t.Fatal("take did not reset the watermark")
	}
	// Word writers feed the watermark too.
	f.StoreWordBE(256, 1)
	f.AddWordBE(12, 1)
	lo, end, ok = f.TakeDirtyRange()
	if !ok || lo != 12 || end != 260 {
		t.Fatalf("word writers: got [%d,%d) ok=%v, want [12,260) true", lo, end, ok)
	}
	f.SetTracked(false)
	f.NoteStoreRange(0, 4)
	if _, _, ok := f.TakeDirtyRange(); ok {
		t.Fatal("disabling tracking did not stop recording")
	}
}

// Property: under concurrent writers the merged watermark covers every
// byte any writer touched (it may be wider, never narrower).
func TestDirtyWatermarkNeverUnderReports(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.SetTracked(true)
	const writers = 8
	done := make(chan [2]uint32, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			lo := uint32(i * 64)
			f.NoteStoreRange(lo, 16)
			done <- [2]uint32{lo, lo + 16}
		}(i)
	}
	wantLo, wantEnd := uint32(PageSize), uint32(0)
	for i := 0; i < writers; i++ {
		r := <-done
		if r[0] < wantLo {
			wantLo = r[0]
		}
		if r[1] > wantEnd {
			wantEnd = r[1]
		}
	}
	lo, end, ok := f.TakeDirtyRange()
	if !ok || lo > wantLo || end < wantEnd {
		t.Fatalf("watermark [%d,%d) ok=%v under-reports [%d,%d)", lo, end, ok, wantLo, wantEnd)
	}
}

func TestConcurrentAlloc(t *testing.T) {
	p := NewPhysical(0)
	done := make(chan []*Frame, 8)
	for i := 0; i < 8; i++ {
		go func() {
			var got []*Frame
			for j := 0; j < 50; j++ {
				f, err := p.Alloc()
				if err == nil {
					got = append(got, f)
				}
			}
			done <- got
		}()
	}
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		for _, f := range <-done {
			if seen[f.PFN()] {
				t.Fatalf("duplicate PFN %d under concurrency", f.PFN())
			}
			seen[f.PFN()] = true
		}
	}
	if len(seen) != 400 {
		t.Fatalf("got %d frames, want 400", len(seen))
	}
}

// TestPrivateTierBits: a frame is private while it has one holder and is
// untracked; a private store moves the version only once the frame is
// marked decoded, and the decoded bit lives in existing padding, so a
// frame is still its page plus 48 bytes.
func TestPrivateTierBits(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != PageSize+48 {
		t.Fatalf("Frame is %d bytes, want %d", got, PageSize+48)
	}
	f, err := NewPhysical(0).Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Private() {
		t.Fatal("a fresh frame is not private")
	}
	f.StorePrivateWordBE(8, 0x01020304)
	f.StorePrivateByte(12, 0xAA)
	if f.Version() != 0 || f.LoadWordBE(8) != 0x01020304 || f.Data[12] != 0xAA {
		t.Fatalf("undecoded private stores: version %d, word %#x, byte %#x", f.Version(), f.LoadWordBE(8), f.Data[12])
	}
	f.MarkDecoded()
	f.StorePrivateWordBE(8, 5)
	f.StorePrivateByte(12, 6)
	if f.Version() != 2 {
		t.Fatalf("decoded frame's version = %d after two private stores, want 2", f.Version())
	}
	f.Retain()
	if f.Private() {
		t.Fatal("a frame with two holders is private")
	}
	f.Release()
	f.SetTracked(true)
	if f.Private() {
		t.Fatal("a tracked frame is private")
	}
}
