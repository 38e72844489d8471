package addrspace

import (
	"sync"
	"testing"

	"hemlock/internal/mem"
)

func TestForkIntoCoWIsolatesWrites(t *testing.T) {
	parent := newSpace()
	if err := parent.MapAnon(0x1000, 2*mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := parent.StoreWord(0x1000, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	child := New(parent.Physical())
	parent.ForkInto(child, 1<<31, 1<<31, 1<<31)

	// Both see the pre-fork value through the shared frame.
	for _, s := range []*Space{parent, child} {
		if w, err := s.LoadWord(0x1000); err != nil || w != 0xAABBCCDD {
			t.Fatalf("pre-write read: %08x, %v", w, err)
		}
	}
	if !parent.PageIsCoW(0x1000) || !child.PageIsCoW(0x1000) {
		t.Fatal("both sides should be marked cow after clone")
	}

	// Child writes: copies its page, parent unaffected.
	if err := child.StoreWord(0x1000, 0x11111111); err != nil {
		t.Fatal(err)
	}
	if w, _ := parent.LoadWord(0x1000); w != 0xAABBCCDD {
		t.Fatalf("parent saw child's write: %08x", w)
	}
	if w, _ := child.LoadWord(0x1000); w != 0x11111111 {
		t.Fatalf("child lost its write: %08x", w)
	}
	if child.PageIsCoW(0x1000) {
		t.Fatal("child page should have resolved")
	}

	// Parent writes the second page: parent copies, child keeps snapshot.
	if err := parent.StoreWord(0x2000, 0x22222222); err != nil {
		t.Fatal(err)
	}
	if w, _ := child.LoadWord(0x2000); w != 0 {
		t.Fatalf("child saw parent's post-fork write: %08x", w)
	}
}

func TestCoWClaimWhenSoleOwner(t *testing.T) {
	parent := newSpace()
	if err := parent.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	child := New(parent.Physical())
	parent.ForkInto(child, 1<<31, 1<<31, 1<<31)
	before, _ := parent.Translate(0x1000, AccessRead)
	child.Release()
	// Child gone: the parent is sole owner again, so its first store should
	// claim the frame in place rather than copy it.
	if err := parent.StoreWord(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	after, _ := parent.Translate(0x1000, AccessRead)
	if before.Frame != after.Frame {
		t.Fatal("sole-owner store should claim the frame, not copy it")
	}
	if parent.PageIsCoW(0x1000) {
		t.Fatal("claimed page still marked cow")
	}
}

func TestCoWPreservesLogicalProt(t *testing.T) {
	parent := newSpace()
	if err := parent.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := parent.MapAnon(0x3000, mem.PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	child := New(parent.Physical())
	parent.ForkInto(child, 1<<31, 1<<31, 1<<31)

	// ProtAt and VisitPages report the logical protection: CoW must be
	// invisible to StateHash and the Figure 3 layout printer.
	for _, s := range []*Space{parent, child} {
		if p, ok := s.ProtAt(0x1000); !ok || p != ProtRW {
			t.Fatalf("ProtAt = %v, %v; want rw-", p, ok)
		}
		var prots []Prot
		s.VisitPages(func(_ uint32, prot Prot, _ *[mem.PageSize]byte) {
			prots = append(prots, prot)
		})
		if len(prots) != 2 || prots[0] != ProtRW || prots[1] != ProtNone {
			t.Fatalf("VisitPages prots = %v", prots)
		}
	}

	// But a cached translation must not be write-capable while shared.
	e, flt := child.Translate(0x1000, AccessRead)
	if flt != nil {
		t.Fatal(flt)
	}
	if e.Prot&ProtWrite != 0 {
		t.Fatal("read translation of a cow page advertises write capability")
	}
	// A write translation resolves the copy and is fully capable.
	e2, flt := child.Translate(0x1000, AccessWrite)
	if flt != nil {
		t.Fatal(flt)
	}
	if e2.Prot != ProtRW {
		t.Fatalf("write translation prot = %v, want rw-", e2.Prot)
	}
	if e2.Frame == e.Frame {
		t.Fatal("write translation still points at the shared frame")
	}
	if e2.Gen == e.Gen {
		t.Fatal("resolution must bump the generation to kill cached entries")
	}
}

func TestCoWProtectThenWrite(t *testing.T) {
	// ldl's LinkModule does Protect(RW) then patches; if the pages came from
	// a zygote clone the patch must still trigger the copy.
	parent := newSpace()
	if err := parent.MapAnon(0x1000, mem.PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	child := New(parent.Physical())
	parent.ForkInto(child, 1<<31, 1<<31, 1<<31)
	if err := child.Protect(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if !child.PageIsCoW(0x1000) {
		t.Fatal("Protect must not clear the cow flag")
	}
	if err := child.StoreWord(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := parent.Protect(0x1000, mem.PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if w, _ := child.LoadWord(0x1000); w != 1 {
		t.Fatalf("child = %08x", w)
	}
	b := make([]byte, 4)
	if _, err := parent.Read(0x1000, b); err != nil {
		t.Fatal(err)
	}
	if b[3] != 0 {
		t.Fatal("parent saw child's store through a resolved cow page")
	}
}

func TestCoWConcurrentWriters(t *testing.T) {
	parent := newSpace()
	if err := parent.MapAnon(0x1000, 4*mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	const clones = 8
	children := make([]*Space, clones)
	for i := range children {
		children[i] = New(parent.Physical())
		parent.ForkInto(children[i], 1<<31, 1<<31, 1<<31)
	}
	var wg sync.WaitGroup
	for i, c := range children {
		wg.Add(1)
		go func(i int, c *Space) {
			defer wg.Done()
			for pg := uint32(0); pg < 4; pg++ {
				addr := 0x1000 + pg*mem.PageSize
				if err := c.StoreWord(addr, uint32(i+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, c := range children {
		for pg := uint32(0); pg < 4; pg++ {
			if w, _ := c.LoadWord(0x1000 + pg*mem.PageSize); w != uint32(i+1) {
				t.Fatalf("clone %d page %d = %08x", i, pg, w)
			}
		}
		c.Release()
	}
	for pg := uint32(0); pg < 4; pg++ {
		if w, _ := parent.LoadWord(0x1000 + pg*mem.PageSize); w != 0 {
			t.Fatalf("parent page %d dirtied: %08x", pg, w)
		}
	}
}
