package addrspace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"hemlock/internal/mem"
)

func newSpace() *Space { return New(mem.NewPhysical(0)) }

func TestMapAnonReadWrite(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, 2*mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, hemlock")
	if _, err := s.Write(0x1ffc, msg); err != nil { // spans a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := s.Read(0x1ffc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestUnmappedFault(t *testing.T) {
	s := newSpace()
	_, err := s.LoadWord(0x5000)
	f, ok := IsFault(err)
	if !ok {
		t.Fatalf("expected fault, got %v", err)
	}
	if !f.Unmapped || f.Addr != 0x5000 || f.Access != AccessRead {
		t.Fatalf("bad fault: %+v", f)
	}
}

func TestProtectionFault(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x2000, mem.PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	err := s.StoreWord(0x2000, 42)
	f, ok := IsFault(err)
	if !ok || f.Unmapped || f.Access != AccessWrite {
		t.Fatalf("expected write protection fault, got %v", err)
	}
	// Execute requires ProtExec.
	if _, err := s.FetchWord(0x2000); err == nil {
		t.Fatal("fetch from non-exec page should fault")
	}
}

func TestProtNoneFaultsOnRead(t *testing.T) {
	// ldl maps unresolved modules with no access so the first touch faults.
	s := newSpace()
	if err := s.MapAnon(0x3000, mem.PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	_, err := s.LoadWord(0x3000)
	f, ok := IsFault(err)
	if !ok || f.Unmapped {
		t.Fatalf("expected protection (not unmapped) fault, got %v", err)
	}
	if err := s.Protect(0x3000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadWord(0x3000); err != nil {
		t.Fatalf("load after Protect: %v", err)
	}
}

func TestPartialReadStopsAtFault(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, mem.PageSize+8)
	n, err := s.Read(0x1000, buf)
	if n != mem.PageSize {
		t.Fatalf("read %d bytes before fault, want %d", n, mem.PageSize)
	}
	if _, ok := IsFault(err); !ok {
		t.Fatalf("expected fault, got %v", err)
	}
}

func TestMapFramesShareBytes(t *testing.T) {
	phys := mem.NewPhysical(0)
	a, b := New(phys), New(phys)
	frames, err := phys.AllocN(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MapFrames(0x30000000, frames, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := b.MapFrames(0x30000000, frames, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreWord(0x30000004, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := b.LoadWord(0x30000004)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("shared frame not visible: got 0x%x", v)
	}
	for _, f := range frames {
		if f.Refs() != 3 { // owner + two mappings
			t.Fatalf("frame refs = %d, want 3", f.Refs())
		}
	}
}

func TestDoubleMapRejected(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.MapAnon(0x1000, mem.PageSize, ProtRW); err == nil {
		t.Fatal("double map not rejected")
	}
	// Failed overlapping MapAnon must not leak frames.
	st := s.Physical().Stats()
	if st.Live != 1 {
		t.Fatalf("live frames = %d, want 1", st.Live)
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1004, mem.PageSize, ProtRW); err == nil {
		t.Fatal("unaligned MapAnon accepted")
	}
	if err := s.MapFrames(0x1004, nil, ProtRW); err == nil {
		t.Fatal("unaligned MapFrames accepted")
	}
}

func TestUnalignedWordAccess(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, mem.PageSize, ProtRWX); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadWord(0x1002); err == nil {
		t.Fatal("unaligned load accepted")
	}
	if err := s.StoreWord(0x1001, 1); err == nil {
		t.Fatal("unaligned store accepted")
	}
	if _, err := s.FetchWord(0x1003); err == nil {
		t.Fatal("unaligned fetch accepted")
	}
}

func TestRegionsMerge(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, 3*mem.PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := s.MapAnon(0x4000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.MapAnon(0x9000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	regs := s.Regions()
	want := []Region{
		{0x1000, 0x4000, ProtRX},
		{0x4000, 0x5000, ProtRW},
		{0x9000, 0xa000, ProtRW},
	}
	if len(regs) != len(want) {
		t.Fatalf("got %d regions %v, want %d", len(regs), regs, len(want))
	}
	for i := range want {
		if regs[i] != want[i] {
			t.Fatalf("region %d = %+v, want %+v", i, regs[i], want[i])
		}
	}
}

// TestForkIntoSharesPublicWindow: pages in the public window are shared
// outright, never copy-on-write, so a child's store is the parent's store.
func TestForkIntoSharesPublicWindow(t *testing.T) {
	phys := mem.NewPhysical(0)
	parent, child := New(phys), New(phys)
	if err := parent.MapAnon(0x30000000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	parent.ForkInto(child, 0x30000000, 0x70000000, 0x70000000)
	if child.PageIsCoW(0x30000000) || parent.PageIsCoW(0x30000000) {
		t.Fatal("public page marked cow")
	}
	if err := child.StoreWord(0x30000000, 7); err != nil {
		t.Fatal(err)
	}
	v, _ := parent.LoadWord(0x30000000)
	if v != 7 {
		t.Fatalf("shared range not aliased: %d", v)
	}
}

func TestReleaseFreesFrames(t *testing.T) {
	phys := mem.NewPhysical(0)
	s := New(phys)
	if err := s.MapAnon(0x1000, 4*mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if st := phys.Stats(); st.Live != 0 {
		t.Fatalf("live frames after Release = %d, want 0", st.Live)
	}
}

func TestByteAccess(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := s.StoreByte(0x1005, 0x5A); err != nil {
		t.Fatal(err)
	}
	b, err := s.LoadByte(0x1005)
	if err != nil || b != 0x5A {
		t.Fatalf("LoadByte = %x, %v", b, err)
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{
		ProtNone: "---", ProtRead: "r--", ProtRW: "rw-", ProtRX: "r-x", ProtRWX: "rwx",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(p), p.String(), want)
		}
	}
}

// Property: a word stored at any aligned address in a mapped region reads
// back identically, big-endian, via both word and byte paths.
func TestWordRoundTripProperty(t *testing.T) {
	s := newSpace()
	const base, size = 0x10000, 16 * mem.PageSize
	if err := s.MapAnon(base, size, ProtRW); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, val uint32) bool {
		addr := uint32(base) + uint32(off)*4%(size-4)
		addr &^= 3
		if err := s.StoreWord(addr, val); err != nil {
			return false
		}
		got, err := s.LoadWord(addr)
		if err != nil || got != val {
			return false
		}
		b0, _ := s.LoadByte(addr)
		return b0 == byte(val>>24) // big-endian
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultErrorMessage(t *testing.T) {
	f := &Fault{Addr: 0x30100000, Access: AccessWrite, Unmapped: true}
	var err error = f
	if !errors.As(err, &f) {
		t.Fatal("errors.As failed on *Fault")
	}
	want := "addrspace: fault on write of 0x30100000 (unmapped page)"
	if f.Error() != want {
		t.Fatalf("Error() = %q, want %q", f.Error(), want)
	}
}
