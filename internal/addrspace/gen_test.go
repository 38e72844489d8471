package addrspace

// Tests for the generation counter and Translate (the software-TLB
// interface) plus the Mapped empty-range regression.

import (
	"testing"

	"hemlock/internal/mem"
)

// TestMappedEmptyRange: size 0 used to underflow (vpn(addr-1) wrapped) and
// scan an enormous range. An empty range is trivially mapped.
func TestMappedEmptyRange(t *testing.T) {
	s := newSpace()
	if !s.Mapped(0x1000, 0) {
		t.Error("Mapped(addr, 0) = false, want true (empty range)")
	}
	if !s.Mapped(0, 0) {
		t.Error("Mapped(0, 0) = false, want true")
	}
	if !s.Mapped(0xffffffff, 0) {
		t.Error("Mapped(0xffffffff, 0) = false, want true")
	}
}

// TestMappedOverflowRange: a range running past the top of the 32-bit
// space can never be fully mapped.
func TestMappedOverflowRange(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0xfffff000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if !s.Mapped(0xfffff000, mem.PageSize) {
		t.Error("last page not reported mapped")
	}
	if s.Mapped(0xfffff000, 2*mem.PageSize) {
		t.Error("range past 2^32 reported mapped")
	}
	if s.Mapped(0xfffffffc, 8) {
		t.Error("wrapping range reported mapped")
	}
}

// TestGenerationBumps: every mapping mutation must advance the generation
// so cached translations are discarded.
func TestGenerationBumps(t *testing.T) {
	s := newSpace()
	g := s.Gen()
	step := func(name string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ng := s.Gen(); ng <= g {
			t.Fatalf("%s did not bump generation (%d -> %d)", name, g, ng)
		} else {
			g = ng
		}
	}
	step("MapAnon", func() error { return s.MapAnon(0x1000, mem.PageSize, ProtRW) })
	step("Protect", func() error { return s.Protect(0x1000, mem.PageSize, ProtRead) })

	// ForkInto bumps the destination's generation.
	src := newSpace()
	if err := src.MapAnon(0x4000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	step("ForkInto", func() error { src.ForkInto(s, 1<<31, 1<<31, 1<<31); return nil })
	step("Release", func() error { s.Release(); return nil })

	// Failed mutations must not bump: readers may hold entries tagged with
	// the current generation.
	s2 := newSpace()
	if err := s2.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	g2 := s2.Gen()
	if err := s2.MapAnon(0x1000, mem.PageSize, ProtRW); err == nil {
		t.Fatal("double map succeeded")
	}
	if err := s2.Protect(0x9000, mem.PageSize, ProtRead); err == nil {
		t.Fatal("protect of unmapped range succeeded")
	}
	if s2.Gen() != g2 {
		t.Fatalf("failed mutations bumped generation %d -> %d", g2, s2.Gen())
	}
}

// TestTranslate: the TLB fill path returns frame+prot+gen on success and
// the same faults the access path raises.
func TestTranslate(t *testing.T) {
	s := newSpace()
	if err := s.MapAnon(0x1000, mem.PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	e, f := s.Translate(0x1234, AccessRead)
	if f != nil {
		t.Fatalf("translate faulted: %v", f)
	}
	if e.Frame == nil || e.Prot != ProtRW || e.Gen != s.Gen() {
		t.Fatalf("bad entry: %+v (gen now %d)", e, s.Gen())
	}
	if _, f := s.Translate(0x1234, AccessExec); f == nil || f.Unmapped {
		t.Fatal("exec of RW page: want protection fault")
	}
	if _, f := s.Translate(0x9000, AccessRead); f == nil || !f.Unmapped {
		t.Fatal("unmapped translate: want unmapped fault")
	}
}
