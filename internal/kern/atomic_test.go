package kern

import (
	"sync"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/shmfs"
)

func atomicProc(t *testing.T) (*Kernel, *Process, uint32) {
	t.Helper()
	k := New()
	k.FS.Create("/atom", shmfs.DefaultFileMode, 0)
	p := k.Spawn(0)
	st, err := k.MapSharedFile(p, "/atom", 4096, addrspace.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	return k, p, st.Addr
}

func TestTestAndSet(t *testing.T) {
	_, p, addr := atomicProc(t)
	old, err := p.TestAndSet(addr)
	if err != nil || old != 0 {
		t.Fatalf("first TAS: %d, %v", old, err)
	}
	old, _ = p.TestAndSet(addr)
	if old != 1 {
		t.Fatalf("second TAS: %d", old)
	}
	if err := p.AtomicStore(addr, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.AtomicLoad(addr); v != 0 {
		t.Fatalf("after release: %d", v)
	}
}

func TestAtomicAddAndCAS(t *testing.T) {
	_, p, addr := atomicProc(t)
	for i := 1; i <= 5; i++ {
		v, err := p.AtomicAdd(addr, 2)
		if err != nil || v != uint32(2*i) {
			t.Fatalf("add %d: %d, %v", i, v, err)
		}
	}
	ok, err := p.CompareAndSwap(addr, 10, 99)
	if err != nil || !ok {
		t.Fatalf("cas: %v %v", ok, err)
	}
	ok, _ = p.CompareAndSwap(addr, 10, 50)
	if ok {
		t.Fatal("stale cas succeeded")
	}
	if v, _ := p.AtomicLoad(addr); v != 99 {
		t.Fatalf("value = %d", v)
	}
}

func TestAtomicAddConcurrent(t *testing.T) {
	k, _, addr := atomicProc(t)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := k.Spawn(0)
			// Each worker maps the same shared word.
			if _, err := k.MapSharedFile(p, "/atom", 4096, addrspace.ProtRW); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < each; i++ {
				if _, err := p.AtomicAdd(addr, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	reader := k.Spawn(0)
	k.MapSharedFile(reader, "/atom", 4096, addrspace.ProtRW)
	v, _ := reader.AtomicLoad(addr)
	if v != workers*each {
		t.Fatalf("counter = %d, want %d (lost updates)", v, workers*each)
	}
}

func TestAtomicFaultsPropagate(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	// Unmapped, unhandleable address: the fault surfaces as an error.
	if _, err := p.TestAndSet(0x6F000000); err == nil {
		t.Fatal("TAS on hole succeeded")
	}
	if _, err := p.AtomicAdd(0x6F000000, 1); err == nil {
		t.Fatal("AtomicAdd on hole succeeded")
	}
}

func TestStoreByteAndHostFiles(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	if err := p.AS.MapAnon(0x20000000, 4096, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := p.StoreByte(0x20000003, 0xAB); err != nil {
		t.Fatal(err)
	}
	if b, _ := p.LoadByte(0x20000003); b != 0xAB {
		t.Fatalf("byte = %x", b)
	}
	if len(p.Regions()) == 0 {
		t.Fatal("no regions reported")
	}
}
