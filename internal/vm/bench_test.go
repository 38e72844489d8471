package vm_test

// Dispatch microbenchmarks: the cost of retiring one instruction, isolated
// from linking, syscalls and fault handling. scripts/bench.sh records them
// in BENCH_<n>.json.

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

const (
	benchTextBase = 0x00001000
	benchDataBase = 0x00002000
)

// benchCPU maps a small RWX text page holding an infinite 8-instruction
// loop (ALU mix, one load, one store, one jump) and an RW data page, then
// returns a CPU parked at the loop head.
func benchCPU(tb testing.TB) *vm.CPU {
	tb.Helper()
	as := addrspace.New(mem.NewPhysical(0))
	if err := as.MapAnon(benchTextBase, mem.PageSize, addrspace.ProtRWX); err != nil {
		tb.Fatal(err)
	}
	if err := as.MapAnon(benchDataBase, mem.PageSize, addrspace.ProtRW); err != nil {
		tb.Fatal(err)
	}
	loop := []uint32{
		isa.EncodeI(isa.OpADDIU, 9, 9, 1),      // addiu t1, t1, 1
		isa.EncodeR(isa.FnXOR, 10, 9, 8, 0),    // xor   t2, t1, t0
		isa.EncodeR(isa.FnSLTU, 11, 10, 8, 0),  // sltu  t3, t2, t0
		isa.EncodeI(isa.OpSW, 9, 15, 0),        // sw    t1, 0(t7)
		isa.EncodeI(isa.OpLW, 12, 15, 0),       // lw    t4, 0(t7)
		isa.EncodeR(isa.FnADDU, 13, 12, 10, 0), // addu  t5, t4, t2
		isa.EncodeR(isa.FnSRL, 14, 0, 13, 3),   // srl   t6, t5, 3
		isa.EncodeJ(isa.OpJ, benchTextBase),    // j     loop
	}
	for i, w := range loop {
		if err := as.StoreWord(benchTextBase+uint32(4*i), w); err != nil {
			tb.Fatal(err)
		}
	}
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[15] = benchDataBase // t7: data pointer
	return c
}

// BenchmarkDispatch measures the batched executor: one op = one retired
// instruction.
func BenchmarkDispatch(b *testing.B) {
	c := benchCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Steps
	c.Run(uint64(b.N)) // runs out of budget by design
	if got := c.Steps - start; got != uint64(b.N) {
		b.Fatalf("retired %d of %d instructions", got, b.N)
	}
}

// BenchmarkDispatchStep measures Step, the cache-free reference the
// differential harness compares RunBatch against and the block engine
// retires budget tails with: every fetch, load and store goes through the
// address space.
func BenchmarkDispatchStep(b *testing.B) {
	c := benchCPU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev, err := c.Step(); err != nil || ev != vm.EventStep {
			b.Fatalf("step %d: ev=%v err=%v", i, ev, err)
		}
	}
}

// calibSink keeps BenchmarkCalibrate's result live.
var calibSink uint32

// BenchmarkCalibrate is fixed pure-Go work that calls no Hemlock code: a
// xorshift stream mixed into a 1 KB table, with a data-dependent branch,
// the same kind of work as dispatch (ALU ops, L1 loads and stores,
// branches). It measures the host, not the code under test.
// scripts/bench.sh runs it beside BenchmarkDispatch, and
// scripts/benchcheck.sh divides each row by it when both files carry it,
// so a slower or busier host does not read as a regression.
func BenchmarkCalibrate(b *testing.B) {
	var tab [256]uint32
	for i := range tab {
		tab[i] = uint32(i) * 2654435761
	}
	x := uint32(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			k := x & 255
			tab[k] += x
			if tab[k]&1 != 0 {
				x += tab[(k+1)&255]
			}
		}
	}
	calibSink = x
}
