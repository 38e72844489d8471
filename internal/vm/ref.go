package vm

// State digests for the differential-testing harness (internal/harness),
// which runs each program on RunBatch and on the cache-free Step and
// compares the two runs' final states.

import (
	"fmt"
	"hash/fnv"
	"strings"

	"hemlock/internal/addrspace"
	"hemlock/internal/mem"
)

// StateHash digests the CPU's architectural state — registers, PC, and
// every mapped page's address, protection and content — into one 64-bit
// FNV-1a value. Two runs of the same program diverge iff their hashes do,
// so the harness compares one word per run instead of whole memory images.
func StateHash(c *CPU) uint64 {
	h := fnv.New64a()
	var w [4]byte
	put := func(v uint32) {
		w[0], w[1], w[2], w[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		h.Write(w[:])
	}
	put(c.PC)
	for _, r := range c.Regs {
		put(r)
	}
	c.AS.VisitPages(func(vpn uint32, prot addrspace.Prot, data *[mem.PageSize]byte) {
		put(vpn)
		put(uint32(prot))
		h.Write(data[:])
	})
	return h.Sum64()
}

// DumpState renders the architectural state for failure reports: PC, the
// non-zero registers, and a per-page FNV digest of memory. Diffing two
// dumps localises a divergence to a register or a page without drowning
// the test log in hexdumps.
func DumpState(c *CPU) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pc=0x%08x steps=%d traps=%d\n", c.PC, c.Steps, c.Traps)
	for i, r := range c.Regs {
		if r != 0 {
			fmt.Fprintf(&sb, "  r%-2d = 0x%08x\n", i, r)
		}
	}
	c.AS.VisitPages(func(vpn uint32, prot addrspace.Prot, data *[mem.PageSize]byte) {
		h := fnv.New64a()
		h.Write(data[:])
		fmt.Fprintf(&sb, "  page 0x%08x %s fnv=%016x\n", vpn<<mem.PageShift, prot, h.Sum64())
	})
	return sb.String()
}
