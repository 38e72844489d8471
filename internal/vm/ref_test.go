package vm

import (
	"testing"
)

// runRef executes up to limit instructions through Step, mirroring the
// Run loop's stop conditions.
func runRef(c *CPU, limit int) (Event, error) {
	for i := 0; i < limit; i++ {
		ev, err := c.Step()
		if err != nil || ev != EventStep {
			return ev, err
		}
	}
	return EventStep, nil
}

// TestReferenceAgreesOnALUVectors replays the alu_test.go case tables on
// both the block engine (RunBatch) and the cache-free Step and demands
// bit-identical final state (registers, PC, memory hash).
func TestReferenceAgreesOnALUVectors(t *testing.T) {
	for _, c := range aluCases {
		fast := loadProgram(t, ".text\n nop\n halt\n", 0x1000)
		fast.AS.StoreWord(0x1000, c.word)
		fast.Regs[8], fast.Regs[9] = c.a, c.b

		ref := loadProgram(t, ".text\n nop\n halt\n", 0x1000)
		ref.AS.StoreWord(0x1000, c.word)
		ref.Regs[8], ref.Regs[9] = c.a, c.b

		if _, err := fast.Run(10); err != nil {
			t.Fatalf("%s: fast: %v", c.name, err)
		}
		if _, err := runRef(ref, 10); err != nil {
			t.Fatalf("%s: ref: %v", c.name, err)
		}
		if fast.Regs[10] != c.want || ref.Regs[10] != c.want {
			t.Errorf("%s: fast $t2=0x%x ref $t2=0x%x, want 0x%x",
				c.name, fast.Regs[10], ref.Regs[10], c.want)
		}
		if fh, rh := StateHash(fast), StateHash(ref); fh != rh {
			t.Errorf("%s: state diverged fast=%016x ref=%016x\nfast:\n%s\nref:\n%s",
				c.name, fh, rh, DumpState(fast), DumpState(ref))
		}
	}
}

func TestReferenceAgreesOnImmediateVectors(t *testing.T) {
	for _, c := range immCases {
		fast := loadProgram(t, ".text\n nop\n halt\n", 0x1000)
		fast.AS.StoreWord(0x1000, c.word)
		fast.Regs[8] = c.in

		ref := loadProgram(t, ".text\n nop\n halt\n", 0x1000)
		ref.AS.StoreWord(0x1000, c.word)
		ref.Regs[8] = c.in

		if _, err := fast.Run(10); err != nil {
			t.Fatalf("%s: fast: %v", c.name, err)
		}
		if _, err := runRef(ref, 10); err != nil {
			t.Fatalf("%s: ref: %v", c.name, err)
		}
		if fast.Regs[9] != c.want || ref.Regs[9] != c.want {
			t.Errorf("%s: fast $t1=0x%x ref $t1=0x%x, want 0x%x",
				c.name, fast.Regs[9], ref.Regs[9], c.want)
		}
		if fh, rh := StateHash(fast), StateHash(ref); fh != rh {
			t.Errorf("%s: state diverged fast=%016x ref=%016x", c.name, fh, rh)
		}
	}
}

// TestReferenceSeesSMCWithoutInvalidation: Step must never consult the
// block cache, so a store into text is visible on the very next Step even
// if a cached block were stale.
func TestReferenceSeesSMCWithoutInvalidation(t *testing.T) {
	c := loadProgram(t, ".text\n nop\n nop\n halt\n", 0x1000)
	// Warm the block cache over the whole program first.
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	// Rewind and patch the second nop into `ori $t3, $zero, 0x55`
	// behind the interpreter's back, then run through Step.
	c.PC = 0x1000
	c.AS.StoreWord(0x1004, 0x340B0055)
	if _, err := runRef(c, 10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[11] != 0x55 {
		t.Fatalf("reference path executed stale text: $t3 = 0x%x", c.Regs[11])
	}
}

// TestStateHashSensitivity: the hash must react to register, PC, memory
// and protection changes — otherwise the differential driver is blind.
func TestStateHashSensitivity(t *testing.T) {
	c := loadProgram(t, ".text\n halt\n", 0x1000)
	base := StateHash(c)
	c.Regs[8] = 1
	if StateHash(c) == base {
		t.Fatal("hash ignores registers")
	}
	c.Regs[8] = 0
	c.PC++
	if StateHash(c) == base {
		t.Fatal("hash ignores PC")
	}
	c.PC--
	c.AS.StoreByte(0x1100, 0xAA)
	if StateHash(c) == base {
		t.Fatal("hash ignores memory")
	}
}
