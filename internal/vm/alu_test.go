package vm

import (
	"testing"

	"hemlock/internal/isa"
)

// aluCases and immCases are package-level so ref_test.go can replay the
// same vectors through Step and assert RunBatch/Step agreement.
var aluCases = []struct {
	name string
	word uint32
	a, b uint32 // $t0, $t1 inputs
	want uint32 // expected $t2
}{
	{"add", isa.EncodeR(isa.FnADD, 10, 8, 9, 0), 7, 5, 12},
	{"addu-wrap", isa.EncodeR(isa.FnADDU, 10, 8, 9, 0), 0xFFFFFFFF, 2, 1},
	{"sub", isa.EncodeR(isa.FnSUB, 10, 8, 9, 0), 5, 7, 0xFFFFFFFE},
	{"and", isa.EncodeR(isa.FnAND, 10, 8, 9, 0), 0xF0F0, 0xFF00, 0xF000},
	{"or", isa.EncodeR(isa.FnOR, 10, 8, 9, 0), 0xF0F0, 0x0F0F, 0xFFFF},
	{"xor", isa.EncodeR(isa.FnXOR, 10, 8, 9, 0), 0xFF, 0x0F, 0xF0},
	{"nor", isa.EncodeR(isa.FnNOR, 10, 8, 9, 0), 0, 0, 0xFFFFFFFF},
	{"mul", isa.EncodeR(isa.FnMUL, 10, 8, 9, 0), 1000, 1000, 1000000},
	{"div-signed", isa.EncodeR(isa.FnDIV, 10, 8, 9, 0), 0xFFFFFFF9, 2, 0xFFFFFFFD}, // -7/2 = -3
	{"slt-true", isa.EncodeR(isa.FnSLT, 10, 8, 9, 0), 0xFFFFFFFF, 0, 1},            // -1 < 0
	{"sltu-false", isa.EncodeR(isa.FnSLTU, 10, 8, 9, 0), 0xFFFFFFFF, 0, 0},
}

var immCases = []struct {
	name string
	word uint32
	in   uint32 // $t0
	want uint32 // $t1
}{
	{"addi-neg", isa.EncodeI(isa.OpADDI, 9, 8, 0xFFFF), 10, 9},
	{"andi-zeroext", isa.EncodeI(isa.OpANDI, 9, 8, 0xFFFF), 0xABCD1234, 0x1234},
	{"ori", isa.EncodeI(isa.OpORI, 9, 8, 0x00F0), 0x0F00, 0x0FF0},
	{"xori", isa.EncodeI(isa.OpXORI, 9, 8, 0x00FF), 0x0F0F, 0x0FF0},
	{"slti-neg", isa.EncodeI(isa.OpSLTI, 9, 8, 0xFFFF), 0xFFFFFFFE, 1}, // -2 < -1
	{"sltiu-signext", isa.EncodeI(isa.OpSLTIU, 9, 8, 0xFFFF), 5, 1},    // 5 < 0xFFFFFFFF
	{"lui", isa.EncodeI(isa.OpLUI, 9, 0, 0x1234), 0, 0x12340000},
}

// TestALUOperationTable pins every ALU operation's semantics with direct
// register setup (no assembler in the loop).
func TestALUOperationTable(t *testing.T) {
	for _, c := range aluCases {
		cpu := loadProgram(t, ".text\n nop\n halt\n", 0x1000)
		cpu.AS.StoreWord(0x1000, c.word)
		cpu.Regs[8], cpu.Regs[9] = c.a, c.b
		if _, err := cpu.Run(10); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cpu.Regs[10] != c.want {
			t.Errorf("%s: $t2 = 0x%x, want 0x%x", c.name, cpu.Regs[10], c.want)
		}
	}
}

// TestImmediateOperationTable covers the I-type ALU forms.
func TestImmediateOperationTable(t *testing.T) {
	for _, c := range immCases {
		cpu := loadProgram(t, ".text\n nop\n halt\n", 0x1000)
		cpu.AS.StoreWord(0x1000, c.word)
		cpu.Regs[8] = c.in
		if _, err := cpu.Run(10); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cpu.Regs[9] != c.want {
			t.Errorf("%s: $t1 = 0x%x, want 0x%x", c.name, cpu.Regs[9], c.want)
		}
	}
}

func TestBlezBgtzBoundaries(t *testing.T) {
	// blez taken at 0 and negative; bgtz only at positive.
	run := func(op int, val uint32) bool {
		cpu := loadProgram(t, ".text\n nop\n li $t1, 1\n halt\n", 0x1000)
		// Replace nop with branch over the li.
		cpu.AS.StoreWord(0x1000, isa.EncodeI(op, 0, 8, 2)) // skip 2 words
		cpu.Regs[8] = val
		if _, err := cpu.Run(10); err != nil {
			t.Fatal(err)
		}
		return cpu.Regs[9] == 0 // branch taken => li skipped
	}
	if !run(isa.OpBLEZ, 0) || !run(isa.OpBLEZ, 0xFFFFFFFF) || run(isa.OpBLEZ, 1) {
		t.Fatal("blez semantics wrong")
	}
	if run(isa.OpBGTZ, 0) || run(isa.OpBGTZ, 0xFFFFFFFF) || !run(isa.OpBGTZ, 1) {
		t.Fatal("bgtz semantics wrong")
	}
}

// TestSnapshotIsIndependent: an ArchState snapshot does not alias the live
// registers.
func TestSnapshotIsIndependent(t *testing.T) {
	cpu := loadProgram(t, ".text\n li $t0, 5\n halt\n", 0x1000)
	snap := cpu.ArchState()
	if _, err := cpu.Run(10); err != nil {
		t.Fatal(err)
	}
	if snap.Regs[8] == cpu.Regs[8] && cpu.Regs[8] != 0 {
		t.Fatal("snapshot aliases live registers")
	}
	if snap.PC != 0x1000 {
		t.Fatalf("snapshot PC = 0x%x", snap.PC)
	}
}

func TestJalrCustomLinkRegister(t *testing.T) {
	cpu := loadProgram(t, `
        .text
        li      $t0, 0x1010
        jalr    $t1, $t0
        halt
target: halt
`, 0x1000)
	if _, err := cpu.Run(10); err != nil {
		t.Fatal(err)
	}
	// jalr $t1, $t0: link goes into $t1, not $ra.
	if cpu.Regs[9] == 0 {
		t.Fatal("custom link register not written")
	}
	if cpu.Regs[31] != 0 {
		t.Fatal("$ra clobbered by jalr with explicit rd")
	}
}
