package vm

import (
	"errors"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/linker"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
)

func isa2reloc() objfile.RelType { return objfile.RelJump26 }

func be32(b []byte, off uint32) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
}

// loadProgram assembles src, places text at base (RWX for convenience) and
// data where linker.Place lays it out, resolving no relocations (tests use
// position-independent or local-only code paths, or patch words directly).
func loadProgram(t *testing.T, src string, base uint32) *CPU {
	t.Helper()
	o, err := isa.Assemble("test.s", src)
	if err != nil {
		t.Fatal(err)
	}
	// Apply JUMP26 relocations for locally-defined text symbols (the only
	// relocation kind these self-contained test programs produce).
	for _, r := range o.Relocs {
		sym := o.Symbols[r.Sym]
		if r.Type == isa2reloc() && sym.Defined() && sym.Section == objfile.SecText {
			w := be32(o.Text, r.Offset)
			patched := isa.PatchJump26(w, base+sym.Value+uint32(r.Addend))
			o.Text[r.Offset] = byte(patched >> 24)
			o.Text[r.Offset+1] = byte(patched >> 16)
			o.Text[r.Offset+2] = byte(patched >> 8)
			o.Text[r.Offset+3] = byte(patched)
			continue
		}
		t.Fatalf("test program has unsupported relocation %v against %q", r.Type, sym.Name)
	}
	p, err := linker.Place(o, base)
	if err != nil {
		t.Fatal(err)
	}
	as := addrspace.New(mem.NewPhysical(0))
	size := p.Size()
	if size == 0 {
		size = 4
	}
	if err := as.MapAnon(base, size+mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Write(base, o.Text); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Write(p.DataAddr(), o.Data); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.PC = base
	return c
}

func TestArithmetic(t *testing.T) {
	c := loadProgram(t, `
        .text
        li      $t0, 6
        li      $t1, 7
        mul     $t2, $t0, $t1
        addiu   $t2, $t2, -2
        sub     $t3, $t2, $t0
        div     $t4, $t2, $t1
        halt
`, 0x1000)
	ev, err := c.Run(100)
	if err != nil || ev != EventHalt {
		t.Fatalf("run: %v %v", ev, err)
	}
	if c.Regs[10] != 40 { // $t2
		t.Fatalf("$t2 = %d, want 40", c.Regs[10])
	}
	if c.Regs[11] != 34 { // $t3
		t.Fatalf("$t3 = %d, want 34", c.Regs[11])
	}
	if c.Regs[12] != 5 { // $t4 = 40/7
		t.Fatalf("$t4 = %d, want 5", c.Regs[12])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c := loadProgram(t, ".text\n li $zero, 99\n halt\n", 0x1000)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Regs[0] != 0 {
		t.Fatalf("$zero = %d", c.Regs[0])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	c := loadProgram(t, `
        .text
        li      $t0, 0      # i
        li      $t1, 0      # sum
        li      $t2, 10
loop:   addiu   $t0, $t0, 1
        addu    $t1, $t1, $t0
        bne     $t0, $t2, loop
        halt
`, 0x1000)
	if _, err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.Regs[9] != 55 {
		t.Fatalf("sum = %d, want 55", c.Regs[9])
	}
}

func TestLoadsStores(t *testing.T) {
	c := loadProgram(t, `
        .text
        li      $t0, 0x2000
        li      $t1, 0x1234ABCD
        sw      $t1, 0($t0)
        lw      $t2, 0($t0)
        lb      $t3, 0($t0)     # sign-extended 0x12
        lbu     $t4, 3($t0)     # 0xCD
        sb      $t4, 4($t0)
        lbu     $t5, 4($t0)
        halt
`, 0x1000)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[10] != 0x1234ABCD || c.Regs[11] != 0x12 || c.Regs[12] != 0xCD || c.Regs[13] != 0xCD {
		t.Fatalf("regs: %x %x %x %x", c.Regs[10], c.Regs[11], c.Regs[12], c.Regs[13])
	}
}

func TestJalAndJr(t *testing.T) {
	c := loadProgram(t, `
        .text
        jal     sub
        li      $t1, 1
        halt
sub:    li      $t0, 5
        jr      $ra
`, 0x1000)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[8] != 5 || c.Regs[9] != 1 {
		t.Fatalf("$t0=%d $t1=%d", c.Regs[8], c.Regs[9])
	}
}

func TestFaultRestartsInstruction(t *testing.T) {
	// A store to an unmapped page faults; after the handler maps the page,
	// re-stepping the same PC succeeds. This is the core mechanism behind
	// Hemlock's lazy linking.
	c := loadProgram(t, `
        .text
        li      $t0, 0x30000000
        li      $t1, 77
        sw      $t1, 0($t0)
        lw      $t2, 0($t0)
        halt
`, 0x1000)
	var faults int
	for {
		ev, err := c.Step()
		if err != nil {
			f, ok := FaultOf(err)
			if !ok {
				t.Fatal(err)
			}
			faults++
			if f.Addr != 0x30000000 || f.Access != addrspace.AccessWrite {
				t.Fatalf("fault: %+v", f)
			}
			// "Kernel" maps the page and resumes.
			if err := c.AS.MapAnon(0x30000000, mem.PageSize, addrspace.ProtRW); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if ev == EventHalt {
			break
		}
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	if c.Regs[10] != 77 {
		t.Fatalf("$t2 = %d after restart", c.Regs[10])
	}
}

func TestProtNoneFaultThenProtect(t *testing.T) {
	c := loadProgram(t, `
        .text
        li      $t0, 0x30000000
        lw      $t2, 0($t0)
        halt
`, 0x1000)
	if err := c.AS.MapAnon(0x30000000, mem.PageSize, addrspace.ProtNone); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(100)
	f, ok := FaultOf(err)
	if !ok || f.Unmapped {
		t.Fatalf("want protection fault, got %v", err)
	}
	if err := c.AS.Protect(0x30000000, mem.PageSize, addrspace.ProtRW); err != nil {
		t.Fatal(err)
	}
	ev, err := c.Run(100)
	if err != nil || ev != EventHalt {
		t.Fatalf("after protect: %v %v", ev, err)
	}
}

func TestSyscallAdvancesPC(t *testing.T) {
	c := loadProgram(t, ".text\n syscall\n li $t0, 3\n halt\n", 0x1000)
	ev, err := c.Step()
	if err != nil || ev != EventSyscall {
		t.Fatalf("step: %v %v", ev, err)
	}
	if c.PC != 0x1004 {
		t.Fatalf("PC = 0x%x after syscall, want 0x1004", c.PC)
	}
	ev, err = c.Run(10)
	if err != nil || ev != EventHalt || c.Regs[8] != 3 {
		t.Fatalf("resume after syscall: %v %v $t0=%d", ev, err, c.Regs[8])
	}
}

func TestIllegalInstruction(t *testing.T) {
	as := addrspace.New(mem.NewPhysical(0))
	as.MapAnon(0x1000, mem.PageSize, addrspace.ProtRWX)
	as.StoreWord(0x1000, 0xFC000000|0x3B<<20) // op 63 is HALT; use op 1 (unused)
	as.StoreWord(0x1000, uint32(1)<<26)
	c := New(as)
	c.PC = 0x1000
	_, err := c.Step()
	if !errors.Is(err, ErrIllegal) {
		t.Fatalf("want illegal instruction, got %v", err)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	c := loadProgram(t, ".text\n li $t0, 4\n div $t1, $t0, $zero\n halt\n", 0x1000)
	_, err := c.Run(10)
	if !errors.Is(err, ErrDivZero) {
		t.Fatalf("want div-by-zero, got %v", err)
	}
}

func TestExecProtectionEnforced(t *testing.T) {
	as := addrspace.New(mem.NewPhysical(0))
	as.MapAnon(0x1000, mem.PageSize, addrspace.ProtRW) // no exec
	c := New(as)
	c.PC = 0x1000
	_, err := c.Step()
	f, ok := FaultOf(err)
	if !ok || f.Access != addrspace.AccessExec {
		t.Fatalf("want exec fault, got %v", err)
	}
}

func TestRunStepLimit(t *testing.T) {
	c := loadProgram(t, ".text\nloop: b loop\n", 0x1000)
	if _, err := c.Run(50); err == nil {
		t.Fatal("infinite loop not caught by step limit")
	}
	if c.Steps != 50 {
		t.Fatalf("steps = %d, want 50", c.Steps)
	}
}

func TestTrampolineExecution(t *testing.T) {
	// Execute a linker-style trampoline: it must land at the far target
	// in another 256 MB region with $ra intact for calls.
	as := addrspace.New(mem.NewPhysical(0))
	as.MapAnon(0x1000, mem.PageSize, addrspace.ProtRWX)
	as.MapAnon(0x30000000, mem.PageSize, addrspace.ProtRWX)
	for i, w := range isa.TrampolineWords(0x30000000, true) {
		as.StoreWord(0x1000+uint32(i)*4, w)
	}
	as.StoreWord(0x30000000, uint32(isa.OpHALT)<<26)
	c := New(as)
	c.PC = 0x1000
	ev, err := c.Run(10)
	if err != nil || ev != EventHalt {
		t.Fatalf("trampoline run: %v %v", ev, err)
	}
	if c.Regs[isa.RegRA] != 0x100C {
		t.Fatalf("$ra = 0x%x, want 0x100C", c.Regs[isa.RegRA])
	}
}

func TestShiftOps(t *testing.T) {
	c := loadProgram(t, `
        .text
        li      $t0, 0x80000010
        srl     $t1, $t0, 4
        sra     $t2, $t0, 4
        sll     $t3, $t0, 1
        li      $t4, 8
        srlv    $t5, $t0, $t4
        halt
`, 0x1000)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[9] != 0x08000001 || c.Regs[10] != 0xF8000001 || c.Regs[11] != 0x00000020 || c.Regs[13] != 0x00800000 {
		t.Fatalf("shifts: %x %x %x %x", c.Regs[9], c.Regs[10], c.Regs[11], c.Regs[13])
	}
}

func TestSltVariants(t *testing.T) {
	c := loadProgram(t, `
        .text
        li      $t0, -1
        li      $t1, 1
        slt     $t2, $t0, $t1      # signed: -1 < 1 -> 1
        sltu    $t3, $t0, $t1      # unsigned: 0xFFFFFFFF < 1 -> 0
        slti    $t4, $t0, 0        # -1 < 0 -> 1
        sltiu   $t5, $t1, 2        # 1 < 2 -> 1
        halt
`, 0x1000)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[10] != 1 || c.Regs[11] != 0 || c.Regs[12] != 1 || c.Regs[13] != 1 {
		t.Fatalf("slt: %d %d %d %d", c.Regs[10], c.Regs[11], c.Regs[12], c.Regs[13])
	}
}
