package ldl_test

import (
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/kern"
	"hemlock/internal/ldl"
)

// Compile-time check: ldl.Proc is the kernel's runtime hook, which backs
// the link_module/sym_addr syscalls.
var _ kern.Runtime = (*ldl.Proc)(nil)

// TestDlopenFromVM: a program loads a module by name at run time and reads
// a symbol from it — the dld workflow, but scoped, lazy, and able to feed
// the main image's retained references.
func TestDlopenFromVM(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/plugins/stats.o", `
        .data
        .globl  stats_answer
stats_answer: .word 4242
`)
	res := linkWith(t, s, `
        .text
        .globl  main
main:
        addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        # link_module("/plugins/stats.o", public=1)
        li      $v0, 15
        la      $a0, modname
        li      $a1, 1
        syscall
        bnez    $v1, fail
        # sym_addr("stats_answer")
        li      $v0, 16
        la      $a0, symname
        syscall
        bnez    $v1, fail
        lw      $v0, 0($v0)
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
fail:
        li      $v0, 255
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
        .data
modname: .asciiz "/plugins/stats.o"
symname: .asciiz "stats_answer"
`)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// exit code is the low byte of 4242 (= 4242 & 0xFF ... exit takes the
	// full int in the simulation, so the value survives whole).
	if pg.P.ExitCode != 4242 {
		t.Fatalf("exit = %d, want 4242", pg.P.ExitCode)
	}
}

func TestDlopenMissingModuleErrno(t *testing.T) {
	s := core.NewSystem()
	res := linkWith(t, s, `
        .text
        .globl  main
main:
        li      $v0, 15
        la      $a0, modname
        li      $a1, 1
        syscall
        move    $v0, $v1        # exit(errno)
        jr      $ra
        .data
modname: .asciiz "/plugins/ghost.o"
`)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if pg.P.ExitCode == 0 {
		t.Fatal("missing module load reported success")
	}
}

func TestDlsymUndefined(t *testing.T) {
	s := core.NewSystem()
	res := linkWith(t, s, `
        .text
        .globl  main
main:
        li      $v0, 16
        la      $a0, symname
        syscall
        move    $v0, $v1
        jr      $ra
        .data
symname: .asciiz "no_such_symbol"
`)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if pg.P.ExitCode == 0 {
		t.Fatal("undefined dlsym reported success")
	}
}

// TestDlopenHosted drives the same interface from the host side.
func TestDlopenHosted(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/plugins/extra.o", ".data\n.globl extra_v\nextra_v: .word 5\n")
	res := linkWith(t, s, trivialMain)
	pg, err := s.Launch(res.Image, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pg.LDL.LinkByPath("/plugins/extra.o", true)
	if err != nil {
		t.Fatal(err)
	}
	if base == 0 {
		t.Fatal("no base address")
	}
	addr, ok := pg.LDL.SymbolAddr("extra_v")
	if !ok || addr < base {
		t.Fatalf("extra_v at 0x%x (module base 0x%x)", addr, base)
	}
	// Loading the same public module again is idempotent.
	base2, err := pg.LDL.LinkByPath("/plugins/extra.o", true)
	if err != nil || base2 != base {
		t.Fatalf("second load: 0x%x, %v", base2, err)
	}
}
