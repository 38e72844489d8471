package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cli runs one hemlock subcommand against the disk image in dir.
func cli(t *testing.T, dir string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	full := append([]string{"-img", filepath.Join(dir, "hemlock.img")}, args...)
	if err := run(full, &out); err != nil {
		t.Fatalf("hemlock %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// cliErr runs a subcommand expecting failure.
func cliErr(t *testing.T, dir string, args ...string) error {
	t.Helper()
	var out bytes.Buffer
	full := append([]string{"-img", filepath.Join(dir, "hemlock.img")}, args...)
	err := run(full, &out)
	if err == nil {
		t.Fatalf("hemlock %s unexpectedly succeeded:\n%s", strings.Join(args, " "), out.String())
	}
	return err
}

func writeHostFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0644); err != nil {
		t.Fatal(err)
	}
	return p
}

const cliSharedSrc = `
        .data
        .globl  hits
hits:   .word   0
`

const cliMainSrc = `
        .text
        .globl  main
        .extern hits
main:   la      $t0, hits
        lw      $v0, 0($t0)
        addiu   $v0, $v0, 1
        sw      $v0, 0($t0)
        jr      $ra
`

func TestCLIFullWorkflow(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	shared := writeHostFile(t, dir, "shared.s", cliSharedSrc)
	mainS := writeHostFile(t, dir, "main.s", cliMainSrc)
	cli(t, dir, "cp", shared, "/src/shared.s")
	cli(t, dir, "cp", mainS, "/src/main.s")

	out := cli(t, dir, "as", "/src/shared.s", "/lib/shared.o")
	if !strings.Contains(out, "assembled /lib/shared.o") {
		t.Fatalf("as output: %q", out)
	}
	cli(t, dir, "as", "/src/main.s", "/bin/main.o")

	out = cli(t, dir, "lds", "-o", "/bin/demo", "-C", "/bin", "-default", "/lib",
		"sp:main.o", "dpub:shared.o")
	if !strings.Contains(out, "1 dynamic modules") {
		t.Fatalf("lds output: %q", out)
	}

	// Three runs, three separate CLI invocations, one persistent counter.
	for want := 1; want <= 3; want++ {
		out = cli(t, dir, "run", "/bin/demo")
		if !strings.Contains(out, strings.TrimSpace(string(rune('0'+want)))) {
			// exit code is printed as [exit N]
		}
		if !strings.Contains(out, "[exit "+string(rune('0'+want))+"]") {
			t.Fatalf("run %d output: %q", want, out)
		}
	}

	// The created segment shows up in fsck's perusal.
	out = cli(t, dir, "fsck")
	if !strings.Contains(out, "/lib/shared") || !strings.Contains(out, "lookup table clean") {
		t.Fatalf("fsck output: %q", out)
	}
	// And in ls with its fixed address.
	out = cli(t, dir, "ls", "/lib")
	if !strings.Contains(out, "shared") || !strings.Contains(out, "0x30") {
		t.Fatalf("ls output: %q", out)
	}
}

func TestCLICatAndStat(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	p := writeHostFile(t, dir, "note.txt", "hello disk image")
	cli(t, dir, "cp", p, "/note.txt")
	if out := cli(t, dir, "cat", "/note.txt"); out != "hello disk image" {
		t.Fatalf("cat: %q", out)
	}
	out := cli(t, dir, "stat", "/note.txt")
	if !strings.Contains(out, "type:  file") || !strings.Contains(out, "addr:  0x30") {
		t.Fatalf("stat: %q", out)
	}
	cli(t, dir, "rm", "/note.txt")
	cliErr(t, dir, "cat", "/note.txt")
}

// TestCLIRmEmptyDirectory: rm removes a file or an empty directory; a
// directory that still holds something fails, naming the path.
func TestCLIRmEmptyDirectory(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	cli(t, dir, "cp", writeHostFile(t, dir, "f.txt", "x"), "/d/f")
	if err := cliErr(t, dir, "rm", "/d"); !strings.Contains(err.Error(), "/d") {
		t.Fatalf("rm of a non-empty directory: %v, want the path named", err)
	}
	cli(t, dir, "rm", "/d/f")
	cli(t, dir, "rm", "/d")
	cliErr(t, dir, "stat", "/d")
}

func TestCLINmAndDis(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	p := writeHostFile(t, dir, "m.s", cliMainSrc)
	cli(t, dir, "cp", p, "/src/m.s")
	cli(t, dir, "as", "/src/m.s", "/lib/m.o")
	out := cli(t, dir, "nm", "/lib/m.o")
	if !strings.Contains(out, "T main") || !strings.Contains(out, "U hits") {
		t.Fatalf("nm: %q", out)
	}
	out = cli(t, dir, "dis", "/lib/m.o")
	if !strings.Contains(out, "lui") || !strings.Contains(out, "jr $ra") {
		t.Fatalf("dis: %q", out)
	}
}

func TestCLILayout(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	out := cli(t, dir, "layout")
	for _, want := range []string{"0x30000000", "shared file system", "kernel"} {
		if !strings.Contains(out, want) {
			t.Fatalf("layout missing %q:\n%s", want, out)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	// No image yet.
	cliErr(t, dir, "ls")
	cli(t, dir, "mkfs")
	cliErr(t, dir, "as", "/missing.s", "/lib/x.o")
	cliErr(t, dir, "lds", "-o", "/bin/x", "sp:ghost.o")
	cliErr(t, dir, "run", "/no/such/image")
	cliErr(t, dir, "lds", "-o", "/bin/x", "badclass:mod.o")
	cliErr(t, dir, "lds", "-o", "/bin/x", "nocolonmodule")
	cliErr(t, dir, "stat", "/nope")
}

func TestCLIRunWithEnv(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	// Two versions of a module selected by LD_LIBRARY_PATH.
	v1 := writeHostFile(t, dir, "v1.s", ".data\n.globl v\nv: .word 1\n")
	v2 := writeHostFile(t, dir, "v2.s", ".data\n.globl v\nv: .word 2\n")
	mn := writeHostFile(t, dir, "main.s", `
        .text
        .globl  main
        .extern v
main:   la      $t0, v
        lw      $v0, 0($t0)
        jr      $ra
`)
	cli(t, dir, "cp", v1, "/src/v1.s")
	cli(t, dir, "cp", v2, "/src/v2.s")
	cli(t, dir, "cp", mn, "/src/main.s")
	cli(t, dir, "as", "/src/v1.s", "/v1/cfg.o")
	cli(t, dir, "as", "/src/v2.s", "/v2/cfg.o")
	cli(t, dir, "as", "/src/main.s", "/bin/main.o")
	cli(t, dir, "lds", "-o", "/bin/app", "-C", "/bin", "-default", "/v1",
		"sp:main.o", "dp:cfg.o")
	if out := cli(t, dir, "run", "/bin/app"); !strings.Contains(out, "[exit 1]") {
		t.Fatalf("default run: %q", out)
	}
	if out := cli(t, dir, "run", "-e", "LD_LIBRARY_PATH=/v2", "/bin/app"); !strings.Contains(out, "[exit 2]") {
		t.Fatalf("override run: %q", out)
	}
}

func TestCLIJumpTables(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	fn := writeHostFile(t, dir, "fn.s", `
        .text
        .globl  get5
get5:   li      $v0, 5
        jr      $ra
`)
	mn := writeHostFile(t, dir, "main.s", `
        .text
        .globl  main
        .extern get5
main:   addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        jal     get5
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
`)
	cli(t, dir, "cp", fn, "/src/fn.s")
	cli(t, dir, "cp", mn, "/src/main.s")
	cli(t, dir, "as", "/src/fn.s", "/lib/fn.o")
	cli(t, dir, "as", "/src/main.s", "/bin/main.o")
	out := cli(t, dir, "lds", "-o", "/bin/app", "-C", "/bin", "-default", "/lib",
		"-jumptables", "sp:main.o", "dpub:fn.o")
	// The call was routed through a stub, so nothing is retained for
	// start-up resolution (the note itself goes to stderr).
	if !strings.Contains(out, "0 retained relocs") {
		t.Fatalf("lds output: %q", out)
	}
	if out := cli(t, dir, "run", "/bin/app"); !strings.Contains(out, "[exit 5]") {
		t.Fatalf("run: %q", out)
	}
}

func TestCLINmAndDisOnImages(t *testing.T) {
	dir := t.TempDir()
	cli(t, dir, "mkfs")
	m := writeHostFile(t, dir, "m.s", cliMainSrc)
	sh := writeHostFile(t, dir, "s.s", cliSharedSrc)
	cli(t, dir, "cp", m, "/src/m.s")
	cli(t, dir, "cp", sh, "/src/s.s")
	cli(t, dir, "as", "/src/m.s", "/bin/main.o")
	cli(t, dir, "as", "/src/s.s", "/lib/shared.o")
	cli(t, dir, "lds", "-o", "/bin/app", "-C", "/bin", "-default", "/lib",
		"sp:main.o", "dpub:shared.o")
	out := cli(t, dir, "nm", "/bin/app")
	if !strings.Contains(out, "T main") || !strings.Contains(out, "U hits") {
		t.Fatalf("nm on image: %q", out)
	}
	out = cli(t, dir, "dis", "/bin/app")
	if !strings.Contains(out, "00400000") || !strings.Contains(out, "jal") {
		t.Fatalf("dis on image: %q", out)
	}
}
