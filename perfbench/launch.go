package main

import (
	"fmt"
	"math/rand"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
)

// The launch workload is the paper's Table 1 path at the core level: one
// client loads, launches, runs to exit and exits programs from a catalog.
const (
	launchLibs     = 16  // library modules
	launchProgs    = 128 // programs, each a main plus two libraries
	launchZipfS    = 1.1 // popularity skew over the catalog
	launchRebuild  = 500 // every this many ops, one library is re-assembled
	launchWarm     = 3000
	launchMaxSteps = 100_000
)

var classes = []objfile.Class{objfile.StaticPrivate, objfile.DynamicPrivate,
	objfile.StaticPublic, objfile.DynamicPublic}

type launchProg struct {
	path string
	want int // exit code: the sum of its two libraries' variables
}

type launchBench struct {
	sys     *core.System
	libSrc  []string
	progs   []launchProg
	rank    []int // popularity rank -> program
	zipf    *rand.Zipf
	rng     *rand.Rand // rebuild choices
	seq     uint64
	clones  *obsv.Counter
	rebuild int // library the prepared op re-assembles first, or -1
	cur     *launchProg
	exited  bool
	code    int
}

func libPath(i int) string { return fmt.Sprintf("/lib/lib%02d.o", i) }

// setupLaunch builds the catalog: 16 libraries, each exporting one word,
// and 128 programs whose main returns the sum of two libraries' words,
// each library linked under a sharing class drawn from all four.
func setupLaunch(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &launchBench{sys: core.NewSystem()}
	vals := make([]int, launchLibs)
	for i := range vals {
		vals[i] = 1 + rng.Intn(1000)
		src := fmt.Sprintf("        .data\n        .globl  lib%02d_val\nlib%02d_val: .word %d\n", i, i, vals[i])
		b.libSrc = append(b.libSrc, src)
		if _, err := b.sys.Asm(libPath(i), src); err != nil {
			return nil, err
		}
	}
	for j := 0; j < launchProgs; j++ {
		x := rng.Intn(launchLibs)
		y := (x + 1 + rng.Intn(launchLibs-1)) % launchLibs
		src := fmt.Sprintf(`
        .text
        .globl  main
        .extern lib%02d_val
        .extern lib%02d_val
main:   la      $t0, lib%02d_val
        lw      $v0, 0($t0)
        la      $t1, lib%02d_val
        lw      $t2, 0($t1)
        addu    $v0, $v0, $t2
        jr      $ra
`, x, y, x, y)
		name := fmt.Sprintf("prog%03d", j)
		if _, err := b.sys.Asm("/bin/"+name+".o", src); err != nil {
			return nil, err
		}
		res, err := b.sys.Link(&lds.Options{
			Output: name,
			Modules: []lds.Input{
				{Name: name + ".o", Class: objfile.StaticPrivate},
				{Name: fmt.Sprintf("lib%02d.o", x), Class: classes[rng.Intn(len(classes))]},
				{Name: fmt.Sprintf("lib%02d.o", y), Class: classes[rng.Intn(len(classes))]},
			},
			LinkDir:     "/bin",
			DefaultPath: []string{"/lib"},
		})
		if err != nil {
			return nil, fmt.Errorf("link %s: %w", name, err)
		}
		if err := b.sys.SaveExecutable("/bin/"+name, res.Image); err != nil {
			return nil, err
		}
		b.progs = append(b.progs, launchProg{path: "/bin/" + name, want: vals[x] + vals[y]})
	}
	b.rank = rng.Perm(launchProgs)
	b.zipf = rand.NewZipf(rand.New(rand.NewSource(rng.Int63())), launchZipfS, 1, launchProgs-1)
	b.rng = rand.New(rand.NewSource(rng.Int63()))
	b.clones = b.sys.Obs().Registry().Counter("kern.zygote_clone")
	if err := warm(b, launchWarm); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *launchBench) clients() int { return 1 }

func (b *launchBench) prepare(int) {
	b.seq++
	b.rebuild = -1
	if b.seq%launchRebuild == 0 {
		b.rebuild = b.rng.Intn(launchLibs)
	}
	b.cur = &b.progs[b.rank[b.zipf.Uint64()]]
}

func (b *launchBench) op(_ int, rec *recorder) error {
	if k := b.rebuild; k >= 0 {
		i := rec.begin("lds/System.Asm")
		_, err := b.sys.Asm(libPath(k), b.libSrc[k])
		rec.end(i)
		if err != nil {
			return err
		}
	}
	i := rec.begin("objfile/System.LoadExecutable")
	im, err := b.sys.LoadExecutable(b.cur.path)
	rec.end(i)
	if err != nil {
		return err
	}
	clones := b.clones.Value()
	i = rec.begin("ldl/System.Launch.cold")
	pg, err := b.sys.Launch(im, 0, nil)
	rec.end(i)
	if err != nil {
		return err
	}
	if rec != nil && b.clones.Value() != clones {
		rec.rename(i, "kern/System.Launch.clone")
	}
	i = rec.begin("vm/Program.Run")
	err = pg.Run(launchMaxSteps)
	rec.end(i)
	b.exited, b.code = pg.P.Exited, pg.P.ExitCode
	i = rec.begin("kern/Process.Exit")
	pg.P.Exit(0)
	rec.end(i)
	return err
}

func (b *launchBench) check(int) error {
	if !b.exited || b.code != b.cur.want {
		return fmt.Errorf("%s: exited %v with %d, want %d", b.cur.path, b.exited, b.code, b.cur.want)
	}
	return nil
}

func (b *launchBench) counters() obsv.Snapshot { return b.sys.Obs().Registry().Snapshot() }

func (b *launchBench) layers(ph *phase, m map[string]float64) {
	t := ph.trace
	m["core.load_exe_us"] = t.p50us("objfile/System.LoadExecutable")
	m["kern.launch_clone_us"] = t.p50us("kern/System.Launch.clone")
	m["kern.launch_cold_us"] = t.p50us("ldl/System.Launch.cold")
	m["vm.run_us"] = t.p50us("vm/Program.Run")
	m["kern.exit_us"] = t.p50us("kern/Process.Exit")
	m["lds.rebuild_us"] = t.p50us("lds/System.Asm")
	m["kern.zygote_clone_ratio"] = ph.perOp(ph.delta("kern.zygote_clone"))
	hit, miss := ph.delta("ldl.linkcache_hit"), ph.delta("ldl.linkcache_miss")
	m["ldl.linkcache_hit_ratio"] = ratio(hit, hit+miss)
	m["ldl.linkcache_invalidate_per_kop"] = 1000 * ph.perOp(ph.delta("ldl.linkcache_invalidate"))
	m["addrspace.pages_mapped_per_op"] = ph.perOp(ph.delta("addrspace.pages_mapped"))
	guestMetrics(ph, m)
}

// guestMetrics are the vm and kern counts every workload that runs guest
// code reports.
func guestMetrics(ph *phase, m map[string]float64) {
	hit, build := ph.delta("vm.block_hit"), ph.delta("vm.block_build")
	m["vm.block_hit_ratio"] = ratio(hit, hit+build)
	m["vm.block_invalidate_per_op"] = ph.perOp(ph.delta("vm.block_invalidate"))
	m["vm.steps_per_op"] = ph.perOp(ph.delta("kern.steps") + ph.delta("kern.cpu_steps"))
	m["kern.syscalls_per_op"] = ph.perOp(ph.delta("kern.syscalls"))
}

// finish checks that no launched process outlived its op.
func (b *launchBench) finish() error {
	if n := len(b.sys.K.Processes()); n != 0 {
		return fmt.Errorf("%d processes still in the table", n)
	}
	return nil
}

func (b *launchBench) close() {}
