package hemlock_test

// The benchmark harness: one benchmark (or paired benchmarks) per
// quantitative artifact in the paper. Absolute numbers come from the
// simulated substrate, not 1992 hardware — EXPERIMENTS.md records the
// SHAPE comparisons (who wins, by what factor) next to the paper's claims.
//
//	Table 1    BenchmarkTable1_*            link+launch cost per sharing class
//	Figure 1   BenchmarkFigure1Pipeline     full cc -> lds -> ldl pipeline
//	Figure 2   BenchmarkScopedLinkDepth*    scoped resolution vs DAG depth
//	E-rwho     BenchmarkRwho*               65-host status DB: shared vs files
//	E-presto   BenchmarkPrestoCompile*      post-processor cost vs plain compile
//	E-lynx     BenchmarkLynxTables*         recompile-tables vs attach-segment
//	E-xfig     BenchmarkXfig*               ASCII save/load vs segment attach
//	E-lazy     BenchmarkLinking*            lazy vs eager over a module graph
//	E-ptr      BenchmarkPointerChase*       mapped vs fault-mapped traversal
//	E-tramp    BenchmarkCall*               near call vs trampolined far call
//	E-fs       BenchmarkShmfs*              linear vs indexed addr lookup, boot scan
//	E-alloc    BenchmarkSegmentAlloc        per-segment heap allocator
//	E-msg      BenchmarkIPC*                shared-memory vs message-passing handoff
//	serve      BenchmarkServe*              one daemon request, HTTP handler to reply

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hemlock"
	"hemlock/internal/addrspace"
	"hemlock/internal/baseline"
	"hemlock/internal/core"
	"hemlock/internal/fig"
	"hemlock/internal/kern"
	"hemlock/internal/mem"
	"hemlock/internal/netshm"
	"hemlock/internal/netsim"
	"hemlock/internal/presto"
	"hemlock/internal/rwho"
	"hemlock/internal/server"
	"hemlock/internal/shalloc"
	"hemlock/internal/shmfs"
	"hemlock/internal/svc"
	"hemlock/internal/symtab"
)

func mustAsmB(b *testing.B, s *hemlock.System, path, src string) {
	b.Helper()
	if _, err := s.Asm(path, src); err != nil {
		b.Fatal(err)
	}
}

func mustLink(b *testing.B, s *hemlock.System, opts *hemlock.LinkOptions) *hemlock.Image {
	b.Helper()
	res, err := s.Link(opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Image
}

func mustLaunch(b *testing.B, s *hemlock.System, im *hemlock.Image, env map[string]string) *hemlock.Program {
	b.Helper()
	pg, err := s.Launch(im, 0, env)
	if err != nil {
		b.Fatal(err)
	}
	return pg
}

// ---- Table 1: link + launch per sharing class -------------------------------------

func benchClassSetup(b *testing.B, class hemlock.Class) (*hemlock.System, *hemlock.LinkOptions) {
	s := hemlock.New()
	mustAsmB(b, s, "/lib/mod.o", counterModSrc)
	mustAsmB(b, s, "/bin/main.o", trivialMainSrc)
	opts := &hemlock.LinkOptions{
		Output: "a.out",
		Modules: []hemlock.Module{
			{Name: "main.o", Class: hemlock.StaticPrivate},
			{Name: "mod.o", Class: class},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	}
	return s, opts
}

// benchClass is the paper's Table 1 measurement: the full link+launch+run
// cost, every iteration cold. Stable linking is explicitly off — the warm
// path is measured separately by the *Repeat variants below.
func benchClass(b *testing.B, class hemlock.Class) {
	s, opts := benchClassSetup(b, class)
	s.SetStableLinking(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im := mustLink(b, s, opts)
		pg := mustLaunch(b, s, im, nil)
		if err := pg.Run(100000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClassRepeat is the stable-linking counterpart: link once, then
// measure steady-state repeat launches — every iteration CoW-clones the
// zygote template parked under the launch's content-hash key.
func benchClassRepeat(b *testing.B, class hemlock.Class) {
	s, opts := benchClassSetup(b, class)
	im := mustLink(b, s, opts)
	// One cold launch parks the template.
	pg := mustLaunch(b, s, im, nil)
	if err := pg.Run(100000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := mustLaunch(b, s, im, nil)
		if err := pg.Run(100000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_StaticPrivate(b *testing.B)  { benchClass(b, hemlock.StaticPrivate) }
func BenchmarkTable1_DynamicPrivate(b *testing.B) { benchClass(b, hemlock.DynamicPrivate) }
func BenchmarkTable1_StaticPublic(b *testing.B)   { benchClass(b, hemlock.StaticPublic) }
func BenchmarkTable1_DynamicPublic(b *testing.B)  { benchClass(b, hemlock.DynamicPublic) }

func BenchmarkTable1_StaticPrivateRepeat(b *testing.B)  { benchClassRepeat(b, hemlock.StaticPrivate) }
func BenchmarkTable1_DynamicPrivateRepeat(b *testing.B) { benchClassRepeat(b, hemlock.DynamicPrivate) }
func BenchmarkTable1_StaticPublicRepeat(b *testing.B)   { benchClassRepeat(b, hemlock.StaticPublic) }
func BenchmarkTable1_DynamicPublicRepeat(b *testing.B)  { benchClassRepeat(b, hemlock.DynamicPublic) }

// BenchmarkLaunchByPath is a launch the way a user makes one, by naming a
// saved executable: LoadExecutable, Launch, Run. It is the by-path twin of
// Table1_StaticPrivateRepeat, which launches the same program from an
// image already in memory. Every load after the first finds the decoded
// image cached, and every launch clones the parked zygote.
func BenchmarkLaunchByPath(b *testing.B) {
	s, opts := benchClassSetup(b, hemlock.StaticPrivate)
	if err := s.SaveExecutable("/bin/a.out", mustLink(b, s, opts)); err != nil {
		b.Fatal(err)
	}
	launch := func() {
		im, err := s.LoadExecutable("/bin/a.out")
		if err != nil {
			b.Fatal(err)
		}
		if err := mustLaunch(b, s, im, nil).Run(100000); err != nil {
			b.Fatal(err)
		}
	}
	launch() // parks the template
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launch()
	}
}

// ---- Figure 1: the whole build-and-share pipeline ---------------------------------

func BenchmarkFigure1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := hemlock.New()
		mustAsmB(b, s, "/project/shared1.o", counterModSrc)
		mustAsmB(b, s, "/project/prog1.o", incrementMainSrc)
		im := mustLink(b, s, &hemlock.LinkOptions{
			Output: "a.out",
			Modules: []hemlock.Module{
				{Name: "prog1.o", Class: hemlock.StaticPrivate},
				{Name: "shared1.o", Class: hemlock.DynamicPublic},
			},
			LinkDir: "/project",
		})
		pg := mustLaunch(b, s, im, nil)
		if err := pg.Run(100000); err != nil {
			b.Fatal(err)
		}
		if pg.P.ExitCode != 1 {
			b.Fatalf("exit = %d", pg.P.ExitCode)
		}
	}
}

// ---- Figure 2: scoped linking cost vs DAG depth ------------------------------------

// buildChain makes a chain of depth modules: chain0 -> chain1 -> ... Each
// module's data holds a pointer to the next module's value; the deepest
// exports the value itself. Each level has its own search directory so
// resolution walks the scope chain.
func buildChainSystem(b *testing.B, depth int) (*hemlock.System, *hemlock.Image) {
	s := hemlock.New()
	for i := 0; i < depth; i++ {
		dir := fmt.Sprintf("/lvl%d", i)
		var src string
		if i == depth-1 {
			src = fmt.Sprintf(".data\n.globl chainval%d\nchainval%d: .word %d\n", i, i, 1000+i)
		} else {
			src = fmt.Sprintf(`
        .dep    chain%d.o, dynamic-public
        .searchpath /lvl%d
        .data
        .globl  chainval%d
chainval%d: .word chainval%d
`, i+1, i+1, i, i, i+1)
		}
		mustAsmB(b, s, fmt.Sprintf("%s/chain%d.o", dir, i), src)
	}
	mustAsmB(b, s, "/bin/main.o", trivialMainSrc)
	im := mustLink(b, s, &hemlock.LinkOptions{
		Output: "a.out",
		Modules: []hemlock.Module{
			{Name: "main.o", Class: hemlock.StaticPrivate},
			{Name: "chain0.o", Class: hemlock.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lvl0"},
	})
	return s, im
}

func benchScopedDepth(b *testing.B, depth int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, im := buildChainSystem(b, depth)
		pg := mustLaunch(b, s, im, nil)
		v, err := pg.Var("chainval0")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// First touch lazily links the whole chain, one scope at a time.
		cur := v
		for d := 0; d < depth-1; d++ {
			next, err := cur.Follow(0)
			if err != nil {
				b.Fatal(err)
			}
			cur = next
		}
		got, err := cur.Load()
		if err != nil || got != uint32(1000+depth-1) {
			b.Fatalf("chain value = %d, %v", got, err)
		}
		b.StopTimer()
		pg.P.Exit(0)
		b.StartTimer()
	}
}

func BenchmarkScopedLinkDepth2(b *testing.B) { benchScopedDepth(b, 2) }
func BenchmarkScopedLinkDepth4(b *testing.B) { benchScopedDepth(b, 4) }
func BenchmarkScopedLinkDepth8(b *testing.B) { benchScopedDepth(b, 8) }

// ---- E-rwho: 65-host status database ------------------------------------------------

const rwhoHosts = 65

func rwhoSharedSetup(b *testing.B) *rwho.SharedDB {
	s := hemlock.New()
	im, err := rwho.Install(s, rwhoHosts)
	if err != nil {
		b.Fatal(err)
	}
	pg := mustLaunch(b, s, im, nil)
	db, err := rwho.Open(pg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rwhoHosts; i++ {
		if err := db.Update(rwho.SyntheticStatus(i, 1)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func rwhoFileSetup(b *testing.B) *rwho.FileDB {
	s := hemlock.New()
	db, err := rwho.NewFileDB(s.FS, "/var/rwho", 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rwhoHosts; i++ {
		if err := db.Update(rwho.SyntheticStatus(i, 1)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkRwhoQueryShared is one rwho invocation against the shared DB.
func BenchmarkRwhoQueryShared(b *testing.B) {
	db := rwhoSharedSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := db.Query()
		if err != nil || len(got) != rwhoHosts {
			b.Fatalf("%d records, %v", len(got), err)
		}
	}
}

// BenchmarkRwhoQueryFiles is one rwho invocation against per-host files.
func BenchmarkRwhoQueryFiles(b *testing.B) {
	db := rwhoFileSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := db.Query()
		if err != nil || len(got) != rwhoHosts {
			b.Fatalf("%d records, %v", len(got), err)
		}
	}
}

// BenchmarkRwhoUpdateShared is rwhod handling one status packet (shared).
func BenchmarkRwhoUpdateShared(b *testing.B) {
	db := rwhoSharedSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(rwho.SyntheticStatus(i%rwhoHosts, uint32(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRwhoUpdateFiles is rwhod handling one packet (file rewrite).
func BenchmarkRwhoUpdateFiles(b *testing.B) {
	db := rwhoFileSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Update(rwho.SyntheticStatus(i%rwhoHosts, uint32(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E-fleet: one rwhod round across a fleet of machines ----------------------------
//
// The three ways the status database crosses machine boundaries, each
// measured as one full propagation round on an 8-machine LAN: per-host
// spool files rewritten per packet (the original rwhod), raw broadcast
// into per-machine shared tables (PR-seed Machine fleet), and one
// netshm-replicated shared segment (the whod table as a genuinely
// distributed public module).

const fleetHosts = 8

// BenchmarkRwhoFiles: every machine broadcasts, every machine drains each
// packet into its spool directory — 8x8 file rewrites per round.
func BenchmarkRwhoFiles(b *testing.B) {
	net := netsim.New()
	ms := make([]*rwho.FileMachine, fleetHosts)
	for i := range ms {
		m, err := rwho.NewFileMachine(net, fmt.Sprintf("machine%02d", i), i)
		if err != nil {
			b.Fatal(err)
		}
		ms[i] = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			if err := m.Tick(uint32(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
		for _, m := range ms {
			if _, err := m.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRwhoBroadcast: every machine broadcasts, every machine folds
// packets into its own mapped table — in-place stores, but N private
// copies of the database.
func BenchmarkRwhoBroadcast(b *testing.B) {
	net := netsim.New()
	ms := make([]*rwho.Machine, fleetHosts)
	for i := range ms {
		m, err := rwho.NewMachine(net, fmt.Sprintf("machine%02d", i), i, fleetHosts)
		if err != nil {
			b.Fatal(err)
		}
		ms[i] = m
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			if err := m.Tick(uint32(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
		for _, m := range ms {
			if _, err := m.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRwhoNetShm: statuses flow to the segment's home, which stores
// them once; netshm pushes the dirtied pages to every replica.
func BenchmarkRwhoNetShm(b *testing.B) {
	f, err := rwho.NewNetFleet(netsim.New(), fleetHosts, fleetHosts)
	if err != nil {
		b.Fatal(err)
	}
	totalTicks := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticks, err := f.Round(uint32(i+1), 400)
		if err != nil {
			b.Fatal(err)
		}
		totalTicks += ticks
	}
	b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/round")
}

// BenchmarkNetShmPropagation: one page write converging across 8
// machines at increasing loss rates — the cost of the retry and
// anti-entropy machinery is the growth in virtual-clock ticks.
func BenchmarkNetShmPropagation(b *testing.B) {
	for _, lossPct := range []int{0, 10, 20, 30} {
		b.Run(fmt.Sprintf("loss=%d", lossPct), func(b *testing.B) {
			net := netsim.New()
			mod := uint64(lossPct)
			net.Drop = func(from, to string, seq uint64) bool {
				return mod > 0 && seq%10 < mod/10
			}
			f := netshm.NewFleet(net, netshm.Config{})
			for i := 0; i < fleetHosts; i++ {
				f.Add(fmt.Sprintf("m%d", i), hemlock.New())
			}
			home := f.Node("m0")
			if err := home.Publish("/lib/seg", make([]byte, 3*mem.PageSize)); err != nil {
				b.Fatal(err)
			}
			if _, ok := f.WaitConverged("/lib/seg", 400); !ok {
				b.Fatal("publish did not converge")
			}
			totalTicks := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := home.Write("/lib/seg", uint32(i%3)*mem.PageSize, []byte{byte(i)}); err != nil {
					b.Fatal(err)
				}
				ticks, ok := f.WaitConverged("/lib/seg", 400)
				if !ok {
					b.Fatal("write did not converge")
				}
				totalTicks += ticks
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/write")
		})
	}
}

// BenchmarkNetShmScale: the fleet-scaling curve. One small (64-byte)
// write converging across 8 → 1024 machines at a fixed 20% loss rate;
// ticks/write is the propagation latency in virtual time, bytes/write the
// total wire traffic per converged write (delta encoding keeps it from
// scaling with page size; it still scales with fleet order).
func BenchmarkNetShmScale(b *testing.B) {
	for _, hosts := range []int{8, 64, 512, 1024} {
		b.Run(fmt.Sprintf("fleet=%d", hosts), func(b *testing.B) {
			net := netsim.New()
			net.Drop = func(from, to string, seq uint64) bool { return seq%10 < 2 }
			f := netshm.NewFleet(net, netshm.Config{})
			for i := 0; i < hosts; i++ {
				f.Add(fmt.Sprintf("m%04d", i), core.NewSystemLite())
			}
			home := f.Node("m0000")
			if err := home.Publish("/lib/seg", make([]byte, 3*mem.PageSize)); err != nil {
				b.Fatal(err)
			}
			if _, ok := f.WaitConverged("/lib/seg", 4000); !ok {
				b.Fatal("publish did not converge")
			}
			data := make([]byte, 64)
			totalTicks := 0
			startBytes := net.Stats().BytesSent
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				if err := home.Write("/lib/seg", uint32(i%3)*mem.PageSize, data); err != nil {
					b.Fatal(err)
				}
				ticks, ok := f.WaitConverged("/lib/seg", 4000)
				if !ok {
					b.Fatal("write did not converge")
				}
				totalTicks += ticks
			}
			b.StopTimer()
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/write")
			b.ReportMetric(float64(net.Stats().BytesSent-startBytes)/float64(b.N), "bytes/write")
		})
	}
}

// BenchmarkNetShmDeltaBytes: wire bytes per converged small write with
// dirty-byte delta encoding on versus the full-page protocol. The
// benchcheck gate holds delta mode to ≤25% of full-page bytes — the
// efficiency the fleet-scale protocol depends on.
func BenchmarkNetShmDeltaBytes(b *testing.B) {
	for _, mode := range []string{"full", "delta"} {
		b.Run("mode="+mode, func(b *testing.B) {
			net := netsim.New()
			f := netshm.NewFleet(net, netshm.Config{FullPage: mode == "full"})
			for i := 0; i < fleetHosts; i++ {
				f.Add(fmt.Sprintf("m%d", i), core.NewSystemLite())
			}
			home := f.Node("m0")
			if err := home.Publish("/lib/seg", make([]byte, 3*mem.PageSize)); err != nil {
				b.Fatal(err)
			}
			if _, ok := f.WaitConverged("/lib/seg", 400); !ok {
				b.Fatal("publish did not converge")
			}
			data := make([]byte, 8)
			startBytes := net.Stats().BytesSent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				off := uint32(i%3)*mem.PageSize + uint32(i%317)
				if err := home.Write("/lib/seg", off, data); err != nil {
					b.Fatal(err)
				}
				if _, ok := f.WaitConverged("/lib/seg", 400); !ok {
					b.Fatal("write did not converge")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(net.Stats().BytesSent-startBytes)/float64(b.N), "bytes/write")
		})
	}
}

// ---- E-presto: post-processor cost --------------------------------------------------

// prestoSource synthesises a worker source with many shared and private
// variables, large enough that compile time is measurable.
func prestoSource(vars int) (src string, shared []string) {
	var sb []byte
	sb = append(sb, []byte("        .text\n        .globl main\nmain:   jr $ra\n        .data\n")...)
	for i := 0; i < vars; i++ {
		name := fmt.Sprintf("shvar%d", i)
		shared = append(shared, name)
		sb = append(sb, []byte(fmt.Sprintf("%s:\n        .word %d, %d, %d\n", name, i, i*2, i*3))...)
		sb = append(sb, []byte(fmt.Sprintf("priv%d:\n        .space 16\n", i))...)
	}
	return string(sb), shared
}

// BenchmarkPrestoCompilePlain: compile (assemble) the unified source: the
// Hemlock path, where shared variables just live in a separate module.
func BenchmarkPrestoCompilePlain(b *testing.B) {
	src, _ := prestoSource(200)
	s := hemlock.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Asm("/bin/w.o", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrestoCompileWithPostProcessor: the baseline — run the assembly
// post-processor, then assemble both halves.
func BenchmarkPrestoCompileWithPostProcessor(b *testing.B) {
	src, shared := prestoSource(200)
	s := hemlock.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, shd, err := presto.PostProcess(src, shared)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Asm("/bin/w.o", prog); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Asm("/bin/wsh.o", shd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrestoSetupHemlock: the parent's whole Hemlock set-up dance —
// temp dir, symlink, env var — plus first-worker segment creation.
func BenchmarkPrestoSetupHemlock(b *testing.B) {
	s := hemlock.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := presto.Setup(s, fmt.Sprintf("bench%d", i), 4)
		if err != nil {
			b.Fatal(err)
		}
		w, err := app.StartWorker(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Add(1); err != nil {
			b.Fatal(err)
		}
		w.Program.P.Exit(0)
		if err := app.Cleanup(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E-smp: parallel speed-up on guest CPUs ------------------------------------------

// prestoParallelSrc is the compute kernel each parallel worker runs: burn
// a fixed loop, then fold one atomic increment into the shared counter
// segment (first touch lazily links the public module, exactly as the
// paper's parallel application would on its first shared-variable access).
const prestoParallelSrc = `
        .text
        .globl  main
main:   li      $t0, 150000
wloop:  addiu   $t0, $t0, -1
        bnez    $t0, wloop
        la      $a0, presto_counters
        li      $a1, 1
        li      $v0, 25         # atomic_add(&presto_counters[0], 1)
        syscall
        li      $v0, 0
        jr      $ra
`

// benchPrestoParallel measures one "parallel make": four warm-launched
// workers, each a CPU-bound guest, driven to completion by a scheduler
// with the given number of host CPUs. The 4-CPU/1-CPU ratio is the SMP
// speed-up benchcheck.sh gates (4 CPUs must be at least 2x 1 CPU).
func benchPrestoParallel(b *testing.B, cpus int) {
	s := hemlock.New()
	app, err := presto.SetupCompute(s, fmt.Sprintf("par%d", cpus), 4, prestoParallelSrc)
	if err != nil {
		b.Fatal(err)
	}
	sch := kern.NewScheduler(s.K, kern.SchedConfig{CPUs: cpus})
	defer sch.Stop()
	runOnce := func() {
		ps := make([]*kern.Process, 0, 4)
		for w := 0; w < 4; w++ {
			wk, err := app.StartWorker(w)
			if err != nil {
				b.Fatal(err)
			}
			ps = append(ps, wk.Program.P)
		}
		if err := sch.RunAll(ps, 20_000_000); err != nil {
			b.Fatal(err)
		}
		for _, p := range ps {
			if !p.Exited || p.ExitCode != 0 {
				b.Fatalf("worker pid %d: exited=%v code=%d", p.PID, p.Exited, p.ExitCode)
			}
		}
	}
	runOnce() // warm-up: cold link + zygote park happen off the clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
}

func BenchmarkPrestoParallel1CPU(b *testing.B) { benchPrestoParallel(b, 1) }
func BenchmarkPrestoParallel4CPU(b *testing.B) { benchPrestoParallel(b, 4) }

// ---- E-lynx: compiler tables across passes -------------------------------------------

const (
	lynxStates = 120
	lynxSyms   = 48
)

// BenchmarkLynxTablesRecompile: per compiler build, the baseline
// regenerates the C source and "compiles" (parses) it back.
func BenchmarkLynxTablesRecompile(b *testing.B) {
	tbl := symtab.Generate(lynxStates, lynxSyms, 7)
	stream := tbl.Stream(256, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := symtab.GenerateCSource(tbl)
		got, err := symtab.CompileCSource(src)
		if err != nil {
			b.Fatal(err)
		}
		got.Run(stream)
	}
}

// BenchmarkLynxTablesShared: per compiler run, the Hemlock path just
// attaches to the persistent segment the utility wrote once.
func BenchmarkLynxTablesShared(b *testing.B) {
	tbl := symtab.Generate(lynxStates, lynxSyms, 7)
	stream := tbl.Stream(256, 3)
	as := addrspace.New(mem.NewPhysical(0))
	base := uint32(0x30200000)
	if err := as.MapAnon(base, 1<<20, addrspace.ProtRW); err != nil {
		b.Fatal(err)
	}
	if _, err := symtab.WriteSegment(as, base, 1<<20, tbl); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := symtab.AttachSegment(as, base)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Run(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E-xfig: figure save/load -------------------------------------------------------

const xfigShapes = 400

// BenchmarkXfigSaveLoadASCII: translate to ASCII, write, read, parse.
func BenchmarkXfigSaveLoadASCII(b *testing.B) {
	s := hemlock.New()
	s.FS.MkdirAll("/figs", shmfs.DefaultDirMode, 0)
	shapes := make([]fig.Shape, xfigShapes)
	for i := range shapes {
		shapes[i] = fig.SyntheticShape(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fig.SaveASCII(s.FS, "/figs/bench.fig", shapes, 0); err != nil {
			b.Fatal(err)
		}
		got, err := fig.LoadASCII(s.FS, "/figs/bench.fig", 0)
		if err != nil || len(got) != xfigShapes {
			b.Fatalf("%d shapes, %v", len(got), err)
		}
	}
}

// BenchmarkXfigSegmentReopen: the Hemlock path — "save" is free; reopening
// a figure is attach + walk.
func BenchmarkXfigSegmentReopen(b *testing.B) {
	as := addrspace.New(mem.NewPhysical(0))
	base := uint32(0x30300000)
	if err := as.MapAnon(base, 1<<20, addrspace.ProtRW); err != nil {
		b.Fatal(err)
	}
	f, err := fig.Create(as, base, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < xfigShapes; i++ {
		if err := f.Add(fig.SyntheticShape(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := fig.Attach(as, base)
		if err != nil {
			b.Fatal(err)
		}
		got, err := g.Shapes()
		if err != nil || len(got) != xfigShapes {
			b.Fatalf("%d shapes, %v", len(got), err)
		}
	}
}

// BenchmarkXfigDuplicate: the in-editor copy that shares code with the
// segment representation.
func BenchmarkXfigDuplicate(b *testing.B) {
	as := addrspace.New(mem.NewPhysical(0))
	base := uint32(0x30300000)
	as.MapAnon(base, 8<<20, addrspace.ProtRW)
	f, err := fig.Create(as, base, 8<<20)
	if err != nil {
		b.Fatal(err)
	}
	f.Add(fig.SyntheticShape(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Duplicate(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := f.Remove(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// ---- E-lazy: lazy vs eager linking over a module graph --------------------------------

const graphModules = 24

// buildGraphSystem creates graphModules independent dynamic public
// modules, each with one undefined reference satisfied by a companion on
// its own module list (so every module needs a link step).
func buildGraphSystem(b *testing.B) (*hemlock.System, *hemlock.Image) {
	s := hemlock.New()
	var inputs []hemlock.Module
	for i := 0; i < graphModules; i++ {
		mustAsmB(b, s, fmt.Sprintf("/lib/leaf%d.o", i),
			fmt.Sprintf(".data\n.globl leafval%d\nleafval%d: .word %d\n", i, i, i))
		mustAsmB(b, s, fmt.Sprintf("/lib/g%d.o", i), fmt.Sprintf(`
        .dep    leaf%d.o, dynamic-public
        .searchpath /lib
        .data
        .globl  gptr%d
gptr%d: .word leafval%d
`, i, i, i, i))
		inputs = append(inputs, hemlock.Module{Name: fmt.Sprintf("g%d.o", i), Class: hemlock.DynamicPublic})
	}
	mustAsmB(b, s, "/bin/main.o", trivialMainSrc)
	im := mustLink(b, s, &hemlock.LinkOptions{
		Output:      "a.out",
		Modules:     append([]hemlock.Module{{Name: "main.o", Class: hemlock.StaticPrivate}}, inputs...),
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	return s, im
}

// touchModules dereferences the first `use` modules, forcing their links.
func touchModules(b *testing.B, pg *hemlock.Program, use int) {
	for i := 0; i < use; i++ {
		v, err := pg.Var(fmt.Sprintf("gptr%d", i))
		if err != nil {
			b.Fatal(err)
		}
		ptr, err := v.Load()
		if err != nil {
			b.Fatal(err)
		}
		leaf := pg.VarAt("", ptr)
		if got, _ := leaf.Load(); got != uint32(i) {
			b.Fatalf("leaf %d = %d", i, got)
		}
	}
}

func benchLinking(b *testing.B, use int) {
	s, im := buildGraphSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Cold start: discard kernel-resident link state so every
		// iteration pays the real linking cost for what it touches.
		s.ResetWorld()
		b.StartTimer()
		pg := mustLaunch(b, s, im, nil)
		touchModules(b, pg, use)
		b.StopTimer()
		pg.P.Exit(0)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(use), "modules-linked/op")
}

// BenchmarkLinkingLazyUse1: launch + touch 1 of 24 modules. Lazy linking
// pays only for what is used.
func BenchmarkLinkingLazyUse1(b *testing.B) { benchLinking(b, 1) }

// BenchmarkLinkingLazyUse6: launch + touch 6 of 24.
func BenchmarkLinkingLazyUse6(b *testing.B) { benchLinking(b, 6) }

// BenchmarkLinkingEagerAll: launch + touch all 24: what an eager,
// resolve-at-load linker pays on every start regardless of use.
func BenchmarkLinkingEagerAll(b *testing.B) { benchLinking(b, graphModules) }

// ---- E-ptr: pointer chase into unmapped segments ---------------------------------------

const chaseSegments = 12

// buildChaseSystem creates a linked list spanning chaseSegments raw shared
// files and returns the head's address.
func buildChaseSystem(b *testing.B) (*hemlock.System, *hemlock.Image, uint32) {
	s := hemlock.New()
	s.FS.MkdirAll("/chase", shmfs.DefaultDirMode, 0)
	addrs := make([]uint32, chaseSegments)
	for i := 0; i < chaseSegments; i++ {
		p := fmt.Sprintf("/chase/node%d", i)
		if _, err := s.FS.Create(p, shmfs.DefaultFileMode, 0); err != nil {
			b.Fatal(err)
		}
		addrs[i], _ = s.FS.PathToAddr(p)
	}
	for i := 0; i < chaseSegments; i++ {
		next := uint32(0)
		if i+1 < chaseSegments {
			next = addrs[i+1]
		}
		buf := []byte{
			byte(next >> 24), byte(next >> 16), byte(next >> 8), byte(next),
			0, 0, 0, byte(i),
		}
		p := fmt.Sprintf("/chase/node%d", i)
		if _, err := s.FS.WriteAt(p, 0, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	mustAsmB(b, s, "/bin/main.o", trivialMainSrc)
	im := mustLink(b, s, &hemlock.LinkOptions{
		Output:  "a.out",
		Modules: []hemlock.Module{{Name: "main.o", Class: hemlock.StaticPrivate}},
		LinkDir: "/bin",
	})
	return s, im, addrs[0]
}

func chase(b *testing.B, pg *hemlock.Program, head uint32) {
	cur := pg.VarAt("head", head)
	sum := uint32(0)
	for {
		v, err := cur.LoadAt(4)
		if err != nil {
			b.Fatal(err)
		}
		sum += v
		next, err := cur.Load()
		if err != nil {
			b.Fatal(err)
		}
		if next == 0 {
			break
		}
		cur = pg.VarAt("", next)
	}
	if sum != chaseSegments*(chaseSegments-1)/2 {
		b.Fatalf("sum = %d", sum)
	}
}

// BenchmarkPointerChaseFaultMap: a fresh process follows the list; every
// segment is mapped by the fault handler on first dereference.
func BenchmarkPointerChaseFaultMap(b *testing.B) {
	s, im, head := buildChaseSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := mustLaunch(b, s, im, nil)
		chase(b, pg, head)
		b.StopTimer()
		pg.P.Exit(0)
		b.StartTimer()
	}
}

// BenchmarkPointerChaseMapped: the same traversal once all segments are
// already mapped (the steady state).
func BenchmarkPointerChaseMapped(b *testing.B) {
	s, im, head := buildChaseSystem(b)
	pg := mustLaunch(b, s, im, nil)
	chase(b, pg, head) // warm: map everything
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chase(b, pg, head)
	}
}

// ---- E-tramp: trampoline overhead on calls -----------------------------------------------

// callLoopImage builds a program whose main calls `target` 1000 times.
// With a near target the calls are direct JALs; with a far (shared-region)
// target every call goes through a linker trampoline; with jump tables the
// call goes through a PLT stub patched on first use.
func callLoopImage(b *testing.B, far bool, jumpTables bool) (*hemlock.System, *hemlock.Image) {
	s := hemlock.New()
	fn := `
        .text
        .globl  bench_fn
bench_fn:
        jr      $ra
`
	class := hemlock.StaticPrivate
	if far {
		class = hemlock.DynamicPublic
	}
	mustAsmB(b, s, "/lib/fn.o", fn)
	mustAsmB(b, s, "/bin/main.o", `
        .text
        .globl  main
        .extern bench_fn
main:   li      $t0, 1000
        move    $s1, $ra
loop:   jal     bench_fn
        addiu   $t0, $t0, -1
        bgtz    $t0, loop
        move    $ra, $s1
        li      $v0, 0
        jr      $ra
`)
	im := mustLink(b, s, &hemlock.LinkOptions{
		Output: "a.out",
		Modules: []hemlock.Module{
			{Name: "main.o", Class: hemlock.StaticPrivate},
			{Name: "fn.o", Class: class},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
		JumpTables:  jumpTables,
	})
	return s, im
}

// benchCalls launches the call-loop program once and calls main once to
// warm it, outside the timer. Each op then runs main through
// Kernel.CallFunction, the serve daemon's call path, and checks that it
// returned 0.
func benchCalls(b *testing.B, far bool, jumpTables bool) {
	s, im := callLoopImage(b, far, jumpTables)
	pg := mustLaunch(b, s, im, nil)
	main, ok := im.Lookup("main")
	if !ok {
		b.Fatal("no main in the call-loop image")
	}
	call := func() uint64 {
		ret, steps, err := s.K.CallFunction(pg.P, main, [4]uint32{}, 10_000_000)
		if err != nil || ret != 0 {
			b.Fatalf("main returned %d, %v", ret, err)
		}
		return steps
	}
	call()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		steps = call()
	}
	b.ReportMetric(float64(steps)/1000.0, "instrs/call")
}

// BenchmarkCallNear: 1000 direct calls within the private text region,
// one op per run of main in an already launched process.
func BenchmarkCallNear(b *testing.B) { benchCalls(b, false, false) }

// BenchmarkCallFarTrampoline: 1000 calls into a shared-segment function,
// each routed through the linker's trampoline fragment (resolved eagerly
// at start-up), one op per run of main in an already launched process.
func BenchmarkCallFarTrampoline(b *testing.B) { benchCalls(b, true, false) }

// BenchmarkCallFarPLT: the SunOS-style jump-table ablation — 1000 calls
// through a PLT stub that the untimed first run of main patched.
// BenchmarkStartupJumpTables times the first-call trap.
func BenchmarkCallFarPLT(b *testing.B) { benchCalls(b, true, true) }

// ---- E-plt: start-up cost of eager vs jump-table call resolution --------------------------

// startupImage links a main with nCalls calls to distinct functions in one
// shared module.
func startupImage(b *testing.B, jumpTables bool, nCalls int) (*hemlock.System, *hemlock.Image) {
	s := hemlock.New()
	var lib, main string
	lib = "        .text\n"
	main = "        .text\n        .globl main\nmain:\n"
	for i := 0; i < nCalls; i++ {
		lib += fmt.Sprintf("        .globl fn%d\nfn%d: jr $ra\n", i, i)
		main += fmt.Sprintf("        .extern fn%d\n", i)
		// Reference each function once; the program returns before
		// actually calling any of them, so start-up cost is what differs.
		main += fmt.Sprintf("        b skip%d\n        jal fn%d\nskip%d:\n", i, i, i)
	}
	main += "        li $v0, 0\n        jr $ra\n"
	mustAsmB(b, s, "/lib/fns.o", lib)
	mustAsmB(b, s, "/bin/main.o", main)
	im := mustLink(b, s, &hemlock.LinkOptions{
		Output: "a.out",
		Modules: []hemlock.Module{
			{Name: "main.o", Class: hemlock.StaticPrivate},
			{Name: "fns.o", Class: hemlock.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
		JumpTables:  jumpTables,
	})
	return s, im
}

func benchStartup(b *testing.B, jumpTables bool) {
	s, im := startupImage(b, jumpTables, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := mustLaunch(b, s, im, nil)
		if err := pg.Run(100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartupEagerCalls: 50 never-executed calls resolved at launch.
func BenchmarkStartupEagerCalls(b *testing.B) { benchStartup(b, false) }

// BenchmarkStartupJumpTables: the same 50 calls deferred behind stubs;
// launch resolves none of them.
func BenchmarkStartupJumpTables(b *testing.B) { benchStartup(b, true) }

// ---- E-fs: address lookup and boot scan ----------------------------------------------

func fullFS(b *testing.B) *shmfs.FS {
	fs, err := shmfs.New(mem.NewPhysical(0))
	if err != nil {
		b.Fatal(err)
	}
	fs.MkdirAll("/lib", shmfs.DefaultDirMode, 0)
	for i := 0; i < shmfs.NumInodes-2; i++ {
		if _, err := fs.Create(fmt.Sprintf("/lib/f%04d", i), shmfs.DefaultFileMode, 0); err != nil {
			b.Fatal(err)
		}
	}
	return fs
}

// BenchmarkShmfsAddrToPathLinear: the paper's linear lookup table, worst
// case (last file), with the file system nearly full.
func BenchmarkShmfsAddrToPathLinear(b *testing.B) {
	benchLookup(b, shmfs.LookupLinear)
}

// BenchmarkShmfsAddrToPathIndexed: ablation 1 — direct slot indexing
// (available only while the 32-bit layout keeps slots dense).
func BenchmarkShmfsAddrToPathIndexed(b *testing.B) {
	benchLookup(b, shmfs.LookupIndexed)
}

// BenchmarkShmfsAddrToPathBTree: ablation 2 — the address-keyed B-tree the
// paper plans for 64-bit machines.
func BenchmarkShmfsAddrToPathBTree(b *testing.B) {
	benchLookup(b, shmfs.LookupBTree)
}

func benchLookup(b *testing.B, mode shmfs.LookupMode) {
	fs := fullFS(b)
	fs.Lookup = mode
	addr := shmfs.AddrOf(shmfs.NumInodes-2) + 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fs.AddrToPath(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShmfsBootScan: rebuilding the table by scanning the entire file
// system, as the kernel does at boot.
func BenchmarkShmfsBootScan(b *testing.B) {
	fs := fullFS(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.ClearTable()
		if n := fs.BootScan(); n != shmfs.NumInodes-2 {
			b.Fatalf("scan found %d", n)
		}
	}
}

// ---- E-alloc: per-segment heap allocator ------------------------------------------------

func BenchmarkSegmentAlloc(b *testing.B) {
	as := addrspace.New(mem.NewPhysical(0))
	base := uint32(0x30400000)
	as.MapAnon(base, 1<<20, addrspace.ProtRW)
	h, err := shalloc.Init(as, base, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := h.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E-msg: shared memory vs message passing handoff -------------------------------------

// BenchmarkIPCSharedMemory: producer stores a record into a shared
// segment; consumer loads it. No translation, no copies.
func BenchmarkIPCSharedMemory(b *testing.B) {
	s := hemlock.New()
	mustAsmB(b, s, "/lib/box.o", ".data\n.globl box\nbox: .space 64\n")
	mustAsmB(b, s, "/bin/main.o", trivialMainSrc)
	im := mustLink(b, s, &hemlock.LinkOptions{
		Output: "a.out",
		Modules: []hemlock.Module{
			{Name: "main.o", Class: hemlock.StaticPrivate},
			{Name: "box.o", Class: hemlock.DynamicPublic},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	prod := mustLaunch(b, s, im, nil)
	cons := mustLaunch(b, s, im, nil)
	pv, err := prod.Var("box")
	if err != nil {
		b.Fatal(err)
	}
	cv, err := cons.Var("box")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		if err := pv.WriteBytes(0, payload); err != nil {
			b.Fatal(err)
		}
		got, err := cv.ReadBytes(0, 64)
		if err != nil || got[0] != byte(i) {
			b.Fatal("handoff failed")
		}
	}
}

// BenchmarkIPCMessagePassing: the same 64-byte record linearised into a
// message, copied into and out of a kernel pipe, and decoded.
func BenchmarkIPCMessagePassing(b *testing.B) {
	pipe := newBenchPipe()
	st := rwho.SyntheticStatus(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.RecvTime = uint32(i)
		pipe.send(st)
		got := pipe.recv()
		if got.RecvTime != uint32(i) {
			b.Fatal("handoff failed")
		}
	}
}

// benchPipe marshals a Status over a baseline.Pipe.
type benchPipe struct {
	p *pipeShim
}

type pipeShim struct{ ch chan []byte }

func newBenchPipe() *benchPipe {
	return &benchPipe{p: &pipeShim{ch: make(chan []byte, 1)}}
}

func (bp *benchPipe) send(st rwho.Status) {
	msg := encodeStatus(st)
	cp := make([]byte, len(msg))
	copy(cp, msg)
	bp.p.ch <- cp
}

func (bp *benchPipe) recv() rwho.Status {
	m := <-bp.p.ch
	out := make([]byte, len(m))
	copy(out, m)
	return decodeStatus(out)
}

func encodeStatus(st rwho.Status) []byte {
	return []byte(fmt.Sprintf("%s %d %d %d %d %d %d",
		st.Host, st.RecvTime, st.BootTime, st.Load[0], st.Load[1], st.Load[2], st.NUsers))
}

func decodeStatus(b []byte) rwho.Status {
	var st rwho.Status
	fmt.Sscanf(string(b), "%s %d %d %d %d %d %d",
		&st.Host, &st.RecvTime, &st.BootTime, &st.Load[0], &st.Load[1], &st.Load[2], &st.NUsers)
	return st
}

// ---- E-rpc: the three client/server interaction styles -----------------------------------

func kvSetup(b *testing.B) (*kern.Kernel, *svc.Table) {
	k := kern.New()
	if err := svc.EnsureSegment(k.FS, "/srv/kv"); err != nil {
		b.Fatal(err)
	}
	server := k.Spawn(0)
	tab, err := svc.CreateTable(k, server, "/srv/kv", 256)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		if err := tab.Put(i, i*3); err != nil {
			b.Fatal(err)
		}
	}
	return k, tab
}

// BenchmarkKVDirectShared: the Hemlock way — the client operates on the
// server's data structure directly, under a user-space spin lock. No
// kernel boundary is crossed at all.
func BenchmarkKVDirectShared(b *testing.B) {
	k, _ := kvSetup(b)
	client := k.Spawn(0)
	tab, err := svc.OpenTable(k, client, "/srv/kv")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint32(i % 100)
		v, err := tab.Get(key)
		if err != nil || v != key*3 {
			b.Fatalf("get: %d, %v", v, err)
		}
	}
}

// BenchmarkKVPDCall: synchronous service via the protection-domain-switch
// call, request record in shared memory.
func BenchmarkKVPDCall(b *testing.B) {
	k, tab := kvSetup(b)
	if err := svc.EnsureSegment(k.FS, "/srv/req"); err != nil {
		b.Fatal(err)
	}
	id, err := svc.StartPDServer(k, tab, "/srv/req")
	if err != nil {
		b.Fatal(err)
	}
	client := k.Spawn(0)
	c, err := svc.NewPDClient(k, client, id, "/srv/req", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint32(i % 100)
		v, err := c.Get(key)
		if err != nil || v != key*3 {
			b.Fatalf("get: %d, %v", v, err)
		}
	}
}

// BenchmarkKVMessageRPC: the baseline — every request and reply is
// linearised, copied into a pipe, copied out, and parsed.
func BenchmarkKVMessageRPC(b *testing.B) {
	table := map[uint32]uint32{}
	for i := uint32(0); i < 100; i++ {
		table[i] = i * 3
	}
	rpc := baseline.NewRPC()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			rpc.Serve(func(req []byte) []byte {
				var key uint32
				fmt.Sscanf(string(req), "get %d", &key)
				return []byte(fmt.Sprintf("val %d", table[key]))
			})
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint32(i % 100)
		rep := rpc.Call([]byte(fmt.Sprintf("get %d", key)))
		var v uint32
		fmt.Sscanf(string(rep), "val %d", &v)
		if v != key*3 {
			b.Fatalf("rpc get %d = %d", key, v)
		}
	}
	<-done
}

// ---- serve: one daemon request, from HTTP handler to reply -------------------------

// BenchmarkServeCall sends one kv_get through the serve daemon's HTTP
// handler, in-process: decode the body, take the world lock, call the
// function, append the reply.
func BenchmarkServeCall(b *testing.B) {
	benchServe(b, "/api/call", `{"program":"agent","fn":"kv_get","args":[7]}`)
}

// BenchmarkServeLaunch sends one run-to-completion launch of the demo
// image through the same handler: load the image, clone its zygote, run
// main to exit, and release the unnamed program.
func BenchmarkServeLaunch(b *testing.B) {
	benchServe(b, "/api/launch", `{"exe":"`+server.DemoExe+`","run":true}`)
}

// benchServe posts body to path on a daemon with the demo agent resident.
// The writer and the request are reused, so what it allocates is the
// daemon's own.
func benchServe(b *testing.B, path, body string) {
	sys := core.NewSystem()
	if _, err := server.InstallDemo(sys); err != nil {
		b.Fatal(err)
	}
	s := server.New(sys, server.Config{})
	defer s.Close()
	if _, err := s.Launch(&server.LaunchRequest{Name: "agent", Exe: server.DemoExe}, 0); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	data := []byte(body)
	w := &benchWriter{hdr: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	var rd benchBody
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		req.Body = &rd
		w.code, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, w.code, w.body)
		}
	}
}

// benchWriter is an http.ResponseWriter that keeps its header map and
// body buffer across requests.
type benchWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *benchWriter) Header() http.Header { return w.hdr }
func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }
