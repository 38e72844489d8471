package harness

import (
	"fmt"
	"math/rand"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/vm"
)

// The cold-vs-zygote differential mode of the link/load explorer: one
// seeded launch schedule is replayed against two machines that differ only
// in whether stable linking is on —
//
//	cold    every launch links from scratch, reading every template afresh
//	zygote  repeat launches CoW-clone the parked template
//
// Every round launches the executable by path. The zygote machine loads it
// through core.System.LoadExecutable, whose decoded-image cache must hand
// back the image it already holds; the cold machine reads and decodes the
// file's bytes afresh. After every launch the two processes must agree on
// the whole-memory vm.StateHash of the freshly linked address space, on
// every symbol's address (same-VA across machines, not just across
// processes), and — after running — on the exit code and on ldl.World
// Stats. The player calls into ext.o, a dynamic-private module with an
// external reference, which every launch (clones too) links lazily during
// the run. Between launches the schedule may
//
//	rewrite   rewrite the val.o template in place
//	recreate  unlink val.o and re-create it at the same path and size,
//	          which reuses its inode number
//	resave    save the executable again, byte for byte
//	drop      drop every zygote on the zygote machine, whose next launch
//	          then links cold in a world already warmed, and parks again
//
// A changed template must drop the zygote and converge with the cold
// machine on the next launch; a re-saved executable must miss the
// decoded-image cache and still clone. Per machine, PLT resolution counts
// stay monotone and ImageRelocsLeft stays non-negative.

const ldiffPlayerSrc = `
        .text
        .globl  main
        .extern svc_add
        .extern val_v
        .extern pub_n
main:   addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        li      $a0, 30
        li      $a1, 5
        jal     svc_add
        jal     svc_add
        move    $t5, $v0
        jal     ext_val
        addu    $t5, $t5, $v0
        la      $t0, val_v
        lw      $t6, 0($t0)
        la      $t0, pub_n
        lw      $t1, 0($t0)
        addiu   $t1, $t1, 1
        sw      $t1, 0($t0)
        addu    $v0, $t5, $t6
        addu    $v0, $v0, $t1
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
`

const ldiffSvcSrc = `
        .text
        .globl  svc_add
svc_add:
        addu    $v0, $a0, $a1
        jr      $ra
`

// ldiffExtSrc returns svc_add(0, val_v): a dynamic-private module whose
// text the lazy link must patch, with a data reference into val.o and a
// call into svc.o that needs a trampoline.
const ldiffExtSrc = `
        .text
        .globl  ext_val
        .extern val_v
        .extern svc_add
ext_val:
        addiu   $sp, $sp, -8
        sw      $ra, 0($sp)
        li      $a0, 0
        la      $t0, val_v
        lw      $a1, 0($t0)
        jal     svc_add
        lw      $ra, 0($sp)
        addiu   $sp, $sp, 8
        jr      $ra
`

const ldiffCntSrc = `
        .data
        .globl  pub_n
pub_n:  .word   0
`

// ldiffExe is where every machine saves the linked player executable.
const ldiffExe = "/bin/player"

// The schedule's choices between launches.
const (
	ldiffRewrite = iota
	ldiffRecreate
	ldiffResave
	ldiffDrop
	ldiffRepeat
)

// ldiffMachine is one of the two configurations under comparison.
type ldiffMachine struct {
	name    string
	sys     *core.System
	res     *lds.Result
	fresh   bool           // stable linking off: decode the executable every round
	im      *objfile.Image // image the last round launched
	lastPLT int
}

func ldiffValSrc(v int) string {
	return fmt.Sprintf(".data\n.globl val_v\nval_v: .word %d\n", v)
}

func newLdiffMachine(s *Scenario, seed int64, name string, stable bool, val int) *ldiffMachine {
	sys := core.NewSystem()
	sys.SetStableLinking(stable)
	for _, m := range []struct{ path, src string }{
		{"/lib/svc.o", ldiffSvcSrc},
		{"/lib/ext.o", ldiffExtSrc},
		{"/lib/cnt.o", ldiffCntSrc},
		{"/lib/val.o", ldiffValSrc(val)},
		{"/bin/player.o", ldiffPlayerSrc},
	} {
		if _, err := sys.Asm(m.path, m.src); err != nil {
			s.Failf("launchdiff seed=%d: asm %s on %s: %v", seed, m.path, name, err)
		}
	}
	res, err := sys.Link(&lds.Options{
		Output: "player",
		Modules: []lds.Input{
			{Name: "player.o", Class: objfile.StaticPrivate},
			{Name: "svc.o", Class: objfile.DynamicPublic},
			{Name: "cnt.o", Class: objfile.DynamicPublic},
			{Name: "val.o", Class: objfile.DynamicPrivate},
			{Name: "ext.o", Class: objfile.DynamicPrivate},
		},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
		JumpTables:  true,
	})
	if err != nil {
		s.Failf("launchdiff seed=%d: link on %s: %v", seed, name, err)
	}
	if err := sys.SaveExecutable(ldiffExe, res.Image); err != nil {
		s.Failf("launchdiff seed=%d: save on %s: %v", seed, name, err)
	}
	return &ldiffMachine{name: name, sys: sys, res: res, fresh: !stable}
}

// load returns the image this round launches: a decode of the saved bytes
// on the cold machine, LoadExecutable's on the other, which must return
// the image it returned last round unless the executable was re-saved.
func (m *ldiffMachine) load(s *Scenario, seed int64, round int, resaved bool) *objfile.Image {
	var im *objfile.Image
	var err error
	if m.fresh {
		var b []byte
		if b, err = m.sys.FS.ReadFile(ldiffExe, 0); err == nil {
			im, err = objfile.DecodeImageBytes(b)
		}
	} else {
		im, err = m.sys.LoadExecutable(ldiffExe)
		if err == nil && round > 0 && (im == m.im) == resaved {
			s.Failf("launchdiff seed=%d round=%d: %s reused its cached image: %v, re-saved: %v",
				seed, round, m.name, im == m.im, resaved)
		}
	}
	if err != nil {
		s.Failf("launchdiff seed=%d round=%d: load %s on %s: %v", seed, round, ldiffExe, m.name, err)
	}
	m.im = im
	return im
}

// recreateVal unlinks val.o and assembles it again at the same path. The
// new file must land on the old inode at the old size, the case in which
// only the fresh frames' version counters tell the files apart.
func (m *ldiffMachine) recreateVal(s *Scenario, seed int64, round, val int) {
	before, err := m.sys.FS.StatPath("/lib/val.o")
	if err == nil {
		err = m.sys.FS.Unlink("/lib/val.o", 0)
	}
	if err == nil {
		_, err = m.sys.Asm("/lib/val.o", ldiffValSrc(val))
	}
	if err != nil {
		s.Failf("launchdiff seed=%d round=%d: re-create val.o on %s: %v", seed, round, m.name, err)
	}
	if after, _ := m.sys.FS.StatPath("/lib/val.o"); after.Ino != before.Ino || after.Size != before.Size {
		s.Failf("launchdiff seed=%d round=%d: val.o re-created at ino %d size %d on %s, want ino %d size %d",
			seed, round, after.Ino, after.Size, m.name, before.Ino, before.Size)
	}
}

func (m *ldiffMachine) counter(name string) uint64 {
	return m.sys.Obs().R.Snapshot().Counters[name]
}

func (m *ldiffMachine) checkInvariants(s *Scenario, seed int64, round int) {
	st := m.sys.W.Stats
	if st.ImageRelocsLeft < 0 {
		s.Failf("launchdiff seed=%d round=%d: %s ImageRelocsLeft = %d (negative)",
			seed, round, m.name, st.ImageRelocsLeft)
	}
	if st.PLTResolves < m.lastPLT {
		s.Failf("launchdiff seed=%d round=%d: %s PLTResolves went backwards: %d -> %d",
			seed, round, m.name, m.lastPLT, st.PLTResolves)
	}
	m.lastPLT = st.PLTResolves
}

// LaunchDiffOne replays one seeded launch-and-mutate schedule on the cold
// and zygote machines and fails the scenario on any divergence. The
// failure message names diffSeed (the FuzzLaunchDiff input).
func LaunchDiffOne(s *Scenario, diffSeed int64, rounds int) {
	rng := rand.New(rand.NewSource(diffSeed))
	val := rng.Intn(64)
	machines := []*ldiffMachine{
		newLdiffMachine(s, diffSeed, "cold", false, val),
		newLdiffMachine(s, diffSeed, "zygote", true, val),
	}
	cold, zyg := machines[0], machines[1]

	ctrRounds := s.Reg.Counter("harness.launchdiff.rounds")
	ctrArm := [...]*obsv.Counter{
		ldiffRewrite:  s.Reg.Counter("harness.launchdiff.mutations"),
		ldiffRecreate: s.Reg.Counter("harness.launchdiff.recreates"),
		ldiffResave:   s.Reg.Counter("harness.launchdiff.resaves"),
		ldiffDrop:     s.Reg.Counter("harness.launchdiff.drops"),
	}
	mutations := 0
	resaves := 0
	drops := 0
	count := 0 // model of pub_n
	for round := 0; round < rounds; round++ {
		// Between launches: change the private value module on both
		// machines (in place, or by unlink and re-create), re-save the
		// executable on both, drop the zygote machine's zygotes, or change
		// nothing.
		arm := ldiffRepeat
		if round > 0 {
			arm = min(rng.Intn(7), ldiffRepeat)
		}
		switch arm {
		case ldiffRewrite, ldiffRecreate:
			val = rng.Intn(64)
			for _, m := range machines {
				if arm == ldiffRecreate {
					m.recreateVal(s, diffSeed, round, val)
				} else if _, err := m.sys.Asm("/lib/val.o", ldiffValSrc(val)); err != nil {
					s.Failf("launchdiff seed=%d round=%d: mutate val.o on %s: %v",
						diffSeed, round, m.name, err)
				}
			}
			mutations++
		case ldiffResave:
			resaves++
			for _, m := range machines {
				if err := m.sys.SaveExecutable(ldiffExe, m.res.Image); err != nil {
					s.Failf("launchdiff seed=%d round=%d: re-save on %s: %v", diffSeed, round, m.name, err)
				}
			}
		case ldiffDrop:
			drops++
			zyg.sys.K.DropAllZygotes()
		}
		if arm != ldiffRepeat {
			ctrArm[arm].Inc()
		}

		// Launch on every machine, force the lazy links with language-level
		// accesses, and compare the fully linked state.
		pgs := make([]*core.Program, len(machines))
		for i, m := range machines {
			pg, err := m.sys.Launch(m.load(s, diffSeed, round, arm == ldiffResave), 0, nil)
			if err != nil {
				s.Failf("launchdiff seed=%d round=%d: launch on %s: %v", diffSeed, round, m.name, err)
			}
			pgs[i] = pg
		}
		addrs := make([]map[string]uint32, len(pgs))
		for i, pg := range pgs {
			addrs[i] = map[string]uint32{}
			// ext_val is resolved but not touched: the run links ext.o.
			for _, sym := range []string{"svc_add", "pub_n", "val_v", "ext_val"} {
				v, err := pg.Var(sym)
				if err != nil {
					s.Failf("launchdiff seed=%d round=%d: resolve %s on %s: %v",
						diffSeed, round, sym, machines[i].name, err)
				}
				addrs[i][sym] = v.Addr
				if sym == "ext_val" {
					continue
				}
				if _, err := v.Load(); err != nil {
					s.Failf("launchdiff seed=%d round=%d: load %s on %s: %v",
						diffSeed, round, sym, machines[i].name, err)
				}
			}
		}
		for i := 1; i < len(pgs); i++ {
			for sym, a := range addrs[0] {
				if addrs[i][sym] != a {
					s.Failf("launchdiff seed=%d round=%d: %s at 0x%08x on %s but 0x%08x on cold",
						diffSeed, round, sym, addrs[i][sym], machines[i].name, a)
				}
			}
		}
		h0 := vm.StateHash(pgs[0].P.CPU)
		for i := 1; i < len(pgs); i++ {
			if h := vm.StateHash(pgs[i].P.CPU); h != h0 {
				s.Failf("launchdiff seed=%d round=%d: linked state diverged: %s hash=%016x cold hash=%016x\n%s state:\n%s\ncold state:\n%s",
					diffSeed, round, machines[i].name, h, h0,
					machines[i].name, vm.DumpState(pgs[i].P.CPU), vm.DumpState(pgs[0].P.CPU))
			}
		}

		// Run to completion: exit codes must agree with the model and with
		// each other.
		count++
		want := 35 + 2*val + count
		for i, pg := range pgs {
			if err := pg.Run(1_000_000); err != nil {
				s.Failf("launchdiff seed=%d round=%d: run on %s: %v", diffSeed, round, machines[i].name, err)
			}
			if pg.P.ExitCode != want {
				s.Failf("launchdiff seed=%d round=%d: %s exited %d, want %d (val=%d count=%d)",
					diffSeed, round, machines[i].name, pg.P.ExitCode, want, val, count)
			}
		}
		for _, m := range machines {
			m.checkInvariants(s, diffSeed, round)
		}
		if cold.sys.W.Stats != zyg.sys.W.Stats {
			s.Failf("launchdiff seed=%d round=%d: linker stats diverged:\ncold   %+v\nzygote %+v",
				diffSeed, round, cold.sys.W.Stats, zyg.sys.W.Stats)
		}
		ctrRounds.Inc()
	}

	// The fast paths must actually have engaged, or the differential
	// silently compared two cold machines. Every launch after the first
	// clones, except one after a template change (which drops the zygote)
	// or a drop; those link cold and park again.
	if cold.counter("core.exe_cache_hit") != 0 || cold.counter("kern.zygote_clone") != 0 {
		s.Failf("launchdiff seed=%d: cold machine hit a cache or cloned a zygote", diffSeed)
	}
	if hit, miss := zyg.counter("core.exe_cache_hit"), zyg.counter("core.exe_cache_miss"); hit != uint64(rounds-1-resaves) || miss != uint64(1+resaves) {
		s.Failf("launchdiff seed=%d: zygote machine counted %d image-cache hits and %d misses over %d rounds with %d re-saves",
			diffSeed, hit, miss, rounds, resaves)
	}
	clones, parks, inval := zyg.counter("kern.zygote_clone"), zyg.counter("kern.zygote_register"), zyg.counter("kern.zygote_invalidate")
	if clones != uint64(rounds-1-mutations-drops) || parks != uint64(1+mutations+drops) || inval != uint64(mutations) {
		s.Failf("launchdiff seed=%d: %d clones, %d parks, %d invalidations over %d rounds with %d template changes and %d drops",
			diffSeed, clones, parks, inval, rounds, mutations, drops)
	}
}
