package ldl_test

// The lazy-link/SMC interaction: resolving a jump-table stub patches live
// text the CPU has already decoded into a block (the BREAK handler rewinds
// PC to the stub it just rewrote). The patched word must execute
// immediately — with a stale block the program would spin on the BREAK
// forever or call through the old stub.

import (
	"testing"

	"hemlock/internal/core"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
)

func TestPLTPatchExecutesImmediatelyAfterHandler(t *testing.T) {
	s := core.NewSystem()
	s.Asm("/lib/svc.o", sevenSvcSrc)
	res := linkPLT(t, s, callSharedSrc, lds.Input{Name: "svc.o", Class: objfile.DynamicPublic})
	pg, err := s.Launch(res.Image, 0, map[string]string{"LD_LIBRARY_PATH": "/lib"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Run(100000); err != nil {
		t.Fatal(err)
	}
	if pg.P.ExitCode != 35 {
		t.Fatalf("exit = %d, want 35", pg.P.ExitCode)
	}
	// One resolution for two calls proves the second call ran the patched
	// stub rather than re-trapping.
	if s.W.Stats.PLTResolves != 1 {
		t.Fatalf("PLT resolves = %d, want 1 (patched stub must be executed, not re-trapped)", s.W.Stats.PLTResolves)
	}
	// The stub was hot in a block when the handler patched it, so the
	// stale block is rebuilt (vm.block_invalidate). The invalidation must
	// be recorded — a silently stale block is exactly the bug this test
	// exists to catch.
	snap := s.Obs().R.Snapshot()
	if snap.Counters["vm.block_invalidate"] == 0 {
		t.Fatalf("no block invalidation recorded; stub patch executed stale text? (counters: %v)", snap.Counters)
	}
	if snap.Counters["vm.block_build"] == 0 {
		t.Fatalf("block counters not live: %v", snap.Counters)
	}
}
