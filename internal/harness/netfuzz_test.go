package harness

import (
	"maps"
	"testing"
)

// TestNetShmFuzz runs a batch of seeded adversarial fleet scenarios:
// drops, duplicates, delays and reorders under churn, a late join, then
// quiesce and byte-exact convergence.
func TestNetShmFuzz(t *testing.T) {
	s := NewScenario(t, "netfuzz", 4)
	n := s.Scale(20, 5)
	for i := 0; i < n; i++ {
		NetFuzzOne(s, s.Rand.Int63())
	}
	c := s.Reg.Snapshot().Counters
	if c["harness.netfuzz.runs"] != uint64(n) {
		s.Failf("completed %d runs, want %d", c["harness.netfuzz.runs"], n)
	}
	s.Logf("%d runs: %d ticks, %d writes, %d migrations, %d txn commits (%d forwarded, %d aborted), %d late joins, all converged byte-exact",
		n, c["harness.netfuzz.ticks"], c["harness.netfuzz.writes"], c["harness.netfuzz.migrations"],
		c["harness.netfuzz.txn_commits"], c["harness.netfuzz.txn_forwards"], c["harness.netfuzz.txn_aborts"],
		c["harness.netfuzz.joins"])
}

// TestTxnAtomicitySchedules is the transactional acceptance run: hundreds
// of seeded adversarial schedules — drops, duplicates, delays, reorders,
// home migrations, forwarded commits, deliberate conflicts — during which
// no machine may ever observe a partial multi-word commit. The marker
// block straddles a page boundary and is checked on every tick of every
// schedule.
func TestTxnAtomicitySchedules(t *testing.T) {
	s := NewScenario(t, "txn-atomicity", 11)
	n := s.Scale(500, 100)
	for i := 0; i < n; i++ {
		NetFuzzOne(s, s.Rand.Int63())
	}
	c := s.Reg.Snapshot().Counters
	if c["harness.netfuzz.runs"] != uint64(n) {
		s.Failf("completed %d schedules, want %d", c["harness.netfuzz.runs"], n)
	}
	if c["harness.netfuzz.txn_commits"] == 0 || c["harness.netfuzz.txn_aborts"] == 0 {
		s.Failf("schedules exercised no commits/aborts: %d/%d",
			c["harness.netfuzz.txn_commits"], c["harness.netfuzz.txn_aborts"])
	}
	s.Logf("%d schedules: %d commits (%d forwarded), %d aborts, %d lost, no partial commit observed",
		n, c["harness.netfuzz.txn_commits"], c["harness.netfuzz.txn_forwards"],
		c["harness.netfuzz.txn_aborts"], c["harness.netfuzz.txn_lost"])
}

// FuzzNetShm lets the fuzzer pick the adversary seed directly. Each input
// runs twice and must leave identical fleet counters, so a failing seed
// the fuzzer finds replays.
func FuzzNetShm(f *testing.F) {
	for _, seed := range []int64{0, 1, 4, 9, 1 << 48, -13} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		first := NetFuzzOne(WithSeed(t, "netfuzz-fuzz", seed), seed)
		again := NetFuzzOne(WithSeed(t, "netfuzz-fuzz", seed), seed)
		if !maps.Equal(first, again) {
			for name, v := range first {
				if again[name] != v {
					t.Errorf("counter %s: %d, then %d on replay", name, v, again[name])
				}
			}
			t.Fatalf("seed %d does not replay", seed)
		}
	})
}
