package harness

import (
	"testing"
)

// TestLaunchDiff drives seeded launch-and-mutate schedules over a cold and
// a zygote machine and fails on any divergence in linked-state hash,
// symbol addresses, exit codes or linker stats. Every kind of change
// between launches must occur at least once.
func TestLaunchDiff(t *testing.T) {
	s := NewScenario(t, "launchdiff", 8)
	n := s.Scale(8, 3)
	for i := 0; i < n; i++ {
		LaunchDiffOne(s, s.Rand.Int63(), 8)
	}
	c := s.Reg.Snapshot().Counters
	if c["harness.launchdiff.rounds"] == 0 {
		s.Failf("launchdiff performed no rounds")
	}
	for _, arm := range []string{"mutations", "recreates", "resaves", "drops"} {
		if c["harness.launchdiff."+arm] == 0 {
			s.Failf("launchdiff schedules took no %s (explorer narrower than it claims)", arm)
		}
	}
	s.Logf("%d schedules: %d rounds, %d in-place mutations, %d re-creates, %d re-saves, %d zygote drops",
		n, c["harness.launchdiff.rounds"], c["harness.launchdiff.mutations"],
		c["harness.launchdiff.recreates"], c["harness.launchdiff.resaves"], c["harness.launchdiff.drops"])
}

// FuzzLaunchDiff lets the fuzzer pick the schedule seed directly.
func FuzzLaunchDiff(f *testing.F) {
	for _, seed := range []int64{0, 2, 11, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		LaunchDiffOne(WithSeed(t, "launchdiff-fuzz", seed), seed, 6)
	})
}
