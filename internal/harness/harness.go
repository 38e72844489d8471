// Package harness is the deterministic differential-testing and fuzzing
// subsystem. Three engines share one seed/reporting discipline:
//
//   - the program generator + interpreter oracle (gen.go, diff.go):
//     random-but-valid R3K-lite programs executed twice, once on the
//     block engine (RunBatch) and once on the cache-free Step, with
//     bit-identical state and trap sequences demanded;
//   - the link/load schedule explorer (sched.go): seeded interleavings of
//     create/map/lazy-link/PLT-patch/fork/exit with the linker invariants
//     checked after every step;
//   - the netshm network fuzzer (netfuzz.go): a seeded adversary over
//     netsim that drops, duplicates, delays and reorders datagrams, with
//     convergence and per-page sequence monotonicity asserted.
//
// Every run is a pure function of its seed. A failing run prints that
// seed; replay it with
//
//	go test ./internal/harness -run <Test> -harness.seed=<seed>
//
// (fuzz-found inputs replay from the corpus file instead). Engine
// counters are emitted through an internal/obsv registry and rendered
// into every failure message, so a failing run's shape — programs
// executed, traps taken, datagrams dropped — is inspectable with the
// same tooling as the rest of the system.
package harness

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"hemlock/internal/obsv"
)

// seedFlag overrides every scenario's default seed, for replaying a
// failure printed by a previous run.
var seedFlag = flag.Int64("harness.seed", 0, "replay seed for harness scenarios (0 = scenario default)")

// Scenario bundles the seeded RNG, the obsv registry, and the failure
// reporting every harness engine shares. One Scenario is one reproducible
// run: same seed, same behaviour, bit for bit.
type Scenario struct {
	T    testing.TB
	Name string
	Rand *rand.Rand
	Reg  *obsv.Registry
	seed int64
}

// NewScenario starts a scenario with defaultSeed, which the -harness.seed
// flag overrides. Use this for ordinary deterministic tests; fuzz targets,
// whose seed is the fuzz input itself, use WithSeed.
func NewScenario(t testing.TB, name string, defaultSeed int64) *Scenario {
	seed := defaultSeed
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	return WithSeed(t, name, seed)
}

// WithSeed starts a scenario pinned to an explicit seed, ignoring the
// -harness.seed flag.
func WithSeed(t testing.TB, name string, seed int64) *Scenario {
	return &Scenario{
		T:    t,
		Name: name,
		Rand: rand.New(rand.NewSource(seed)),
		Reg:  obsv.NewRegistry(),
		seed: seed,
	}
}

// Seed returns the seed this scenario runs under.
func (s *Scenario) Seed() int64 { return s.seed }

// Failf fails the test. The message always carries the scenario name, the
// seed needed to replay the run, and the engine's obsv counters.
func (s *Scenario) Failf(format string, args ...interface{}) {
	s.T.Helper()
	s.T.Fatalf("harness %s seed=%d: %s\nreplay: -harness.seed=%d\n%s",
		s.Name, s.seed, fmt.Sprintf(format, args...), s.seed, s.Reg.Snapshot().Text())
}

// Logf logs with the scenario prefix.
func (s *Scenario) Logf(format string, args ...interface{}) {
	s.T.Helper()
	s.T.Logf("harness %s seed=%d: %s", s.Name, s.seed, fmt.Sprintf(format, args...))
}

// Scale picks between a full and a -short workload size.
func (s *Scenario) Scale(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}
