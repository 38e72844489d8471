package vm_test

import (
	"testing"

	"hemlock/internal/vm"
)

// recSampler records every boundary report.
type recSampler struct {
	counts map[uint32]uint64
	last   struct {
		pc    uint32
		steps uint64
		set   bool
	}
	total uint64
}

func newRecSampler() *recSampler { return &recSampler{counts: map[uint32]uint64{}} }

func (r *recSampler) Sample(pc uint32, steps uint64) {
	if r.last.set && steps > r.last.steps {
		d := steps - r.last.steps
		r.counts[r.last.pc] += d
		r.total += d
	}
	r.last.pc, r.last.steps, r.last.set = pc, steps, true
}

// TestSampleHookAllocs is the perf gate for the sampling hook: with no
// sampler installed, the RunBatch path must not allocate — the hook is one
// nil check at each batch/block boundary.
func TestSampleHookAllocs(t *testing.T) {
	c := benchCPU(t)
	// Warm every cache (D-TLB, block map) out of the measured region.
	if _, err := c.RunBatch(4096); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.RunBatch(1024); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs/RunBatch with sampling disabled, want 0", allocs)
	}
}

// TestSamplerExactAttribution: with a sampler installed, every retired
// instruction lands in some bucket — block-boundary deltas plus the
// flushed tail account for the CPU's entire step count.
func TestSamplerExactAttribution(t *testing.T) {
	c := benchCPU(t)
	s := newRecSampler()
	c.SetSampler(s)
	const steps = 10_000
	for done := uint64(0); done < steps; {
		if _, err := c.RunBatch(1000); err != nil {
			t.Fatal(err)
		}
		done = c.Steps
	}
	s.Sample(c.PC, c.Steps) // flush the tail
	if s.total != c.Steps {
		t.Errorf("attributed %d of %d retired instructions", s.total, c.Steps)
	}
	// The benchmark loop body lives at benchTextBase; every sampled PC
	// must fall inside its 8 instructions.
	for pc := range s.counts {
		if pc < benchTextBase || pc >= benchTextBase+8*4 {
			t.Errorf("sample outside loop: pc=%#x", pc)
		}
	}
}

// TestSamplerSurvivesSnapshot: fork copies the sampler reference along
// with the architectural state.
func TestSamplerSurvivesSnapshot(t *testing.T) {
	c := benchCPU(t)
	s := newRecSampler()
	c.SetSampler(s)
	if _, err := c.RunBatch(64); err != nil {
		t.Fatal(err)
	}
	child := c.Snapshot()
	if _, err := child.RunBatch(64); err != nil {
		t.Fatal(err)
	}
	s.Sample(child.PC, child.Steps)
	if s.total == 0 {
		t.Fatal("snapshot dropped the sampler")
	}
	var _ vm.Sampler = s // the test double satisfies the interface
}
