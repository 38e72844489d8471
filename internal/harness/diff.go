package harness

import (
	"fmt"
	"math/rand"

	"hemlock/internal/vm"
)

// diffSlotBudget bounds one program execution. A slot is consumed by every
// retired instruction AND every serviced trap, so even a program that
// faults forever (e.g. a jump to an unaligned address it keeps re-faulting
// on) terminates after exactly the same number of loop turns on both paths.
const diffSlotBudget = 4096

// execPath runs c until halt or the slot budget is gone, recording the
// observable event sequence. fast selects the production path (RunBatch:
// the block engine over the D-TLB); otherwise every instruction goes
// through the cache-free Step. Traps are serviced the way a minimal
// kernel would: record, skip the faulting instruction, continue.
func execPath(c *vm.CPU, fast bool, budget uint64) []string {
	var events []string
	var consumed uint64
	for consumed < budget {
		before := c.Steps
		var ev vm.Event
		var err error
		if fast {
			ev, err = c.RunBatch(budget - consumed)
		} else {
			ev, err = c.Step()
		}
		consumed += c.Steps - before
		if err != nil {
			events = append(events, fmt.Sprintf("trap pc=%08x: %v", c.PC, err))
			consumed++
			c.PC += 4
			continue
		}
		switch ev {
		case vm.EventHalt:
			events = append(events, fmt.Sprintf("halt pc=%08x", c.PC))
			return events
		case vm.EventSyscall:
			events = append(events, fmt.Sprintf("syscall pc=%08x", c.PC))
		case vm.EventBreak:
			events = append(events, fmt.Sprintf("break pc=%08x", c.PC))
		}
	}
	events = append(events, "budget exhausted")
	return events
}

// DiffOne generates the program image for progSeed, executes it on
// RunBatch and on Step, and fails the scenario on any divergence in the
// event sequence, step count, registers, PC, or the whole-memory state
// hash. The failure message names progSeed: replaying just that program
// is FuzzDiffExec's job (the seed is the fuzz input).
func DiffOne(s *Scenario, progSeed int64) {
	ctrProg := s.Reg.Counter("harness.diff.programs")
	ctrSteps := s.Reg.Counter("harness.diff.steps")
	ctrTraps := s.Reg.Counter("harness.diff.traps")
	ctrEvents := s.Reg.Counter("harness.diff.events")

	rng := rand.New(rand.NewSource(progSeed))
	im := genImage(rng)
	fast, err := im.instantiate()
	if err != nil {
		s.Failf("program seed=%d: instantiate fast: %v", progSeed, err)
		return
	}
	ref, err := im.instantiate()
	if err != nil {
		s.Failf("program seed=%d: instantiate ref: %v", progSeed, err)
		return
	}
	fe := execPath(fast, true, diffSlotBudget)
	re := execPath(ref, false, diffSlotBudget)
	ctrProg.Inc()
	ctrSteps.Add(fast.Steps)
	ctrTraps.Add(fast.Traps)
	ctrEvents.Add(uint64(len(fe)))

	for i := 0; i < len(fe) || i < len(re); i++ {
		f, r := "<none>", "<none>"
		if i < len(fe) {
			f = fe[i]
		}
		if i < len(re) {
			r = re[i]
		}
		if f != r {
			s.Failf("program seed=%d: event %d diverged\n  fast: %s\n  ref:  %s\nfast state:\n%s\nref state:\n%s",
				progSeed, i, f, r, vm.DumpState(fast), vm.DumpState(ref))
			return
		}
	}
	if fast.Steps != ref.Steps || fast.Traps != ref.Traps {
		s.Failf("program seed=%d: counts diverged: fast steps=%d traps=%d, ref steps=%d traps=%d",
			progSeed, fast.Steps, fast.Traps, ref.Steps, ref.Traps)
		return
	}
	if fast.PC != ref.PC || fast.Regs != ref.Regs {
		s.Failf("program seed=%d: register file diverged\nfast:\n%s\nref:\n%s",
			progSeed, vm.DumpState(fast), vm.DumpState(ref))
		return
	}
	if fh, rh := vm.StateHash(fast), vm.StateHash(ref); fh != rh {
		s.Failf("program seed=%d: memory diverged (hash fast=%016x ref=%016x)\nfast:\n%s\nref:\n%s",
			progSeed, fh, rh, vm.DumpState(fast), vm.DumpState(ref))
	}
}
