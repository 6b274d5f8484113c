package core

import (
	"fmt"
	"testing"

	"pok/internal/emu"
)

// A quiet timing-core cycle — one in which no stage does any work — must
// not allocate: the event-driven scheduler's whole point is that such
// cycles cost a handful of empty checks, and an allocation on that path
// would put GC pressure proportional to simulated time, not to work.
// The regression guard steers a machine into a provably quiet stretch
// (a 20-cycle divide in flight with everything already fetched) and
// measures cycle() there.
func TestQuietCycleZeroAllocs(t *testing.T) {
	prog := mustProg(t, `main:
	li $t0, 7
	li $t1, 3
	div2 $t0, $t1
	mflo $t2
	li $v0, 10
	syscall
`)
	s, err := NewSim(prog, BaseConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Advance until the skip logic proves a long quiet stretch ahead —
	// the same condition under which Run would jump s.now.
	var quietLen int64
	for i := 0; i < 200; i++ {
		if _, err := s.cycle(); err != nil {
			t.Fatal(err)
		}
		if s.drained() {
			t.Fatal("program drained before a quiet stretch was found")
		}
		if nxt := s.nextCycle(0, 10_000); nxt > s.now+5 {
			quietLen = nxt - s.now - 1
			break
		}
		s.now++
	}
	if quietLen == 0 {
		t.Fatal("no quiet stretch found")
	}

	runs := int(quietLen) - 1
	if runs > 10 {
		runs = 10
	}
	if runs < 3 {
		t.Fatalf("quiet stretch too short to measure (%d cycles)", quietLen)
	}
	allocs := testing.AllocsPerRun(runs-1, func() {
		s.now++
		if _, err := s.cycle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("quiet cycle allocates %.1f objects/cycle, want 0", allocs)
	}
}

// lockstepChecker is a minimal commit oracle: a reference emulator
// stepped into one held record per commit, compared on the PC and the
// destination value (the full diff lives in internal/check, which
// imports this package).
type lockstepChecker struct {
	em *emu.Emulator
	d  emu.DynInst
}

func (c *lockstepChecker) CheckCommit(r *CommitRecord) error {
	if err := c.em.StepInto(&c.d); err != nil {
		return err
	}
	if c.d.PC != r.PC || c.d.DstVal != r.DstVal {
		return fmt.Errorf("commit %d: reference pc %#x dst %#x, machine pc %#x dst %#x",
			r.Index, c.d.PC, c.d.DstVal, r.PC, r.DstVal)
	}
	return nil
}

// TestCommitCycleZeroAllocs: under a lockstep oracle and the invariant
// checker, a steady-state cycle that commits must not allocate either —
// checked runs are the soak's whole workload, and a per-commit record
// escaping to the heap would cost one object per simulated instruction.
func TestCommitCycleZeroAllocs(t *testing.T) {
	prog := mustProg(t, `main:
	li $t0, 0
	li $t1, 1000000
loop:
	addiu $t0, $t0, 1
	sw $t0, 0($sp)
	lw $t2, 0($sp)
	addu $t3, $t2, $t0
	bne $t0, $t1, loop
	li $v0, 10
	syscall
`)
	for _, cfg := range []Config{BaseConfig(), BitSliced(4)} {
		cfg.Oracle = &lockstepChecker{em: emu.New(prog)}
		cfg.Invariants = &InvariantConfig{}
		s, err := NewSim(prog, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		budget := cfg.Invariants.deadlockBudget()
		committed := 0
		step := func() {
			n, err := s.cycle()
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				s.lastCommitC = s.now
				committed += n
			}
			s.now = s.nextCycle(s.lastCommitC, budget)
		}
		for i := 0; i < 5000; i++ { // reach steady state: pools, wheel, deques
			step()
		}
		committed = 0
		const runs = 500
		allocs := testing.AllocsPerRun(runs, step)
		if committed < runs/2 {
			t.Fatalf("%s: only %d commits in %d cycles", cfg.Name, committed, runs+1)
		}
		if allocs != 0 {
			t.Errorf("%s: a committing cycle allocates %.1f objects, want 0", cfg.Name, allocs)
		}
	}
}
