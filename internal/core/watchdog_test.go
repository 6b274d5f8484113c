package core

import (
	"errors"
	"strings"
	"testing"

	"pok/internal/emu"
)

// wedgeInjector is a minimal core.Injector that corrupts slice 0 of one
// chosen instruction on *every* issue attempt. The slice-op can then
// never pass verify, its dependents can never commit, and the machine is
// wedged by construction — exactly the condition the deadlock watchdog
// must convert into a structured error instead of an infinite loop.
type wedgeInjector struct {
	seq uint64
}

func (w *wedgeInjector) FlipSlice(seq uint64, sl int) bool { return seq == w.seq && sl == 0 }
func (w *wedgeInjector) ForceWayMiss(uint64) bool          { return false }
func (w *wedgeInjector) ForceAliasConflict(uint64) bool    { return false }
func (w *wedgeInjector) MutateCommit(*CommitRecord)        {}

// TestDeadlockWatchdog wedges one instruction forever and checks that
// both schedulers, and the sampled windows that share Run's cycle
// driver, abort with a structured *DeadlockError — identifiable via
// errors.Is(err, ErrDeadlock) — whose dump names the wedged pipeline
// state, well before the instruction budget would have been reached.
func TestDeadlockWatchdog(t *testing.T) {
	sampled := func(prog *emu.Program, cfg Config) (*Result, error) {
		return RunSampled(prog, cfg, 0, 5_000, 1_000, 3)
	}
	full := func(prog *emu.Program, cfg Config) (*Result, error) {
		return Run(prog, cfg, 100_000)
	}
	for _, tc := range []struct {
		name   string
		legacy bool
		run    func(*emu.Program, Config) (*Result, error)
	}{
		{"event", false, full},
		{"legacy", true, full},
		{"sampled", false, sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BitSliced(2)
			cfg.LegacyScheduler = tc.legacy
			cfg.Inject = &wedgeInjector{seq: 200}
			cfg.Invariants = &InvariantConfig{DeadlockBudget: 1_500}
			_, err := tc.run(mustProg(t, mispredictHeavy), cfg)
			if err == nil {
				t.Fatal("wedged machine completed its run")
			}
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("want ErrDeadlock, got %v", err)
			}
			var de *DeadlockError
			if !errors.As(err, &de) {
				t.Fatalf("error is not a *DeadlockError: %v", err)
			}
			if de.Budget != 1_500 {
				t.Errorf("budget %d, configured 1500", de.Budget)
			}
			if de.Committed == 0 {
				t.Error("no instructions committed before the wedge")
			}
			if de.Cycle <= de.Budget {
				t.Errorf("watchdog fired at cycle %d, before the budget elapsed", de.Cycle)
			}
			if de.Dump == "" || !strings.Contains(de.Dump, "window=") {
				t.Errorf("dump missing pipeline state:\n%s", de.Dump)
			}
		})
	}
}

// TestDeadlockWatchdogDefaultBudget: the zero-value InvariantConfig must
// select the historic 40k-cycle livelock guard, not a zero budget that
// would trip instantly on a healthy machine.
func TestDeadlockWatchdogDefaultBudget(t *testing.T) {
	cfg := BitSliced(2)
	cfg.Invariants = &InvariantConfig{}
	r, err := Run(mustProg(t, mispredictHeavy), cfg, 8_000)
	if err != nil {
		t.Fatalf("healthy machine tripped the watchdog: %v", err)
	}
	if r.Insts != 8_000 {
		t.Fatalf("committed %d, want 8000", r.Insts)
	}
}
