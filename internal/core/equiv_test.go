package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pok/internal/asm"
	"pok/internal/emu"
	"pok/internal/workload"
)

// The differential half of the scheduler rewrite: the event-driven
// ready-queue scheduler (sched_event.go, memory.go) must be cycle-exact
// against the original full-window scan (sched_legacy.go) — not just
// IPC-close, but identical on every counter in Result. Each subtest runs
// the same program twice, once per scheduler, and compares the structs
// wholesale.

// runBoth runs a program built by mk, after ff fast-forwarded
// instructions, under both schedulers on freshly built copies, and fails
// the test unless they agree: on the Result structs when both runs
// succeed, or on the error text when both fail. It returns that shared
// error, so a caller that expects a clean run can fail on it.
func runBoth(t *testing.T, name string, mk func() (*emu.Program, error),
	ff uint64, cfg Config, maxInsts uint64) error {
	t.Helper()
	var res [2]*Result
	var errs [2]error
	for i, legacy := range []bool{false, true} {
		prog, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.LegacyScheduler = legacy
		res[i], errs[i] = RunWarm(prog, c, ff, maxInsts)
	}
	switch event, legacy := errs[0], errs[1]; {
	case (event == nil) != (legacy == nil):
		t.Fatalf("%s: one scheduler failed\nevent: %v\nlegacy: %v", name, event, legacy)
	case event != nil:
		if event.Error() != legacy.Error() {
			t.Fatalf("%s: error mismatch\nevent: %v\nlegacy: %v", name, event, legacy)
		}
	case *res[0] != *res[1]:
		t.Errorf("%s: schedulers diverge\nlegacy:\n%s\nevent:\n%s",
			name, res[1].Summary(), res[0].Summary())
	}
	return errs[0]
}

// runWorkload is runBoth on a workload at its default scale and
// fast-forward, where either scheduler failing fails the test.
func runWorkload(t *testing.T, name string, w *workload.Workload, cfg Config, maxInsts uint64) {
	t.Helper()
	mk := func() (*emu.Program, error) { return w.Program(w.DefaultScale) }
	if err := runBoth(t, name, mk, w.FastForward, cfg, maxInsts); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestEventSchedulerMatchesLegacy sweeps every registered workload under
// the slice-by-2 and slice-by-4 bit-sliced machines at 100k instructions.
// Short mode trims the budget so the race-detector smoke job stays fast;
// the full sweep still runs on every plain `go test`.
func TestEventSchedulerMatchesLegacy(t *testing.T) {
	insts := uint64(100_000)
	if testing.Short() {
		insts = 20_000
	}
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, slices := range []int{2, 4} {
			cfg := BitSliced(slices)
			name := fmt.Sprintf("%s/x%d", bench, slices)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runWorkload(t, name, w, cfg, insts)
			})
		}
	}
}

// TestSchedulerMatrixMatches sweeps every registered workload through
// both schedulers on the base and slice-by-2 machines at 40k
// instructions, then replays the checked-in repro bundles' programs on
// slice-by-2, where a run that fails (a bundle that wedges the machine)
// must fail with the same error text under both schedulers. Its
// slice-by-2 sweep is a prefix of TestEventSchedulerMatchesLegacy's.
// Short mode trims the budget so the race-detector smoke job stays fast.
func TestSchedulerMatrixMatches(t *testing.T) {
	insts := uint64(40_000)
	if testing.Short() {
		insts = 10_000
	}
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, cfg := range []Config{BaseConfig(), BitSliced(2)} {
			name := bench + "/" + cfg.Name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runWorkload(t, name, w, cfg, insts)
			})
		}
	}

	root := filepath.Join("..", "gen", "testdata", "repros")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		src, err := os.ReadFile(filepath.Join(root, e.Name(), "prog.s"))
		if err != nil {
			t.Fatal(err)
		}
		name := "repro/" + e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runBoth(t, name, func() (*emu.Program, error) {
				return asm.Assemble(string(src))
			}, 0, BitSliced(2), insts)
		})
	}
}

// TestEventSchedulerMatchesLegacyConfigs stresses the corners the
// benchmark sweep does not reach: full-width baseline, simple pipelining,
// and a kitchen-sink machine with every second-order feature enabled
// (wrong-path execution, narrow-width, serial multiplier, sum-addressed
// decoder, DTLB, bounded issue queues).
func TestEventSchedulerMatchesLegacyConfigs(t *testing.T) {
	const insts = 100_000
	wp2 := BitSliced(2)
	wp2.Name = "bit-slice-x2+wp"
	wp2.WrongPath = true

	configs := []Config{BaseConfig(), SimplePipelined(2), SimplePipelined(4), wp2, kitchenSinkConfig()}
	for _, bench := range []string{"li", "mcf", "gcc"} {
		w := workload.MustGet(bench)
		for _, cfg := range configs {
			cfg := cfg
			name := fmt.Sprintf("%s/%s", bench, cfg.Name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runWorkload(t, name, w, cfg, insts)
			})
		}
	}
}

// kitchenSinkConfig is the bit-sliced slice-by-4 machine with every
// second-order feature enabled: wrong-path execution, narrow-width,
// serial multiplier, sum-addressed decoder, DTLB, bounded issue queues.
func kitchenSinkConfig() Config {
	c := BitSliced(4)
	c.Name = "kitchen-sink"
	c.WrongPath = true
	c.NarrowWidth = true
	c.SerialMul = true
	c.SumAddressed = true
	c.UseDTLB = true
	c.IssueQueueSize = 16
	return c
}
