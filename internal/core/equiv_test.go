package core

import (
	"fmt"
	"testing"

	"pok/internal/workload"
)

// The differential half of the scheduler rewrite: the event-driven
// ready-queue scheduler (sched_event.go, memory.go) must be cycle-exact
// against the original full-window scan (sched_legacy.go) — not just
// IPC-close, but identical on every counter in Result. Each subtest runs
// the same program twice, once per scheduler, and compares the structs
// wholesale.

// runBoth runs cfg with both schedulers and fails the test unless the
// Result structs are identical.
func runBoth(t *testing.T, name string, w *workload.Workload, cfg Config, maxInsts uint64) {
	t.Helper()
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	legacy := cfg
	legacy.LegacyScheduler = true
	rl, err := RunWarm(prog, legacy, w.FastForward, maxInsts)
	if err != nil {
		t.Fatalf("%s legacy: %v", name, err)
	}
	prog2, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	event := cfg
	event.LegacyScheduler = false
	re, err := RunWarm(prog2, event, w.FastForward, maxInsts)
	if err != nil {
		t.Fatalf("%s event: %v", name, err)
	}
	if *rl != *re {
		t.Errorf("%s: schedulers diverge\nlegacy:\n%s\nevent:\n%s",
			name, rl.Summary(), re.Summary())
	}
}

// TestEventSchedulerMatchesLegacy sweeps every Table 1 workload under the
// slice-by-2 and slice-by-4 bit-sliced machines at 100k instructions.
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
				runBoth(t, name, w, cfg, insts)
			})
		}
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
				runBoth(t, name, w, cfg, insts)
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
