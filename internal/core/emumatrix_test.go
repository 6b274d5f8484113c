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

// Both timing schedulers fed by the one emulator: each program runs
// under the event-driven and the legacy scheduler and the two Results
// are compared wholesale.

// runMatrix executes both schedulers on a freshly built program and
// fails unless they agree — on the Result when the runs succeed, or on
// the error text when the program wedges the machine (a deliberately
// pathological repro bundle must wedge it identically under both).
func runMatrix(t *testing.T, name string, mk func() (*emu.Program, error),
	ff uint64, cfg Config, maxInsts uint64) {
	t.Helper()
	var refRes *Result
	var refErr error
	for _, legacy := range []bool{false, true} {
		prog, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.LegacyScheduler = legacy
		r, err := RunWarm(prog, c, ff, maxInsts)
		if !legacy {
			refRes, refErr = r, err
			continue
		}
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("%s: legacy scheduler errored (%v) but event did not (%v)", name, err, refErr)
		case err != nil:
			if err.Error() != refErr.Error() {
				t.Fatalf("%s: error mismatch\nevent: %v\nlegacy: %v", name, refErr, err)
			}
		case *r != *refRes:
			t.Errorf("%s: legacy scheduler diverges from event\nevent:\n%s\nlegacy:\n%s",
				name, refRes.Summary(), r.Summary())
		}
	}
}

// TestEmulatorMatrixMatches sweeps every registered workload through
// both schedulers on the base and slice-by-2 machines, then replays both
// checked-in repro bundles the same way.
// Short mode trims the budget so the race-detector smoke job stays fast.
func TestEmulatorMatrixMatches(t *testing.T) {
	insts := uint64(40_000)
	if testing.Short() {
		insts = 10_000
	}
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, cfg := range []Config{BaseConfig(), BitSliced(2)} {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/%s", bench, cfg.Name), func(t *testing.T) {
				t.Parallel()
				runMatrix(t, bench, func() (*emu.Program, error) {
					return w.Program(w.DefaultScale)
				}, w.FastForward, cfg, insts)
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
		dir := filepath.Join(root, e.Name())
		t.Run("repro/"+e.Name(), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(filepath.Join(dir, "prog.s"))
			if err != nil {
				t.Fatal(err)
			}
			runMatrix(t, e.Name(), func() (*emu.Program, error) {
				return asm.Assemble(string(src))
			}, 0, BitSliced(2), insts)
		})
	}
}
