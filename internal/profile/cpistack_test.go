package profile_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pok/internal/core"
	"pok/internal/profile"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// The CPI stack's headline contract is conservation: every cycle of a
// run is attributed to exactly one component, so the per-component
// cycles sum to core.Result.Cycles exactly — not approximately — for
// every baked-in workload, under the simple pipeline and both
// bit-slice widths, on both schedulers. The companion contract is that
// profiling is pure observation: a run with the Accountant attached
// produces a Result bit-identical to the bare run's.

func invariantConfigs() []core.Config {
	return []core.Config{
		core.SimplePipelined(4),
		core.BitSliced(2),
		core.BitSliced(4),
	}
}

// runAccounted runs bench under cfg with an Accountant chained in front
// of inner (which may be nil) and returns the Result and the
// accountant.
func runAccounted(t *testing.T, bench string, cfg core.Config, insts uint64, inner telemetry.Collector) (*core.Result, *profile.Accountant) {
	t.Helper()
	w := workload.MustGet(bench)
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	acct := profile.NewAccountant(inner)
	cfg.Collector = acct
	r, err := core.RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	return r, acct
}

// profiledStack runs bench under cfg and returns its Result and CPI
// stack.
func profiledStack(t *testing.T, bench string, cfg core.Config, insts uint64) (*core.Result, *profile.CPIStack) {
	t.Helper()
	r, acct := runAccounted(t, bench, cfg, insts, nil)
	st, err := acct.Stack(r.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

func runPlain(t *testing.T, bench string, cfg core.Config, insts uint64) *core.Result {
	t.Helper()
	w := workload.MustGet(bench)
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCPIStackAccountsEveryCycle sweeps every workload x config x
// scheduler and requires exact cycle conservation plus a bit-identical
// Result with and without the accountant attached.
func TestCPIStackAccountsEveryCycle(t *testing.T) {
	const insts = 10_000
	for _, bench := range workload.Names() {
		for _, base := range invariantConfigs() {
			for _, legacy := range []bool{false, true} {
				cfg := base
				cfg.LegacyScheduler = legacy
				name := fmt.Sprintf("%s/%s/legacy=%v", bench, cfg.Name, legacy)
				t.Run(name, func(t *testing.T) {
					r, st := profiledStack(t, bench, cfg, insts)
					if got := st.Sum(); got != r.Cycles {
						t.Errorf("attributed %d cycles, run has %d\n%s",
							got, r.Cycles, st.Render())
					}
					if st.Insts != r.Insts {
						t.Errorf("stack saw %d commits, run committed %d", st.Insts, r.Insts)
					}

					plain := runPlain(t, bench, cfg, insts)
					got, want := *r, *plain
					got.Telemetry, want.Telemetry = nil, nil
					if got != want {
						t.Errorf("accountant perturbed the run:\nwith:\n%s\nwithout:\n%s",
							r.Summary(), plain.Summary())
					}
				})
			}
		}
	}
}

// TestAccountantMatchesReplay: the live accountant, chained in front of
// a recorder that keeps every event, reports the same stack as a replay
// of the recorded stream, and forwards the stream untouched.
func TestAccountantMatchesReplay(t *testing.T) {
	cfg := core.BitSliced(4)
	rec := cfg.NewRecorder(math.MaxInt)
	r, acct := runAccounted(t, "gcc", cfg, 20_000, rec)
	live, err := acct.Stack(r.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := profile.BuildCPIStack(rec.Events(), r.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if *live != *replay {
		t.Fatalf("live stack differs from replay:\n%s\n%s", live.Render(), replay.Render())
	}
	if rec.Dropped() != 0 || r.Telemetry == nil || r.Telemetry.Events["commit"] != r.Insts {
		t.Fatalf("inner recorder saw a different stream: dropped %d, summary %+v",
			rec.Dropped(), r.Telemetry)
	}
}

// TestAccountantHeapConstant: the accountant holds only in-flight
// instructions, so what it retains after a 300k-instruction run is
// within a constant of what it retains after a 20k run — the 300k
// run's event stream alone is over 100 MB.
func TestAccountantHeapConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("300k-instruction run")
	}
	retained := func(insts uint64) int64 {
		r, acct := runAccounted(t, "gzip", core.BitSliced(4), insts, nil)
		if _, err := acct.Stack(r.Cycles); err != nil {
			t.Fatal(err)
		}
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(acct)
		acct = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		return int64(with.HeapAlloc) - int64(without.HeapAlloc)
	}
	short, long := retained(20_000), retained(300_000)
	t.Logf("accountant retains %d bytes after 20k insts, %d after 300k", short, long)
	if long > short+64<<10 {
		t.Fatalf("accountant retains %d bytes after 300k insts, %d after 20k", long, short)
	}
}

// TestCriticalPathConservation holds the path extractor to its own
// telescoping invariant on a real stream: the per-edge-kind totals sum
// to the path length, and the chain is non-empty for any committing
// run.
func TestCriticalPathConservation(t *testing.T) {
	for _, base := range invariantConfigs() {
		rec := base.NewRecorder(math.MaxInt)
		r, _ := runAccounted(t, "gzip", base, 10_000, rec)
		cp, err := profile.BuildCriticalPath(rec.Events())
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, k := range cp.Kind {
			sum += k
		}
		if sum != cp.Length {
			t.Errorf("%s: edge kinds sum to %d, path length %d", base.Name, sum, cp.Length)
		}
		if cp.Length <= 0 || cp.Length > r.Cycles {
			t.Errorf("%s: path length %d outside (0, %d]", base.Name, cp.Length, r.Cycles)
		}
		if len(cp.Steps) == 0 {
			t.Errorf("%s: empty chain", base.Name)
		}
	}
}
