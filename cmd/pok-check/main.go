// pok-check runs workloads through the timing model under the lockstep
// functional oracle, the per-cycle invariant checker and (optionally)
// the deterministic fault injector, and exits non-zero with a
// structured JSON report if the machine ever diverges from the
// reference, violates a structural invariant, or stops making forward
// progress.
//
// Usage:
//
//	pok-check -bench gzip -config slice2 -insts 200000
//	pok-check -all -inject -seed 1 -scheduler both
//	pok-check -bench li -corrupt 1000        # prove divergence detection
//	pok-check -bench li -wedge 500           # prove the deadlock watchdog
//	pok-check -prog repro.s -config slice2   # replay a soak repro bundle
//
// With -inject, every fault perturbs speculation only (slice verify
// flips, forced MRU way mispredicts, fake partial-address conflicts,
// replay storms); a correct machine recovers from all of them to an
// oracle-identical commit stream, which is exactly what this tool
// asserts. -corrupt and -wedge are deliberate failure hooks used to
// prove the detectors themselves work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"pok"
)

func main() {
	bench := flag.String("bench", "", "comma-separated benchmark names")
	progFile := flag.String("prog", "", "assemble and check this .s file instead of -bench (repro-bundle replay)")
	all := flag.Bool("all", false, "run every benchmark in the suite")
	cfgNames := flag.String("config", "slice2", "comma-separated machine configs: base, simple2, simple4, slice2, slice4")
	sched := flag.String("scheduler", "both", "scheduler(s) to run: event, legacy, both")
	insts := flag.Uint64("insts", 200_000, "instruction budget per run (0 = to completion)")
	seed := flag.Uint64("seed", 1, "first injection seed")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run (seed matrix)")
	injectOn := flag.Bool("inject", false, "enable fault injection")
	flipRate := flag.Float64("flip-rate", 0.02, "per-(seq,slice) result-corruption probability")
	wayRate := flag.Float64("waymiss-rate", 0.10, "forced MRU way-mispredict probability per load")
	conflictRate := flag.Float64("conflict-rate", 0.05, "fake disambiguation-conflict probability per load")
	stormEvery := flag.Uint64("storm-every", 20_000, "replay-storm period in sequence numbers (0 = off)")
	stormLen := flag.Uint64("storm-len", 8, "replay-storm burst length")
	deadlockBudget := flag.Int64("deadlock-budget", 0, "no-commit cycle budget before ErrDeadlock (0 = default)")
	wedge := flag.Int64("wedge", -1, "wedge this sequence number forever (deadlock-watchdog test hook)")
	corrupt := flag.Int64("corrupt", -1, "corrupt the commit record at this commit index (oracle test hook)")
	minFaults := flag.Uint64("min-faults", 0, "fail unless at least this many faults were delivered in total")
	jsonOut := flag.String("json", "", "write the report array as JSON to this file (\"-\" = stdout)")
	flag.Parse()

	// target is one program to drive through the check matrix: a named
	// benchmark from the suite, or a standalone .s file (-prog), which
	// is how soak repro bundles replay.
	type target struct {
		name   string
		prog   *pok.Program
		warmup uint64
	}
	var targets []target
	switch {
	case *progFile != "":
		src, err := os.ReadFile(*progFile)
		if err != nil {
			fatal(err)
		}
		prog, err := pok.Assemble(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *progFile, err))
		}
		name := strings.TrimSuffix(filepath.Base(*progFile), filepath.Ext(*progFile))
		targets = append(targets, target{name: name, prog: prog})
	case *all:
		for _, name := range pok.Benchmarks() {
			targets = append(targets, target{name: name})
		}
	case *bench != "":
		for _, name := range strings.Split(*bench, ",") {
			targets = append(targets, target{name: strings.TrimSpace(name)})
		}
	default:
		fatal(fmt.Errorf("need -bench, -prog or -all"))
	}
	var schedulers []bool // LegacyScheduler values
	switch *sched {
	case "both":
		schedulers = []bool{false, true}
	case "event":
		schedulers = []bool{false}
	case "legacy":
		schedulers = []bool{true}
	default:
		fatal(fmt.Errorf("unknown -scheduler %q (event, legacy, both)", *sched))
	}

	// First SIGINT/SIGTERM drains the in-flight run to its commit
	// frontier and emits everything collected so far as a partial
	// result; a second signal kills. The stop trigger of whichever run
	// is live is published through stopFn by its OnStart hook.
	var (
		stopReq atomic.Bool
		stopMu  sync.Mutex
		stopFn  func(reason string)
	)
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		stopReq.Store(true)
		stopMu.Lock()
		if stopFn != nil {
			stopFn(fmt.Sprintf("signal %v", s))
		}
		stopMu.Unlock()
		fmt.Fprintln(os.Stderr, "pok-check: interrupt — draining current run (repeat to kill)")
		signal.Stop(sigCh)
	}()

	var (
		reports     []*pok.CheckReport
		failures    int
		totalFaults uint64
		interrupted bool
	)
matrix:
	for _, tgt := range targets {
		prog := tgt.prog
		warmup := tgt.warmup
		if prog == nil {
			w, err := pok.GetWorkload(tgt.name)
			if err != nil {
				fatal(err)
			}
			prog, err = w.Program(w.DefaultScale)
			if err != nil {
				fatal(err)
			}
			warmup = w.FastForward
		}
		for _, cfgName := range strings.Split(*cfgNames, ",") {
			cfg, err := pok.ConfigByName(strings.TrimSpace(cfgName))
			if err != nil {
				fatal(err)
			}
			for _, legacy := range schedulers {
				for s := 0; s < *seeds; s++ {
					if stopReq.Load() {
						interrupted = true
						break matrix
					}
					runSeed := *seed + uint64(s)
					cfg := cfg
					cfg.LegacyScheduler = legacy
					opts := pok.CheckOptions{
						Benchmark: tgt.name,
						Warmup:    warmup,
						MaxInsts:  *insts,
						Invariants: &pok.InvariantConfig{
							DeadlockBudget: *deadlockBudget,
						},
						OnStart: func(stop func(reason string)) {
							stopMu.Lock()
							stopFn = stop
							stopMu.Unlock()
							if stopReq.Load() {
								stop("signal interrupt")
							}
						},
					}
					var inj *pok.FaultInjector
					if *injectOn || *wedge >= 0 || *corrupt >= 0 {
						iopt := pok.InjectOptions{Seed: runSeed}
						if *injectOn {
							iopt.SliceFlipRate = *flipRate
							iopt.WayMissRate = *wayRate
							iopt.ConflictRate = *conflictRate
							iopt.StormEvery = *stormEvery
							iopt.StormLen = *stormLen
						}
						if *wedge >= 0 {
							iopt.WedgeOn, iopt.WedgeSeq = true, uint64(*wedge)
						}
						if *corrupt >= 0 {
							iopt.CorruptOn, iopt.CorruptAt = true, uint64(*corrupt)
						}
						inj = pok.NewInjector(iopt)
						opts.Injector = inj
					}
					rep, err := pok.RunChecked(prog, cfg, opts)
					if err != nil {
						fatal(err)
					}
					rep.Seed = runSeed
					reports = append(reports, rep)
					if inj != nil {
						totalFaults += inj.Total()
					}
					printLine(rep, inj)
					if !rep.OK {
						failures++
					}
					if rep.Stopped {
						interrupted = true
						break matrix
					}
				}
			}
		}
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reports); err != nil {
			fatal(err)
		}
	}
	if *injectOn {
		fmt.Printf("total faults delivered: %d\n", totalFaults)
	}
	// A partial matrix can't be held to the fault floor.
	if *minFaults > 0 && totalFaults < *minFaults && !interrupted {
		fmt.Fprintf(os.Stderr, "pok-check: only %d faults delivered, need %d\n",
			totalFaults, *minFaults)
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "pok-check: %d of %d runs failed\n", failures, len(reports))
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "pok-check: interrupted — %d run(s) completed, partial results above\n",
			len(reports))
		os.Exit(130)
	}
	fmt.Printf("pok-check: %d runs ok\n", len(reports))
}

func printLine(r *pok.CheckReport, inj *pok.FaultInjector) {
	status := "ok  "
	if !r.OK {
		status = "FAIL"
	}
	faults := uint64(0)
	if inj != nil {
		faults = inj.Total()
	}
	fmt.Printf("%s %-8s %-8s %-6s seed=%d insts=%d cycles=%d replays=%d faults=%d",
		status, r.Benchmark, r.Config, r.Scheduler, r.Seed, r.Insts, r.Cycles,
		r.Replays, faults)
	if !r.OK {
		fmt.Printf(" kind=%s", r.FailKind)
	}
	fmt.Println()
	if !r.OK {
		// The structured report goes to stdout so a failing CI log is
		// self-contained.
		b, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			fmt.Println(string(b))
		}
	}
}

func writeJSON(path string, reports []*pok.CheckReport) error {
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-check:", err)
	os.Exit(1)
}
