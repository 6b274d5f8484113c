// pok-sim runs one benchmark (or an assembly file) through the timing
// model under a chosen machine configuration and prints its statistics.
//
// Usage:
//
//	pok-sim -bench gzip -config slice2 -insts 300000
//	pok-sim -asm prog.s -config simple4 -trace
//	pok-sim -bench gcc -config slice4 -telemetry -events dump.jsonl
//	pok-sim -bench gzip -config slice4 -prof
//
// -telemetry prints the per-stage occupancy/stall summary after the
// run; -events writes the structured pipeline event stream as JSONL
// with a self-describing meta header (analyse or render it with
// pok-prof); -prof streams the run through the CPI-stack accountant
// and prints the stack, and makes an -events dump keep every event
// unless -events-cap bounds it.
//
// Long runs are crash-safe: -ckpt-every drains the pipeline every N
// committed instructions and writes a verified architectural snapshot
// (delta chain with periodic full rebases) to -ckpt-dir; -resume
// continues from any snapshot, bit-identical to an uninterrupted run
// of the same cadence. SIGINT/SIGTERM, -deadline and -max-heap-mb all
// request the same graceful drain: a final snapshot (when a sink is
// armed) plus a partial Result instead of lost work.
//
//	pok-sim -bench gzip -config slice4 -insts 2000000 -ckpt-every 500000
//	pok-sim -resume pok-ckpt/ckpt-000000000003.pok -config slice4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pok"
	"pok/internal/ckpt"
	"pok/internal/core"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (see -list)")
	asmFile := flag.String("asm", "", "assembly source file to simulate instead of a benchmark")
	cfgName := flag.String("config", "base", "machine config: base, simple2, simple4, slice2, slice4")
	insts := flag.Uint64("insts", 300_000, "instruction budget (0 = run to completion)")
	trace := flag.Bool("trace", false, "emit a pipeline event trace to stderr")
	telemetry := flag.Bool("telemetry", false, "collect structured telemetry and print the per-stage summary")
	events := flag.String("events", "", "write the telemetry event stream to this JSONL file (implies -telemetry)")
	ringCap := flag.Int("events-cap", 0, "event ring capacity (0 = default; oldest events drop beyond it)")
	prof := flag.Bool("prof", false, "chain the cycle-accounting profiler and print the CPI stack")
	list := flag.Bool("list", false, "list benchmarks and exit")
	ckptEvery := flag.Uint64("ckpt-every", 0, "architectural checkpoint cadence in committed instructions (0 = off)")
	ckptDir := flag.String("ckpt-dir", "pok-ckpt", "snapshot directory for checkpointing (delta chain with periodic full rebases)")
	resumeFile := flag.String("resume", "", "resume from this snapshot file (chain-resolved; -config must match the checkpointed run)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget; on expiry the run drains, snapshots and exits with a partial result")
	maxHeap := flag.Uint64("max-heap-mb", 0, "live-heap budget in MiB; on excess the run drains, snapshots and exits with a partial result")
	flag.Parse()

	if *list {
		for _, n := range pok.Benchmarks() {
			w, _ := pok.GetWorkload(n)
			fmt.Printf("%-8s %-28s %s\n", n, w.Paper, w.Description)
		}
		return
	}

	cfg, err := pok.ConfigByName(*cfgName)
	if err != nil {
		fatal(err)
	}
	if *trace {
		cfg.Trace = os.Stderr
	}
	var rec *pok.TelemetryRecorder
	if *telemetry || *events != "" {
		if *prof && *events != "" && *ringCap == 0 {
			*ringCap = math.MaxInt // a profiled dump is exact
		}
		rec = cfg.NewRecorder(*ringCap)
		cfg.Collector = rec
	}
	var acct *pok.CPIAccountant
	if *prof {
		// The accountant chains in front of the recorder, which sees
		// the identical stream.
		acct = pok.NewCPIAccountant(cfg.Collector)
		cfg.Collector = acct
	}

	// Build the simulation by hand (rather than through the pok.Run
	// facade) so checkpoint sinks, watchdogs and the signal handler can
	// all reach the live Sim. The constructed run is identical to the
	// facade's: same config, same warmup, same budget.
	var sim *core.Sim
	benchName := *bench
	switch {
	case *resumeFile != "":
		snap, lerr := ckpt.LoadChain(*resumeFile)
		if lerr != nil {
			fatal(lerr)
		}
		sim, err = core.NewSimFromSnapshot(snap, cfg, *insts)
		if err != nil {
			fatal(err)
		}
		benchName = snap.Meta.Benchmark
		fmt.Fprintf(os.Stderr, "pok-sim: resumed %s at %d insts from %s\n",
			benchName, snap.Meta.Insts, *resumeFile)
	case *asmFile != "":
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fatal(rerr)
		}
		prog, aerr := pok.Assemble(string(src))
		if aerr != nil {
			fatal(aerr)
		}
		sim, err = core.NewSim(prog, cfg, *insts)
		if err != nil {
			fatal(err)
		}
	case *bench != "":
		w, gerr := pok.GetWorkload(*bench)
		if gerr != nil {
			fatal(gerr)
		}
		prog, perr := w.Program(w.DefaultScale)
		if perr != nil {
			fatal(perr)
		}
		sim, err = core.NewSim(prog, cfg, *insts)
		if err != nil {
			fatal(err)
		}
		if w.FastForward > 0 {
			if err := sim.FastForward(w.FastForward); err != nil {
				fatal(err)
			}
		}
	default:
		fatal(fmt.Errorf("need -bench, -asm or -resume (try -list)"))
	}

	// A snapshot sink is armed whenever any crash-safety flag is in
	// play: periodic with -ckpt-every, final-snapshot-only otherwise
	// (a drain-stop always lands one snapshot at its boundary).
	var wr *ckpt.Writer
	if *ckptEvery > 0 || *resumeFile != "" || *deadline > 0 || *maxHeap > 0 {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		wr = &ckpt.Writer{Dir: *ckptDir}
		sim.SetCheckpoint(*ckptEvery, wr, benchName)
	}

	// First SIGINT/SIGTERM drains gracefully; a second one kills.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		sim.RequestStop(fmt.Sprintf("signal %v", s))
		signal.Stop(sigCh)
	}()
	wd := &ckpt.Watchdog{Stop: sim.RequestStop}
	if *deadline > 0 {
		wd.Deadline = time.Now().Add(*deadline)
	}
	if *maxHeap > 0 {
		wd.MaxHeapBytes = *maxHeap << 20
	}
	cancelWd := wd.Start()

	r, err := sim.Run()
	cancelWd()
	if err != nil {
		fatal(err)
	}
	r.Benchmark = benchName

	printResult(r)
	if r.Stopped {
		fmt.Printf("\nstopped early: %s (%d insts committed)\n", r.StopReason, r.Insts)
	}
	if wr != nil && wr.Count() > 0 {
		fmt.Printf("wrote %d snapshot(s) to %s; resume with -resume %s\n",
			wr.Count(), *ckptDir, wr.LastPath())
	}
	if r.Telemetry != nil && (*telemetry || *events != "") {
		fmt.Println()
		fmt.Print(r.Telemetry.Render())
	}
	if acct != nil {
		st, err := acct.Stack(r.Cycles)
		if err != nil {
			fatal(err)
		}
		st.Benchmark, st.Config = benchName, *cfgName
		fmt.Println()
		fmt.Print(st.Render())
	}
	if *events != "" {
		evs := rec.Events()
		meta := &pok.EventDumpMeta{
			Benchmark: r.Benchmark, Config: *cfgName,
			Insts: r.Insts, Cycles: r.Cycles, Dropped: rec.Dropped(),
		}
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		if err := pok.WriteEventsDump(f, meta, evs); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d events to %s (analyse or render with pok-prof)\n", len(evs), *events)
	}
}

func printResult(r *pok.Result) {
	fmt.Print(r.Summary())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-sim:", err)
	os.Exit(1)
}
