// pok-soak runs the random-program differential soak: seeded generated
// PISA programs (internal/gen) execute under emulator-vs-core lockstep
// verification across a machine-config × scheduler × injection-seed
// matrix; any divergence, invariant violation, deadlock, panic or
// timeout is delta-debugged to a minimal program and written out as a
// self-contained repro bundle (prog.s + repro.json, replayable with
// `pok-check -prog`). The soak frontier is checkpointed so multi-hour
// runs survive interruption and continue with -resume.
//
// Usage:
//
//	pok-soak -programs 500 -seed 1                  # fixed program count
//	pok-soak -duration 90s -seeds 3                 # time-boxed, 3 base seeds
//	pok-soak -programs 200 -resume                  # continue after a kill
//	pok-soak -programs 50 -corrupt 5                # seeded fault: prove the pipeline
//	pok-soak -programs 500 -submit http://host:8080 # same campaign, on the fleet
//
// With -submit the campaign runs as a pok-serve fleet job instead of
// in-process: it is sharded across the attached workers and the merged
// findings report is byte-identical to the single-process run (the
// per-program seed is a pure function of the base seed and index).
// Requires -programs (fleet cells are count-sharded, not time-boxed).
//
// Exit status is non-zero iff any finding was recorded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pok/internal/check/inject"
	"pok/internal/ckpt"
	"pok/internal/gen"
	"pok/internal/metrics"
	"pok/internal/profile"
	"pok/internal/serve"
	"pok/internal/sig"
	"pok/internal/soak"
)

// cursorEvery paces -inst-ckpt's mid-program cursor: each capture is an
// fsync'd file write, so one is kept per second rather than one per
// snapshot. A requested stop always captures, so a SIGINT drain still
// stops at the next snapshot exactly; a kill -9 resumes from a cursor
// about this old.
const cursorEvery = time.Second

func main() {
	programs := flag.Int("programs", 0, "number of generated programs per base seed (0 = use -duration)")
	seed := flag.Uint64("seed", 1, "first base seed")
	seeds := flag.Int("seeds", 1, "number of consecutive base seeds to soak")
	duration := flag.Duration("duration", 0, "time box per base seed (0 = use -programs)")
	configs := flag.String("configs", "simple4,slice2,slice4", "comma-separated machine configs")
	sched := flag.String("scheduler", "both", "scheduler(s): event, legacy, both")
	insts := flag.Uint64("insts", 0, "instruction budget per run (0 = to completion)")
	watchdog := flag.Duration("watchdog", 30*time.Second, "per-run wall-clock watchdog")
	retries := flag.Int("retries", 1, "retries for a timed-out run before recording it")
	injectSeeds := flag.Int("inject-seeds", 0, "fault-injection campaigns per cell beyond the clean run")
	flipRate := flag.Float64("flip-rate", 0.02, "injection: per-(seq,slice) result-corruption probability")
	wayRate := flag.Float64("waymiss-rate", 0.10, "injection: forced MRU way-mispredict probability")
	conflictRate := flag.Float64("conflict-rate", 0.05, "injection: fake disambiguation-conflict probability")
	corrupt := flag.Int64("corrupt", -1, "seed a commit corruption at this commit index on every run (detector/pipeline proof)")
	wedge := flag.Int64("wedge", -1, "wedge this sequence number forever on every run (watchdog proof)")
	fragments := flag.Int("fragments", 0, "generator: body fragments per program (0 = default)")
	loopIters := flag.Int("loop-iters", 0, "generator: outer-loop trip count (0 = default)")
	genInsts := flag.Uint64("gen-insts", 0, "generator: dynamic instruction budget (0 = default)")
	noReduce := flag.Bool("no-reduce", false, "skip delta-debugging of findings")
	reduceTests := flag.Int("reduce-tests", 400, "candidate-evaluation budget per reduction")
	maxFindings := flag.Int("max-findings", 20, "stop a base seed early after this many findings")
	outDir := flag.String("out", "soak-out", "output directory (findings JSON + repro bundles)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file (default <out>/checkpoint-<seed>.json)")
	checkpointEvery := flag.Int("checkpoint-every", 25, "programs between checkpoint snapshots")
	instCkpt := flag.Uint64("inst-ckpt", 0, "architectural checkpoint cadence in committed instructions inside every detection run (0 = program-boundary checkpoints only); makes SIGINT and -resume instruction-granular")
	resume := flag.Bool("resume", false, "resume from the checkpoint file")
	submit := flag.String("submit", "", "submit the campaign to this pok-serve coordinator URL instead of running in-process")
	cellPrograms := flag.Int("cell-programs", 0, "-submit: programs per fleet cell (0 = programs/8)")
	withMetrics := flag.Bool("metrics", false, "write metrics-<seed>.json (CPI stacks, throughput) and print a campaign summary; never changes findings")
	quiet := flag.Bool("q", false, "suppress per-program progress lines")
	flag.Parse()

	if *programs <= 0 && *duration <= 0 {
		fatal(fmt.Errorf("need -programs or -duration"))
	}
	if *submit != "" && *programs <= 0 {
		fatal(fmt.Errorf("-submit needs -programs (fleet cells are count-sharded, not time-boxed)"))
	}
	var schedulers []string
	switch *sched {
	case "both":
		schedulers = []string{"event", "legacy"}
	case "event", "legacy":
		schedulers = []string{*sched}
	default:
		fatal(fmt.Errorf("unknown -scheduler %q (event, legacy, both)", *sched))
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	injOpts := inject.Options{}
	useInject := *injectSeeds > 0
	if useInject {
		injOpts.SliceFlipRate = *flipRate
		injOpts.WayMissRate = *wayRate
		injOpts.ConflictRate = *conflictRate
	}
	// The -corrupt/-wedge hooks ride on the *clean* cell (InjectSeeds
	// stays as given): they seed a deliberate fault into every run, so
	// the soak must catch it and the reducer must shrink it — the
	// end-to-end pipeline proof.
	var hookOpts *inject.Options
	if *corrupt >= 0 || *wedge >= 0 {
		hookOpts = &inject.Options{}
		if *corrupt >= 0 {
			hookOpts.CorruptOn, hookOpts.CorruptAt = true, uint64(*corrupt)
		}
		if *wedge >= 0 {
			hookOpts.WedgeOn, hookOpts.WedgeSeq = true, uint64(*wedge)
		}
	}

	// First SIGINT/SIGTERM requests a drain: with -inst-ckpt the
	// campaign stops at the next drained snapshot inside the current
	// run, otherwise at the next program boundary — either way the
	// checkpoint file holds a cursor -resume continues from exactly.
	// A second signal kills the process (default disposition).
	var stopReq atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		stopReq.Store(true)
		fmt.Fprintln(os.Stderr, "pok-soak: interrupt — draining to the next checkpoint (repeat to kill)")
		signal.Stop(sigCh)
	}()

	totalFindings := 0
	interrupted := false
	for s := 0; s < *seeds; s++ {
		base := *seed + uint64(s)
		cp := *checkpoint
		if cp == "" {
			cp = filepath.Join(*outDir, fmt.Sprintf("checkpoint-%d.json", base))
		}
		opts := soak.Options{
			BaseSeed:        base,
			Programs:        *programs,
			Duration:        *duration,
			Configs:         strings.Split(*configs, ","),
			Schedulers:      schedulers,
			InjectSeeds:     *injectSeeds,
			Inject:          injOpts,
			MaxInsts:        *insts,
			Watchdog:        *watchdog,
			Retries:         *retries,
			NoReduce:        *noReduce,
			ReduceMaxTests:  *reduceTests,
			MaxFindings:     *maxFindings,
			OutDir:          *outDir,
			Checkpoint:      cp,
			CheckpointEvery: *checkpointEvery,
			Gen: gen.Options{
				Fragments: *fragments,
				LoopIters: *loopIters,
				MaxInsts:  *genInsts,
			},
			CkptInsts: *instCkpt,
		}
		if hookOpts != nil {
			opts.Hook = hookOpts
		}
		if !*quiet {
			opts.Log = os.Stderr
		}
		opts.Progress = func(next int, rep *soak.Report) (int, bool) {
			return 0, stopReq.Load()
		}
		if *instCkpt > 0 {
			var lastCursor atomic.Int64
			opts.CursorDue = func() bool {
				return stopReq.Load() || time.Since(time.Unix(0, lastCursor.Load())) >= cursorEvery
			}
			opts.CellCursor = func(program, cell int, rep *soak.Report, s *ckpt.Snapshot) bool {
				lastCursor.Store(time.Now().UnixNano())
				return stopReq.Load()
			}
		}
		var lastSnap *metrics.Snapshot
		if *withMetrics && *submit == "" {
			opts.Snapshot = func(next int, snap *metrics.Snapshot) { lastSnap = snap }
		}
		var rep *soak.Report
		var err error
		if *submit != "" {
			rep, err = submitCampaign(*submit, opts, *cellPrograms)
		} else {
			rep, err = soak.Run(opts, *resume)
		}
		if err != nil {
			fatal(err)
		}
		if lastSnap != nil {
			mpath := filepath.Join(*outDir, fmt.Sprintf("metrics-%d.json", base))
			if err := writeJSON(mpath, lastSnap); err != nil {
				fatal(err)
			}
			fmt.Printf("seed %d: %.1f Minst in %s (%.2f Minst/s), %d replays, %d squashes -> %s\n",
				base, float64(lastSnap.Insts)/1e6,
				time.Duration(lastSnap.WallNanos).Round(time.Millisecond),
				lastSnap.MinstPerSec(), lastSnap.Replays, lastSnap.Squashes(), mpath)
			for _, cfg := range sortedKeys(lastSnap.Stacks) {
				st := lastSnap.Stacks[cfg]
				if st.Insts == 0 {
					continue
				}
				fmt.Printf("  %-10s CPI %.3f  %s\n", cfg,
					float64(st.Cycles)/float64(st.Insts), cpiBreakdown(st))
			}
		}
		path := filepath.Join(*outDir, fmt.Sprintf("findings-%d.json", base))
		if err := writeJSON(path, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("seed %d: %d programs, %d runs, %d findings -> %s\n",
			base, rep.Programs, rep.Runs, len(rep.Findings), path)
		for _, f := range rep.Findings {
			fmt.Printf("  FINDING p%04d %s/%s kind=%s field=%s reduced=%d bundle=%s\n",
				f.Program, f.Config, f.Scheduler, f.Kind, f.Field,
				f.ReducedInsts, f.Bundle)
		}
		if deduped := rep.Deduped(); len(deduped) > 0 {
			dpath := filepath.Join(*outDir, fmt.Sprintf("deduped-%d.json", base))
			if err := writeJSON(dpath, deduped); err != nil {
				fatal(err)
			}
			var d sig.Deduper
			for _, f := range rep.Findings {
				d.Add(f.Signature())
			}
			fmt.Printf("  %s\n", strings.ReplaceAll(d.Summary(), "\n", "\n  "))
		}
		totalFindings += len(rep.Findings)
		if rep.CkptErrs > 0 {
			fmt.Fprintf(os.Stderr, "pok-soak: WARNING: seed %d: %d checkpoint write failures (last: %s)\n",
				base, rep.CkptErrs, rep.LastCkptErr)
		}
		if rep.Stopped {
			fmt.Fprintf(os.Stderr, "pok-soak: seed %d interrupted at program %d; continue with -resume\n",
				base, rep.Programs)
			interrupted = true
			break
		}
	}
	if totalFindings > 0 {
		fmt.Fprintf(os.Stderr, "pok-soak: %d findings\n", totalFindings)
		os.Exit(1)
	}
	if interrupted {
		os.Exit(130)
	}
	fmt.Println("pok-soak: clean")
}

// submitCampaign runs the campaign as a pok-serve fleet job: same
// options, sharded across the attached workers, merged findings
// byte-identical to the in-process run (as long as no MaxFindings
// early stop triggers — fleet jobs apply that cap per cell).
func submitCampaign(url string, opts soak.Options, cellPrograms int) (*soak.Report, error) {
	spec := serve.JobSpec{Kind: "soak", Soak: &serve.SoakSpec{
		BaseSeed:       opts.BaseSeed,
		Programs:       opts.Programs,
		Configs:        opts.Configs,
		Schedulers:     opts.Schedulers,
		InjectSeeds:    opts.InjectSeeds,
		Inject:         opts.Inject,
		Hook:           opts.Hook,
		MaxInsts:       opts.MaxInsts,
		Watchdog:       opts.Watchdog,
		Retries:        opts.Retries,
		NoReduce:       opts.NoReduce,
		ReduceMaxTests: opts.ReduceMaxTests,
		MaxFindings:    opts.MaxFindings,
		Gen:            opts.Gen,
		CellPrograms:   cellPrograms,
		InstCkpt:       opts.CkptInsts,
	}}
	client := serve.NewClient(url)
	id, err := client.Submit(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "pok-soak: submitted %s (seed %d, %d programs) to %s\n",
		id, opts.BaseSeed, opts.Programs, url)
	res, err := client.Wait(context.Background(), id, 0)
	if err != nil {
		return nil, err
	}
	return res.Soak, nil
}

func sortedKeys(m map[string]*profile.CPIStack) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpiBreakdown prints the non-zero CPI-stack components as
// "name share%" pairs, largest first.
func cpiBreakdown(st *profile.CPIStack) string {
	if st.Cycles == 0 {
		return ""
	}
	type part struct {
		name  string
		share float64
	}
	var parts []part
	for c := 0; c < profile.NumComponents; c++ {
		if st.Comp[c] == 0 {
			continue
		}
		parts = append(parts, part{
			profile.Component(c).String(),
			100 * float64(st.Comp[c]) / float64(st.Cycles),
		})
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].share > parts[b].share })
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s %.0f%%", p.name, p.share)
	}
	return b.String()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-soak:", err)
	os.Exit(1)
}
