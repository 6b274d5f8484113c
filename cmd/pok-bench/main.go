// pok-bench regenerates every table and figure of the paper's evaluation
// section and writes the rendered results to stdout and, optionally, to a
// results directory (one file per experiment).
//
// Usage:
//
//	pok-bench                 # full evaluation at the default budget
//	pok-bench -insts 100000   # quicker pass
//	pok-bench -out results/   # also write per-experiment files
//	pok-bench -exp emu        # standalone emulator throughput only
//	pok-bench -exp table1,figure6,profile -bench li   # a chosen subset
//	pok-bench -json           # machine-readable BENCH_<date>.json regression record
//	pok-bench -telemetry      # per-config telemetry summaries (telemetry_<cfg>.json)
//	pok-bench -compare old.json new.json   # regression gate: exit 1 on >25% slowdown
//	pok-bench -submit http://host:8080     # run the sweep as a pok-serve fleet job
//	pok-bench -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"pok"
	"pok/internal/serve"
)

// experiments lists every experiment -exp accepts, in the order they
// run; all but profile run by default.
var experiments = []string{"emu", "ckpt", "table1", "figure2", "figure4", "figure6", "figure11", "profile"}

func main() {
	insts := flag.Uint64("insts", 0, "instruction budget per benchmark per run (0 = default)")
	exps := flag.String("exp", strings.Join(experiments[:len(experiments)-1], ","),
		"comma-separated experiments to run, from: "+strings.Join(experiments, ", ")+
			" (figure11 includes figure12 and the CPI stacks; profile is the instruction mix)")
	ablations := flag.Bool("ablations", false, "also run the ablation studies (narrow-width, predictor, window)")
	outDir := flag.String("out", "", "directory to write per-experiment result files")
	benches := flag.String("bench", "", "comma-separated benchmarks (default: all)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent benchmarks per experiment")
	jsonOut := flag.Bool("json", false, "write a BENCH_<date>.json regression record (to -out dir, or the working directory)")
	jsonFile := flag.String("json-file", "", "exact path for the -json record (default BENCH_<date>.json; implies -json)")
	telemetryRun := flag.Bool("telemetry", false, "collect per-config pipeline telemetry and write telemetry_<cfg>.json summaries")
	compare := flag.Bool("compare", false, "compare two BENCH json records (args: old.json new.json); exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0, "regression tolerance for -compare as a fraction (0 = default 0.25)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after all experiments) to this file")
	submit := flag.String("submit", "", "submit the benchmark sweep to this pok-serve coordinator URL instead of running in-process")
	flag.Parse()

	if *submit != "" {
		runSubmit(*submit, *benches, *insts)
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two arguments: old.json new.json"))
		}
		runCompare(flag.Arg(0), flag.Arg(1), *tolerance)
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	run := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		if !slices.Contains(experiments, e) {
			fatal(fmt.Errorf("unknown experiment %q (want one of %s)", e, strings.Join(experiments, ", ")))
		}
		run[e] = true
	}

	opt := pok.Options{MaxInsts: *insts, Parallel: *parallel}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}

	emit := func(name, content string) {
		fmt.Println(content)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	var records []pok.BenchExperiment
	// record captures one experiment's wall time and derived metrics.
	record := func(name string, start time.Time, cycles int64, meanIPC float64) {
		wall := time.Since(start)
		r := pok.BenchExperiment{
			Experiment: name,
			WallMillis: wall.Milliseconds(),
			SimCycles:  cycles,
			MeanIPC:    meanIPC,
		}
		if cycles > 0 && wall > 0 {
			r.SimCyclesPerSec = float64(cycles) / wall.Seconds()
		}
		records = append(records, r)
	}

	// finish writes the optional JSON record and heap profile and prints
	// the total wall time.
	finish := func(total time.Duration) {
		if *jsonOut || *jsonFile != "" {
			build := pok.DetectBuild()
			report := pok.BenchReport{
				Date:        time.Now().Format("2006-01-02"),
				GoVersion:   build.GoVersion,
				NumCPU:      runtime.NumCPU(),
				Gomaxprocs:  runtime.GOMAXPROCS(0),
				CPUModel:    cpuModel(),
				GitSHA:      build.GitSHA,
				InstsBudget: *insts,
				Parallel:    *parallel,
				TotalWallMS: total.Milliseconds(),
				Experiments: records,
			}
			blob, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			path := *jsonFile
			if path == "" {
				dir := *outDir
				if dir == "" {
					dir = "."
				} else if err := os.MkdirAll(dir, 0o755); err != nil {
					fatal(err)
				}
				path = filepath.Join(dir, "BENCH_"+report.Date+".json")
			}
			if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}

		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}

		fmt.Printf("total wall time: %s\n", total.Round(time.Millisecond))
	}

	start := time.Now()

	if run["emu"] {
		// Functional-emulator throughput first: it is the substrate every
		// other experiment (fast-forward, oracle, soak) runs on, and a
		// standalone record catches fast-path regressions independently of
		// timing-core noise.
		emuStart := time.Now()
		emuRows, err := pok.EmuBench(opt)
		if err != nil {
			fatal(err)
		}
		emuRec := pok.BenchExperiment{
			Experiment: "emu",
			WallMillis: time.Since(emuStart).Milliseconds(),
		}
		if len(emuRows) > 0 {
			emuRec.EmuInstsPerSec = emuRows[0].InstsPerSec // headline: bare mode
		}
		records = append(records, emuRec)
		emit("emu", pok.RenderEmuBench(emuRows))
	}

	if run["ckpt"] {
		// Checkpointing cost: a disarmed run (the hot loop must not pay for
		// the feature — CI gates this row's throughput against the committed
		// baseline) and a run at an 8-snapshot cadence (drain + capture +
		// encode cost per snapshot).
		ckStart := time.Now()
		ck, err := pok.CkptBench(opt)
		if err != nil {
			fatal(err)
		}
		var ckCycles int64
		for _, r := range ck {
			ckCycles += r.Cycles
		}
		record("ckpt", ckStart, ckCycles, 0)
		emit("ckpt", pok.RenderCkptBench(ck))
	}

	if run["table1"] {
		t1Start := time.Now()
		t1, err := pok.Table1(opt)
		if err != nil {
			fatal(err)
		}
		var t1Cycles int64
		var t1IPC float64
		for _, r := range t1 {
			if r.IPC > 0 {
				t1Cycles += int64(float64(r.Insts) / r.IPC)
			}
			t1IPC += r.IPC
		}
		if len(t1) > 0 {
			t1IPC /= float64(len(t1))
		}
		record("table1", t1Start, t1Cycles, t1IPC)
		emit("table1", pok.RenderTable1(t1))
	}

	if run["figure2"] {
		f2Start := time.Now()
		f2opt := opt
		if len(f2opt.Benchmarks) == 0 {
			f2opt.Benchmarks = []string{"bzip", "gcc"}
		}
		f2, err := pok.Figure2(f2opt)
		if err != nil {
			fatal(err)
		}
		record("figure2", f2Start, 0, 0)
		emit("figure2", pok.RenderFigure2(f2))
	}

	if run["figure4"] {
		f4Start := time.Now()
		f4opt := opt
		if len(f4opt.Benchmarks) == 0 {
			f4opt.Benchmarks = []string{"mcf", "twolf"}
		}
		f4, err := pok.Figure4(f4opt, nil)
		if err != nil {
			fatal(err)
		}
		record("figure4", f4Start, 0, 0)
		emit("figure4", pok.RenderFigure4(f4))
	}

	if run["figure6"] {
		f6Start := time.Now()
		f6, err := pok.Figure6(opt)
		if err != nil {
			fatal(err)
		}
		record("figure6", f6Start, 0, 0)
		emit("figure6", pok.RenderFigure6(f6))
		emit("figure6-plot", pok.PlotFigure6(f6))
	}

	if run["figure11"] {
		for _, sliceBy := range []int{2, 4} {
			f11Start := time.Now()
			f11, err := pok.Figure11(opt, sliceBy)
			if err != nil {
				fatal(err)
			}
			var cycles int64
			var ipc float64
			var nres int
			for _, row := range f11 {
				if row.BaseResult != nil {
					cycles += row.BaseResult.Cycles
				}
				for _, res := range row.Results {
					cycles += res.Cycles
				}
				if n := len(row.StackIPC); n > 0 {
					ipc += row.StackIPC[n-1]
					nres++
				}
			}
			if nres > 0 {
				ipc /= float64(nres)
			}
			record(fmt.Sprintf("figure11-x%d", sliceBy), f11Start, cycles, ipc)
			emit(fmt.Sprintf("figure11-x%d", sliceBy), pok.RenderFigure11(f11))
			emit(fmt.Sprintf("figure11-x%d-plot", sliceBy), pok.PlotFigure11(f11))
			f12 := pok.Figure12(f11)
			emit(fmt.Sprintf("figure12-x%d", sliceBy), pok.RenderFigure12(f12))
			emit(fmt.Sprintf("figure12-x%d-plot", sliceBy), pok.PlotFigure12(f12))

			// Cycle-attribution companion: where each technique's Figure 12
			// delta actually came from (internal/profile CPI stacks).
			csStart := time.Now()
			cs, err := pok.CPIStackReport(opt, sliceBy)
			if err != nil {
				fatal(err)
			}
			var csCycles int64
			for _, row := range cs {
				for _, st := range row.Stacks {
					csCycles += st.Cycles
				}
			}
			record(fmt.Sprintf("cpistack-x%d", sliceBy), csStart, csCycles, 0)
			emit(fmt.Sprintf("cpistack-x%d", sliceBy), pok.RenderCPIStackReport(cs))
		}
	}

	if run["profile"] {
		// Dynamic instruction mix per benchmark (default budget 300k).
		names := opt.Benchmarks
		if len(names) == 0 {
			names = pok.Benchmarks()
		}
		budget := opt.MaxInsts
		if budget == 0 {
			budget = 300_000
		}
		var b strings.Builder
		for _, n := range names {
			p, err := pok.ProfileBenchmark(n, budget)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(&b, "=== %s ===\n%s\n", n, p)
		}
		emit("profile", b.String())
	}

	if *ablations {
		abStart := time.Now()
		nw, err := pok.NarrowWidthAblation(opt, 2)
		if err != nil {
			fatal(err)
		}
		emit("ablation-narrow", pok.RenderAblation(
			"Ablation: narrow-width operands on bit-slice-x2 (paper §6 future work)",
			"bit-slice-x2", "+narrow", nw))

		pa, err := pok.PredictorAblation(opt)
		if err != nil {
			fatal(err)
		}
		emit("ablation-predictor", pok.RenderAblation(
			"Ablation: bimodal vs gshare direction predictor (base machine)",
			"gshare IPC", "bimodal IPC", pa))

		wp, err := pok.WrongPathAblation(opt, 2)
		if err != nil {
			fatal(err)
		}
		emit("ablation-wrongpath", pok.RenderAblation(
			"Ablation: wrong-path simulation on bit-slice-x2",
			"redirect-only IPC", "+wrong path IPC", wp))

		cs, err := pok.CompiledSuite(opt, 2)
		if err != nil {
			fatal(err)
		}
		emit("compiled-suite", pok.RenderCompiledSuite(cs, 2))

		ws, err := pok.WindowSweep(opt, nil)
		if err != nil {
			fatal(err)
		}
		emit("ablation-window", pok.RenderWindowSweep(ws))

		ls, err := pok.LSQSweep(opt, nil)
		if err != nil {
			fatal(err)
		}
		emit("ablation-lsq", pok.RenderLSQSweep(ls))
		record("ablations", abStart, 0, 0)
	}

	if *telemetryRun {
		telStart := time.Now()
		if err := runTelemetry(opt, *outDir, emit); err != nil {
			fatal(err)
		}
		record("telemetry", telStart, 0, 0)
	}

	finish(time.Since(start))
}

// runSubmit runs the headline IPC sweep (every benchmark × headline
// config) as a pok-serve fleet job: one cell per benchmark, merged
// rows printed as a benchmark × config IPC table.
func runSubmit(url, benches string, insts uint64) {
	spec := serve.JobSpec{Kind: "bench", Bench: &serve.BenchSpec{
		MaxInsts: insts,
	}}
	if benches != "" {
		spec.Bench.Benchmarks = strings.Split(benches, ",")
	} else {
		spec.Bench.Benchmarks = pok.Benchmarks()
	}
	client := serve.NewClient(url)
	id, err := client.Submit(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pok-bench: submitted %s (%d benchmarks) to %s\n",
		id, len(spec.Bench.Benchmarks), url)
	res, err := client.Wait(context.Background(), id, 0)
	if err != nil {
		fatal(err)
	}
	// Rows arrive grouped per benchmark cell in submit order; pivot to
	// one line per benchmark with a column per config.
	var configs []string
	ipc := map[string]map[string]float64{}
	for _, row := range res.Bench {
		if ipc[row.Benchmark] == nil {
			ipc[row.Benchmark] = map[string]float64{}
		}
		ipc[row.Benchmark][row.Config] = row.IPC
		seen := false
		for _, c := range configs {
			if c == row.Config {
				seen = true
				break
			}
		}
		if !seen {
			configs = append(configs, row.Config)
		}
	}
	fmt.Printf("%-10s", "benchmark")
	for _, c := range configs {
		fmt.Printf(" %10s", c)
	}
	fmt.Println()
	for _, b := range spec.Bench.Benchmarks {
		byCfg, ok := ipc[b]
		if !ok {
			continue
		}
		fmt.Printf("%-10s", b)
		for _, c := range configs {
			fmt.Printf(" %10.4f", byCfg[c])
		}
		fmt.Println()
	}
}

// runCompare is the CI regression gate: it diffs two -json records and
// exits non-zero when any experiment slowed beyond the tolerance.
func runCompare(oldPath, newPath string, tolerance float64) {
	oldR, err := pok.LoadBenchReport(oldPath)
	if err != nil {
		fatal(err)
	}
	newR, err := pok.LoadBenchReport(newPath)
	if err != nil {
		fatal(err)
	}
	cmp := pok.CompareBenchReports(oldR, newR, tolerance)
	fmt.Print(cmp.Render())
	if cmp.Regressed() {
		os.Exit(1)
	}
}

// runTelemetry runs one benchmark under each headline machine with a
// telemetry recorder attached, prints the per-stage summaries, and
// writes the machine-readable telemetry_<config>.json files CI
// archives alongside the BENCH record.
func runTelemetry(opt pok.Options, outDir string, emit func(name, content string)) error {
	bench := "gzip"
	if len(opt.Benchmarks) > 0 {
		bench = opt.Benchmarks[0]
	}
	insts := opt.MaxInsts
	if insts == 0 {
		insts = 300_000
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	configs := []pok.Config{pok.BaseConfig(), pok.BitSliced(2), pok.BitSliced(4)}
	var report strings.Builder
	fmt.Fprintf(&report, "Pipeline telemetry: %s, %d insts\n", bench, insts)
	for _, cfg := range configs {
		rec := cfg.NewRecorder(0)
		cfg.Collector = rec
		r, err := pok.SimulateBenchmark(bench, cfg, insts)
		if err != nil {
			return err
		}
		fmt.Fprintf(&report, "\n--- %s (IPC %.4f) ---\n%s", cfg.Name, r.IPC, r.Telemetry.Render())
		if outDir != "" {
			blob, err := json.MarshalIndent(r.Telemetry, "", "  ")
			if err != nil {
				return err
			}
			path := filepath.Join(outDir, "telemetry_"+cfg.Name+".json")
			if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
				return err
			}
		}
	}
	emit("telemetry", report.String())
	return nil
}

// cpuModel reads the CPU model string from /proc/cpuinfo (Linux); the
// report field stays empty on other platforms or on any read error.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-bench:", err)
	os.Exit(1)
}
