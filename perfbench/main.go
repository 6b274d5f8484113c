// Command perfbench is the repository's benchmark. It times the
// simulator's layers from outside, through their public functions, on
// two workloads that each load a different layer (see NOTES.md):
//
//	bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
//
// A run sets its workload up three times, each time building it from the
// seed and running one untimed warm-up unit, then repeats units until
// --seconds of them have run. Untraced runs report the
// end-to-end metrics; traced runs (--trace 1) alternate traced and
// untraced units, time each layer's own functions on the same inputs,
// and report the per-layer metrics. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// unitResult is the outcome of one unit of a workload.
type unitResult struct {
	// total is the unit's host time.
	total time.Duration
	// insts counts simulated program instructions the unit advanced.
	insts uint64
	// ops and failed count operations (one simulation, or one program
	// of a campaign) and those that failed.
	ops, failed int
	// digest fingerprints every simulated outcome. Units that repeat the
	// same inputs, traced or not, must agree on it; it is empty where
	// each unit has inputs of its own.
	digest string
	// counts holds exact counts of the unit's simulated work.
	counts map[string]float64
	// layer holds per-layer figures measured on a traced unit.
	layer map[string]float64
}

// benchWorkload is one benchmark workload, built from the seed.
type benchWorkload interface {
	// unit runs one unit; tr is nil for an untraced unit.
	unit(tr *tracer) (unitResult, error)
	// probe times each layer's own public functions on the unit's
	// inputs (traced runs only). It returns per-layer figures and any
	// output it found incorrect.
	probe(tr *tracer) (map[string]float64, []string, error)
}

// newWorkload builds the named workload. small selects the tiny sizes
// the self-test uses; dir is a directory the workload may write to.
func newWorkload(name string, seed uint64, small bool, dir string) (benchWorkload, error) {
	switch name {
	case "ladder":
		return newLadder(seed, small)
	case "soak-fleet":
		return newSoakFleet(seed, small, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (ladder, soak-fleet)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every reported metric with its unit, in
// the order BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"sim_kips", "kinst/s"}, {"setup_s", "s"}, {"max_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"asm.ms", "ms"}, {"core.newsim_ms", "ms"}, {"emu.predecode_ms", "ms"},
	{"emu.ff_ms", "ms"}, {"emu.ff_minst_s", "Minst/s"},
	{"core.run_s", "s"}, {"core.kips.base", "kinst/s"}, {"core.kips.x2", "kinst/s"},
	{"core.kips.x4", "kinst/s"}, {"core.host_ns_per_cycle", "ns/cycle"},
	{"core.sim_ms_p50", "ms"}, {"core.sim_ms_p90", "ms"},
	{"core.insts", "count"}, {"core.cycles", "count"}, {"core.mispredicts", "count"},
	{"core.l1d_miss_rate", "ratio"},
	{"emu.warm_minst_s", "Minst/s"}, {"sample.window_ms", "ms"},
	{"check.ms_p50", "ms"}, {"check.overhead_x", "x"},
	{"telemetry.recorder_ms", "ms"}, {"telemetry.ring_mb", "MB"}, {"gen.ms", "ms"},
	{"soak.program_ms_p50", "ms"}, {"soak.program_ms_p90", "ms"},
	{"soak.runs", "count"}, {"soak.findings", "count"},
	{"ckpt.snapshots", "count"}, {"ckpt.encode_ms", "ms"}, {"ckpt.kb", "KB"},
	{"soak.cursor_write_ms", "ms"},
	{"serve.rpc_ms_p50.lease", "ms"}, {"serve.rpc_ms_p50.heartbeat", "ms"},
	{"serve.rpc_ms_p50.complete", "ms"}, {"serve.rpc_ms_p90", "ms"},
	{"serve.rpcs", "count"}, {"serve.rpc_retries", "count"},
	{"serve.journal_kb", "KB"}, {"metrics.snapshot_kb", "KB"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"box.probe_ms", "ms"}, {"trace.overhead_pct", "%"}, {"trace.remainder_ms", "ms"},
}

// report is everything one run measured.
type report struct {
	result
	spans    []span
	roots    []int // root span of every traced unit
	problems []string
}

// setups is how many times a run sets its workload up.
const setups = 3

// run builds a workload and measures it for the given number of seconds
// of units.
func run(build func() (benchWorkload, error), seconds float64, traced bool) (*report, error) {
	probeBefore := boxProbe()
	rep := &report{}
	// Set-up is everything before the timed units: building the
	// workload's inputs and one untimed warm-up unit, which pays for
	// every cache and lazy initialisation the later units reuse. It is
	// repeated and its median reported; the last workload built is the
	// one measured.
	var w benchWorkload
	var warm unitResult
	var setupSec []float64
	for i := 0; i < setups; i++ {
		debug.FreeOSMemory() // the probe's and earlier set-ups' memory is not this one's
		t0 := time.Now()
		var err error
		if w, err = build(); err != nil {
			return nil, err
		}
		if warm, err = w.unit(nil); err != nil {
			return nil, fmt.Errorf("warm-up unit: %w", err)
		}
		setupSec = append(setupSec, time.Since(t0).Seconds())
		rep.Attempted += warm.ops
		rep.Failed += warm.failed
	}
	fmt.Fprintf(os.Stderr, "setup_s %.3f\n", setupSec)
	var plain, withTrace []unitResult
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	budget := time.Duration(seconds * float64(time.Second))
	var timed time.Duration
	for i := 0; timed < budget || len(plain) == 0 || (traced && len(withTrace) == 0); i++ {
		// Every unit starts from a collected heap, so its time does not
		// depend on where the previous unit left the collector. Free
		// memory stays with the process, as in a long-running program:
		// returning it would add a page fault and a zeroed page to
		// every first touch.
		runtime.GC()
		var t *tracer
		if traced && i%2 == 1 {
			t = tr
		}
		var m0 runtime.MemStats
		if t != nil {
			runtime.ReadMemStats(&m0)
		}
		root := t.begin("unit", 0)
		u, err := w.unit(t)
		t.end(root)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		rep.Attempted += u.ops
		rep.Failed += u.failed
		if u.digest != warm.digest {
			rep.problems = append(rep.problems,
				fmt.Sprintf("unit %d outcome %s differs from the warm-up's %s", i, u.digest, warm.digest))
		}
		timed += u.total
		fmt.Fprintf(os.Stderr, "unit %d traced=%v: %.3fs\n", i, t != nil, u.total.Seconds())
		if t == nil {
			plain = append(plain, u)
			continue
		}
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		u.layer["go.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		u.layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		u.layer["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		_, rem := layerStack(tr.snapshot(), root)
		u.layer["trace.remainder_ms"] = ms(rem)
		withTrace = append(withTrace, u)
		rep.roots = append(rep.roots, root)
	}

	rep.Metrics = map[string]metric{}
	if !traced {
		wall, kips := typical(plain)
		vals := map[string]float64{
			"wall_s":     wall,
			"sim_kips":   kips,
			"setup_s":    median(setupSec),
			"max_rss_mb": maxRSSMB(),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		byName := map[string][]float64{}
		for _, u := range withTrace {
			for k, v := range u.layer {
				byName[k] = append(byName[k], v)
			}
			for k, v := range u.counts {
				byName[k] = append(byName[k], v)
			}
		}
		vals := map[string]float64{}
		for k, xs := range byName {
			vals[k] = median(xs)
		}
		pid := tr.begin("probe", 0)
		probed, problems, err := w.probe(tr)
		tr.end(pid)
		if err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		rep.problems = append(rep.problems, problems...)
		for k, v := range probed {
			vals[k] = v
		}
		tWall, _ := typical(withTrace)
		pWall, _ := typical(plain)
		vals["trace.overhead_pct"] = 100 * (tWall - pWall) / pWall
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		rep.spans = tr.snapshot()
		if err := checkNesting(rep.spans); err != nil {
			rep.problems = append(rep.problems, "trace: "+err.Error())
		}
	}
	probeAfter := boxProbe()
	fmt.Fprintf(os.Stderr, "box.probe_ms before=%v after=%v\n", probeBefore, probeAfter)
	if traced {
		rep.Metrics["box.probe_ms"] = metric{ms(probeBefore.total()+probeAfter.total()) / 2, "ms"}
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0
	return rep, nil
}

// typical estimates one unit's host seconds and its simulated
// instructions per host second (in thousands). Both are figures units
// actually took, so every cost of the program counts, the garbage
// collector's and any stall included.
//
// Where every unit repeats the same inputs (a non-empty digest), all
// variation between units is the machine's. The machine alternates
// between a contended state, most of the time, and an uncontended one
// about 1.5 times faster, in phases of half a minute to minutes
// (NOTES.md). The slowest unit reads the contended state unless the
// whole run sits in an uncontended phase, so it is the estimate. Where
// each unit has inputs of its own, units differ in work as well, and the
// median unit is the typical one.
func typical(units []unitResult) (seconds, kips float64) {
	var totals, rates []float64
	for _, u := range units {
		totals = append(totals, u.total.Seconds())
		rates = append(rates, float64(u.insts)/u.total.Seconds()/1e3)
	}
	if units[0].digest != "" {
		return quantile(totals, 1), quantile(rates, 0)
	}
	return median(totals), median(rates)
}

// writeSpans saves a traced run's spans and the self-time stack of each
// traced unit as JSON.
func writeSpans(path string, rep *report) error {
	type unitStack struct {
		Root        int                `json:"root"`
		WallMS      float64            `json:"wall_ms"`
		SelfMS      map[string]float64 `json:"self_ms"`
		RemainderMS float64            `json:"remainder_ms"`
	}
	var stacks []unitStack
	byID := map[int]span{}
	for _, s := range rep.spans {
		byID[s.ID] = s
	}
	for _, r := range rep.roots {
		self, rem := layerStack(rep.spans, r)
		st := unitStack{Root: r, WallMS: ms(byID[r].dur()), SelfMS: map[string]float64{}, RemainderMS: ms(rem)}
		for k, v := range self {
			st.SelfMS[k] = ms(v)
		}
		stacks = append(stacks, st)
	}
	b, err := json.Marshal(struct {
		Spans  []span      `json:"spans"`
		Stacks []unitStack `json:"stacks"`
	}{rep.spans, stacks})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	name := flag.String("workload", "", "workload: ladder or soak-fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "seconds of units to measure after the warm-up unit")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spansDir := flag.String("spans-dir", "", "traced runs write their spans here (empty = not written)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// One simulation at a time on one processor: host time then counts
	// all the work, the garbage collector's included.
	runtime.GOMAXPROCS(1)
	// A run must end well within three minutes even if a simulation
	// wedges; give up without a result instead.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(1)
	})

	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	code := func() int {
		defer os.RemoveAll(dir)
		switch *name {
		case "ladder", "soak-fleet":
		default:
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (ladder, soak-fleet)\n", *name)
			return 2
		}
		build := func() (benchWorkload, error) { return newWorkload(*name, *seed, false, dir) }
		rep, err := run(build, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sort.Strings(rep.problems)
		for _, p := range rep.problems {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
		}
		if *trace == 1 && *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
			if err := writeSpans(path, rep); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			}
		}
		b, err := json.Marshal(rep.result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}()
	os.Exit(code)
}
