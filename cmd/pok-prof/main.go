// pok-prof is the cycle-accounting and critical-path profiler over the
// telemetry event stream: it explains where a run's cycles went, and
// renders the stream as a per-instruction slice-pipeline timeline.
//
// Offline, it consumes JSONL event dumps written by pok-sim -events;
// live, it runs a benchmark itself with the streaming CPI-stack
// accountant attached (-bench/-config/-insts, no dump needed).
//
// Usage:
//
//	pok-sim -bench gzip -config slice2 -insts 20000 -events s2.jsonl
//	pok-sim -bench gzip -config slice4 -insts 20000 -events s4.jsonl
//	pok-prof -cpistack s2.jsonl            # one run's CPI stack
//	pok-prof -cpistack -compare s2.jsonl s4.jsonl   # side-by-side diff
//	pok-prof -critpath s4.jsonl            # longest dependence chain
//	pok-prof -perfetto trace.json s4.jsonl # Chrome trace-event export
//	pok-prof -cpistack -bench gzip -config slice4 -insts 20000  # live
//
// Any of the timeline flags selects the timeline — the textual
// analogue of the paper's Figure 1 wavefront diagram — instead:
//
//	pok-prof -rows 64 s4.jsonl               # first 64 instructions
//	pok-prof -from 1200 -to 1260 s4.jsonl    # a window of interest
//	pok-prof -stats s4.jsonl                 # event-kind census only
//	cat s4.jsonl | pok-prof -rows 64 -       # read from stdin
//
// Lane legend: F fetch, D dispatch, 0-7 slice issue, e full-width op,
// * several slices in one cycle, r replay, m memory issue, b/B branch
// resolve (B = early partial-compare resolution), C commit, S squash.
//
// -cpistack and -critpath refuse lossy dumps (the bounded ring dropped
// events): a partial stream would silently produce a wrong answer.
// Re-dump with pok-sim -prof, or a larger -events-cap, instead. Live
// mode is always exact.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"pok"
)

func main() {
	cpistack := flag.Bool("cpistack", false, "print the run's CPI stack (cycle accounting)")
	critpath := flag.Bool("critpath", false, "print the run's critical dependence path")
	perfetto := flag.String("perfetto", "", "write a Chrome trace-event (Perfetto) JSON to this file")
	compare := flag.Bool("compare", false, "diff the CPI stacks of two dumps side by side")
	steps := flag.Int("steps", 24, "critical-path hops to print (0 = all)")
	selfProf := flag.Bool("self", false, "overlay the profiler's own wall-time phases in the Perfetto export")
	bench := flag.String("bench", "", "live mode: run this benchmark instead of reading a dump")
	cfgName := flag.String("config", "slice4", "live mode: machine config (base, simple2, simple4, slice2, slice4)")
	insts := flag.Uint64("insts", 20_000, "live mode: instruction budget")
	fromSeq := flag.Uint64("from", 0, "timeline: first instruction sequence number to render")
	toSeq := flag.Uint64("to", 0, "timeline: last instruction sequence number (0 = unbounded)")
	fromCycle := flag.Int64("from-cycle", 0, "timeline: clip the horizontal axis to start at this cycle")
	toCycle := flag.Int64("to-cycle", 0, "timeline: clip the horizontal axis to end at this cycle (0 = auto)")
	rows := flag.Int("rows", 0, "timeline: maximum instruction rows (0 = 64)")
	cols := flag.Int("cols", 0, "timeline: maximum cycle columns (0 = 160)")
	statsOnly := flag.Bool("stats", false, "print an event-kind census of the stream")
	flag.Parse()

	timeline := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "from", "to", "from-cycle", "to-cycle", "rows", "cols":
			timeline = true
		}
	})
	if !*cpistack && !*critpath && *perfetto == "" && !timeline && !*statsOnly {
		*cpistack = true // the default question is "where did the cycles go"
	}

	sp := pok.NewSelfProfile()

	var runs []*run
	switch {
	case *bench != "":
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("live mode (-bench) takes no dump arguments"))
		}
		done := sp.Phase("simulate")
		keep := *critpath || *perfetto != "" || timeline || *statsOnly
		r, err := liveRun(*bench, *cfgName, *insts, keep)
		done()
		if err != nil {
			fatal(err)
		}
		runs = append(runs, r)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two dumps: pok-prof -compare a.jsonl b.jsonl"))
		}
		fallthrough
	default:
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: pok-prof [flags] dump.jsonl [dump2.jsonl]   (use - for stdin; or -bench for live mode)")
			flag.PrintDefaults()
			os.Exit(2)
		}
		done := sp.Phase("parse dumps")
		for _, path := range flag.Args() {
			r, err := loadDump(path)
			if err != nil {
				fatal(err)
			}
			runs = append(runs, r)
		}
		done()
	}

	if *compare {
		if len(runs) != 2 {
			fatal(fmt.Errorf("-compare needs exactly two runs"))
		}
		done := sp.Phase("cpi stacks")
		a, err := runs[0].stack()
		if err != nil {
			fatal(err)
		}
		b, err := runs[1].stack()
		if err != nil {
			fatal(err)
		}
		done()
		fmt.Print(pok.RenderCPIStackCompare(a, b))
		selfCheck(a)
		selfCheck(b)
	} else if *cpistack {
		done := sp.Phase("cpi stack")
		for _, r := range runs {
			st, err := r.stack()
			if err != nil {
				fatal(err)
			}
			fmt.Print(st.Render())
			selfCheck(st)
		}
		done()
	}

	if *critpath {
		done := sp.Phase("critical path")
		for _, r := range runs {
			if err := r.complete(); err != nil {
				fatal(err)
			}
			cp, err := pok.BuildCriticalPath(r.events)
			if err != nil {
				fatal(err)
			}
			if len(runs) > 1 {
				fmt.Printf("== %s\n", r.name)
			}
			fmt.Print(cp.Render(*steps))
		}
		done()
	}

	if timeline || *statsOnly {
		done := sp.Phase("timeline")
		for _, r := range runs {
			if len(runs) > 1 {
				fmt.Printf("== %s\n", r.name)
			}
			if *statsOnly {
				printStats(r.events)
				continue
			}
			fmt.Print(pok.RenderTimeline(r.events, pok.TimelineOptions{
				FromSeq: *fromSeq, ToSeq: *toSeq,
				FromCycle: *fromCycle, ToCycle: *toCycle,
				MaxRows: *rows, MaxCols: *cols,
			}))
		}
		done()
	}

	if *perfetto != "" {
		done := sp.Phase("perfetto export")
		f, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		opt := pok.PerfettoOptions{}
		if *selfProf {
			opt.Self = sp
		}
		if err := pok.WritePerfetto(f, runs[0].events, opt); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		done()
		fmt.Printf("wrote Perfetto trace to %s (load in ui.perfetto.dev)\n", *perfetto)
	}

	if *selfProf {
		fmt.Print(sp.Render())
	}
}

// run is one event stream (or a live run's stack) plus its labels and
// loss accounting.
type run struct {
	name      string
	benchmark string
	config    string
	cycles    int64
	dropped   uint64
	events    []pok.TelemetryEvent
	st        *pok.CPIStack // set by a live run
}

// complete refuses a stream the bounded ring dropped events from.
func (r *run) complete() error {
	if r.dropped > 0 {
		return fmt.Errorf("%s is lossy: the event ring dropped %d events, so the "+
			"analysis would be built from a partial stream and be wrong; "+
			"re-dump with pok-sim -prof or a larger -events-cap", r.name, r.dropped)
	}
	return nil
}

// stack returns the run's CPI stack, replaying a dump's stream.
func (r *run) stack() (*pok.CPIStack, error) {
	if r.st != nil {
		return r.st, nil
	}
	if err := r.complete(); err != nil {
		return nil, err
	}
	st, err := pok.BuildCPIStack(r.events, r.cycles)
	if err != nil {
		return nil, err
	}
	st.Benchmark, st.Config = r.benchmark, r.config
	return st, nil
}

// loadDump reads a JSONL dump ("-" = stdin), honouring the meta header
// when present.
func loadDump(path string) (*run, error) {
	var in io.Reader
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	meta, events, err := pok.ReadEventsDump(in)
	if err != nil {
		return nil, err
	}
	r := &run{name: path, events: events}
	if meta != nil {
		r.benchmark, r.config = meta.Benchmark, meta.Config
		r.cycles, r.dropped = meta.Cycles, meta.Dropped
	}
	if r.benchmark == "" {
		r.benchmark = path
	}
	return r, nil
}

// liveRun simulates the benchmark through the CPI-stack accountant.
// With keep set, a recorder with no ring bound is chained behind it so
// the run's complete event stream is kept for the other analyses.
func liveRun(bench, cfgName string, insts uint64, keep bool) (*run, error) {
	cfg, err := pok.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	var rec *pok.TelemetryRecorder
	if keep {
		rec = cfg.NewRecorder(math.MaxInt)
		cfg.Collector = rec
	}
	acct := pok.NewCPIAccountant(cfg.Collector)
	cfg.Collector = acct
	res, err := pok.SimulateBenchmark(bench, cfg, insts)
	if err != nil {
		return nil, err
	}
	st, err := acct.Stack(res.Cycles)
	if err != nil {
		return nil, err
	}
	st.Benchmark, st.Config = bench, cfgName
	r := &run{name: bench + "/" + cfgName, st: st}
	if rec != nil {
		r.events = rec.Events()
	}
	return r, nil
}

// selfCheck verifies the cycle-accounting invariant on every printed
// stack: attributed cycles must sum exactly to the run total (CI greps
// for the "100.00%" line).
func selfCheck(st *pok.CPIStack) {
	sum := st.Sum()
	if st.Cycles > 0 && sum == st.Cycles {
		fmt.Printf("accounted %d/%d cycles (100.00%%)\n", sum, st.Cycles)
		return
	}
	pct := 0.0
	if st.Cycles > 0 {
		pct = 100 * float64(sum) / float64(st.Cycles)
	}
	fmt.Printf("accounted %d/%d cycles (%.2f%%) — attribution mismatch\n", sum, st.Cycles, pct)
}

// printStats summarizes a stream: span, instruction count, and the
// per-kind event census.
func printStats(events []pok.TelemetryEvent) {
	if len(events) == 0 {
		fmt.Println("empty dump")
		return
	}
	counts := map[string]uint64{}
	seqs := map[uint64]bool{}
	lo, hi := events[0].Cycle, events[0].Cycle
	for _, ev := range events {
		counts[ev.Kind.String()]++
		seqs[ev.Seq] = true
		lo = min(lo, ev.Cycle)
		hi = max(hi, ev.Cycle)
	}
	fmt.Printf("%d events, %d instructions, cycles %d..%d\n",
		len(events), len(seqs), lo, hi)
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-15s %d\n", k, counts[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-prof:", err)
	os.Exit(1)
}
