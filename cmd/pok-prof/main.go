// pok-prof is the cycle-accounting and critical-path profiler over the
// telemetry event stream: it explains where a run's cycles went.
//
// Offline, it consumes JSONL event dumps written by pok-sim -events;
// live, it runs a benchmark itself with the profiling collector
// attached (-bench/-config/-insts, no dump needed).
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
// -critpath refuses lossy dumps (the bounded ring dropped events): a
// partial stream would silently produce a wrong path. Re-dump with a
// larger pok-sim -events-cap instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

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
	flag.Parse()

	if !*cpistack && !*critpath && *perfetto == "" {
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
		r, err := liveRun(*bench, *cfgName, *insts)
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
			if r.dropped > 0 {
				fatal(fmt.Errorf("%s is lossy: the event ring dropped %d events, so the "+
					"rebuilt dependence DAG would be incomplete and the reported path wrong; "+
					"re-dump with a larger pok-sim -events-cap", r.name, r.dropped))
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

// run is one event stream plus its labels and loss accounting.
type run struct {
	name      string
	benchmark string
	config    string
	cycles    int64
	dropped   uint64
	events    []pok.TelemetryEvent
}

// stack builds the run's CPI stack and prints nothing.
func (r *run) stack() (*pok.CPIStack, error) {
	st, err := pok.BuildCPIStack(r.events, r.cycles)
	if err != nil {
		return nil, err
	}
	st.Benchmark, st.Config = r.benchmark, r.config
	st.Lossy = r.dropped > 0
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

// liveRun simulates the benchmark with the profiling collector chained
// onto a standard recorder.
func liveRun(bench, cfgName string, insts uint64) (*run, error) {
	cfg, err := pok.ConfigByName(cfgName)
	if err != nil {
		return nil, err
	}
	lc := pok.NewProfileCollector(cfg.NewRecorder(0))
	cfg.Collector = lc
	res, err := pok.SimulateBenchmark(bench, cfg, insts)
	if err != nil {
		return nil, err
	}
	return &run{
		name:      bench + "/" + cfgName,
		benchmark: bench,
		config:    cfgName,
		cycles:    res.Cycles,
		events:    lc.Events(),
	}, nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pok-prof:", err)
	os.Exit(1)
}
