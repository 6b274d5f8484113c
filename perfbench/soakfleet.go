package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pok/internal/asm"
	"pok/internal/check"
	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/gen"
	"pok/internal/metrics"
	"pok/internal/serve"
	"pok/internal/soak"
)

// soakFleet submits a differential soak campaign to an in-process
// coordinator that journals to disk, and runs it on one in-process
// worker over loopback HTTP. The campaign uses the default config ×
// scheduler matrix with instruction checkpoints armed. Every unit starts
// a fresh fleet and runs a campaign of its own: the seed and the unit's
// index give the campaign's base seed, so a run's units together cover
// many programs and no one program's cost sets the median.
type soakFleet struct {
	seed  uint64
	spec  serve.SoakSpec // BaseSeed is set per unit
	dir   string
	units int
	// last is the latest unit's campaign and report is its merged
	// report, as JSON.
	last   serve.SoakSpec
	report []byte
}

func newSoakFleet(seed uint64, small bool, dir string) (*soakFleet, error) {
	spec := serve.SoakSpec{
		Programs: 8,
		InstCkpt: 256,
		// A finding already fails the operation; reducing it would only
		// stretch the run.
		NoReduce: true,
	}
	if small {
		spec.Programs = 2
	}
	return &soakFleet{seed: seed, spec: spec, dir: dir}, nil
}

// rpcTimer is the timing http.RoundTripper installed on the worker's
// client in traced units. A span ends when the response headers arrive.
type rpcTimer struct {
	next   http.RoundTripper
	tr     *tracer
	parent int

	mu   sync.Mutex
	byOp map[string][]float64 // milliseconds by RPC name
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	t1 := time.Now()
	op := path.Base(req.URL.Path)
	t.tr.async("serve."+op, t.parent, t0, t1)
	t.mu.Lock()
	t.byOp[op] = append(t.byOp[op], ms(t1.Sub(t0)))
	t.mu.Unlock()
	return resp, err
}

// fleet is one running coordinator, listener and worker.
type fleet struct {
	journal   *serve.Journal
	coord     *serve.Coordinator
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	submitter *serve.Client
	worker    *serve.Client
	cancel    context.CancelFunc
	waitCtx   context.Context
	done      chan struct{} // closed when the worker has returned
	workerErr error
}

// startFleet brings a fleet up in dir. rt, when non-nil, wraps the
// worker's transport.
func startFleet(dir string, rt *rpcTimer) (*fleet, error) {
	j, err := serve.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	coord := serve.NewCoordinator(time.Minute)
	if _, err := coord.AttachJournal(j); err != nil {
		j.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		j.Close()
		return nil, err
	}
	f := &fleet{journal: j, coord: coord, srv: &http.Server{Handler: coord.Handler()},
		served: make(chan struct{}), transport: &http.Transport{}, done: make(chan struct{})}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	base := "http://" + ln.Addr().String()
	f.submitter = serve.NewClient(base)
	f.submitter.HTTP = &http.Client{Transport: f.transport, Timeout: 30 * time.Second}
	f.worker = serve.NewClient(base)
	var wt http.RoundTripper = f.transport
	if rt != nil {
		rt.next = f.transport
		wt = rt
	}
	f.worker.HTTP = &http.Client{Transport: wt, Timeout: 30 * time.Second}
	w := &serve.Worker{Client: f.worker, Name: "perfbench", OutDir: filepath.Join(dir, "worker"),
		Poll: 2 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	waitCtx, stopWait := context.WithTimeout(context.Background(), 150*time.Second)
	f.cancel, f.waitCtx = cancel, waitCtx
	go func() {
		defer close(f.done)
		f.workerErr = w.Run(ctx)
		stopWait() // a worker that gives up ends the wait too
	}()
	return f, nil
}

// stop shuts the fleet down and waits for every goroutine it started.
func (f *fleet) stop() error {
	f.cancel()
	<-f.done
	err := f.srv.Close()
	<-f.served
	f.transport.CloseIdleConnections()
	if jerr := f.journal.Close(); err == nil {
		err = jerr
	}
	if f.workerErr != nil {
		return f.workerErr
	}
	return err
}

func (s *soakFleet) unit(tr *tracer) (unitResult, error) {
	u := unitResult{counts: map[string]float64{}, layer: map[string]float64{}}
	s.units++
	dir := filepath.Join(s.dir, fmt.Sprintf("unit%d", s.units))
	defer os.RemoveAll(dir)
	var rt *rpcTimer
	if tr != nil {
		rt = &rpcTimer{tr: tr, parent: tr.current(), byOp: map[string][]float64{}}
	}

	t0 := time.Now()
	sp := tr.begin("fleet.start", 0)
	f, err := startFleet(dir, rt)
	tr.end(sp)
	if err != nil {
		return u, err
	}

	spec := s.spec
	spec.BaseSeed = mix64(mix64(s.seed) + uint64(s.units))
	s.last = spec
	sp = tr.begin("serve.submit", 0)
	id, err := f.submitter.Submit(serve.JobSpec{Kind: "soak", Soak: &spec})
	tr.end(sp)
	var res *serve.JobResult
	if err == nil {
		sp = tr.begin("serve.wait", 0)
		res, err = f.submitter.Wait(f.waitCtx, id, 10*time.Millisecond)
		tr.end(sp)
	}
	u.total = time.Since(t0)
	var snap *metrics.Snapshot
	for _, jm := range f.coord.Metrics().Jobs {
		if jm.ID == id {
			snap = jm.Snapshot
		}
	}
	journalKB := dirKB(filepath.Join(dir, "journal"))
	if serr := f.stop(); err == nil {
		err = serr
	}

	u.ops = spec.Programs
	if err != nil || res == nil || res.Soak == nil || snap == nil {
		// The job failed, or the worker gave up: every program failed.
		u.failed = spec.Programs
		fmt.Fprintf(os.Stderr, "perfbench: campaign %#x failed: %v\n", spec.BaseSeed, err)
		return u, nil
	}
	rep := res.Soak
	if want := spec.Programs * len(rep.Configs) * len(rep.Schedulers); rep.Runs != want {
		u.failed = spec.Programs
	} else {
		bad := map[int]bool{}
		for _, fd := range rep.Findings {
			bad[fd.Program] = true
		}
		u.failed = len(bad)
	}
	u.insts = snap.Insts
	s.report, err = json.Marshal(rep)
	if err != nil {
		return u, err
	}
	u.counts["soak.runs"] = float64(rep.Runs)
	u.counts["soak.findings"] = float64(len(rep.Findings))
	if tr == nil {
		return u, nil
	}
	var all []float64
	for op, xs := range rt.byOp {
		all = append(all, xs...)
		u.layer["serve.rpc_ms_p50."+op] = median(xs)
	}
	u.layer["serve.rpc_ms_p90"] = quantile(all, 0.9)
	u.layer["serve.rpcs"] = float64(len(all))
	u.layer["serve.rpc_retries"] = float64(f.worker.Stats.Retries.Load())
	u.layer["serve.journal_kb"] = journalKB
	b, err := json.Marshal(snap)
	if err != nil {
		return u, err
	}
	u.layer["metrics.snapshot_kb"] = float64(len(b)) / 1024
	return u, nil
}

// encodeSink counts and encodes every snapshot of a checked run, as the
// fleet worker does when it publishes a resume cursor.
type encodeSink struct {
	n      int
	bytes  int
	encode time.Duration
	last   []byte
}

func (e *encodeSink) WantFull() bool { return true }

func (e *encodeSink) Write(s *ckpt.Snapshot) error {
	t0 := time.Now()
	e.last = ckpt.Encode(s)
	e.encode += time.Since(t0)
	e.n++
	e.bytes += len(e.last)
	return nil
}

// probe re-runs the campaign's layers one by one on the same programs:
// gen.New, cfg.NewRecorder, check.RunChecked with the same checkpoint
// cadence (encoding each snapshot), core.Run on the same program and
// config, a soak cursor write per program, and finally the whole
// campaign in a single process, whose report must equal the fleet's.
func (s *soakFleet) probe(tr *tracer) (map[string]float64, []string, error) {
	dir := filepath.Join(s.dir, "probe")
	defer os.RemoveAll(dir)
	opts := s.last.Options(filepath.Join(dir, "out"))
	var fleetRep soak.Report
	if err := json.Unmarshal(s.report, &fleetRep); err != nil {
		return nil, nil, err
	}
	var problems []string
	var genD, recD, checkD, coreD time.Duration
	var checkMS, cursorMS, ringMB []float64
	sink := &encodeSink{}
	for i := 0; i < opts.Programs; i++ {
		g := opts.Gen
		g.Seed = gen.ProgramSeed(opts.BaseSeed, i)
		sp := tr.begin("gen", i)
		t0 := time.Now()
		p := gen.New(g)
		genD += time.Since(t0)
		tr.end(sp)
		prog, err := asm.Assemble(p.Source())
		if err != nil {
			return nil, nil, fmt.Errorf("program %d: %w", i, err)
		}
		cell := 0
		for _, cfgName := range fleetRep.Configs {
			for _, sched := range fleetRep.Schedulers {
				cfg, err := soak.ConfigByName(cfgName)
				if err != nil {
					return nil, nil, err
				}
				cfg.LegacyScheduler = sched == "legacy"

				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				sp := tr.begin("telemetry.recorder", i)
				t0 := time.Now()
				cfg.NewRecorder(0)
				recD += time.Since(t0)
				tr.end(sp)
				runtime.ReadMemStats(&m1)
				ringMB = append(ringMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

				enc := sink.encode
				sink.last = nil
				sp = tr.begin("check.runchecked", i)
				t0 = time.Now()
				rep, err := check.RunChecked(prog, cfg, check.Options{
					Benchmark: fmt.Sprintf("gen-p%d", i), MaxInsts: opts.MaxInsts,
					CkptEvery: opts.CkptInsts, CkptSink: sink, KeepTelemetry: true})
				d := time.Since(t0) - (sink.encode - enc)
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}
				if !rep.OK {
					problems = append(problems, fmt.Sprintf("program %d %s/%s: checked run failed: %s",
						i, cfgName, sched, rep.FailKind))
				}
				checkD += d
				checkMS = append(checkMS, ms(d))

				sp = tr.begin("core.run", i)
				t0 = time.Now()
				_, err = core.Run(prog, cfg, opts.MaxInsts)
				coreD += time.Since(t0)
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}

				if sink.last != nil {
					sp = tr.begin("soak.cursor", i)
					t0 = time.Now()
					err := soak.SaveCheckpoint(filepath.Join(dir, "cursor.json"), &soak.Checkpoint{
						Version: 1, BaseSeed: opts.BaseSeed, NextProgram: i, NextCell: cell,
						CellSnap: sink.last})
					cursorMS = append(cursorMS, ms(time.Since(t0)))
					tr.end(sp)
					if err != nil {
						return nil, nil, err
					}
				}
				cell++
			}
		}
	}

	// The same campaign in one process, timed program by program.
	var progMS []float64
	last := time.Now()
	opts.Progress = func(next int, rep *soak.Report) (int, bool) {
		now := time.Now()
		progMS = append(progMS, ms(now.Sub(last)))
		last = now
		return 0, false
	}
	opts.Snapshot = func(int, *metrics.Snapshot) {}
	opts.CellCursor = func(_, _ int, _ *soak.Report, s *ckpt.Snapshot) bool {
		ckpt.Encode(s)
		return false
	}
	sp := tr.begin("soak.run", 0)
	solo, err := soak.Run(opts, false)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	soloJSON, err := json.Marshal(solo)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(soloJSON, s.report) {
		problems = append(problems, "fleet report differs from the single-process soak.Run of the same campaign")
	}

	runs := float64(len(checkMS))
	return map[string]float64{
		"gen.ms":                ms(genD),
		"telemetry.recorder_ms": ms(recD) / runs,
		"telemetry.ring_mb":     median(ringMB),
		"check.ms_p50":          median(checkMS),
		"check.overhead_x":      checkD.Seconds() / coreD.Seconds(),
		"ckpt.snapshots":        float64(sink.n),
		"ckpt.encode_ms":        ms(sink.encode),
		"ckpt.kb":               float64(sink.bytes) / 1024,
		"soak.cursor_write_ms":  median(cursorMS),
		"soak.program_ms_p50":   median(progMS),
		"soak.program_ms_p90":   quantile(progMS, 0.9),
	}, problems, nil
}
