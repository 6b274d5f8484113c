package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/metrics"
	"pok/internal/profile"
	"pok/internal/soak"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// Worker is one fleet worker process: it pulls cells from the
// coordinator, executes them in-process through the soak harness (or
// the timing core for bench cells), heartbeats after every program —
// the heartbeat cursor is the same resumable frontier a soak
// checkpoint records, so the coordinator can resume a dead worker's
// cell exactly — and keeps long reductions alive with a background
// keepalive ticker.
//
// Coordinator outages are survived, not fatal: a failed heartbeat
// buffers the cursor and the worker keeps computing up to
// LeaseReadahead programs past its last acknowledged cursor, then
// blocks retrying until the coordinator answers. Only an outage
// longer than OutageBudget (or a permanent RPC rejection) makes the
// worker abandon its cell and exit with an error. A cancelled context
// (SIGTERM) drains gracefully: the current program finishes, the
// final cursor is heartbeat, and the lease is released cleanly.
type Worker struct {
	// Client reaches the coordinator.
	Client *Client
	// Name identifies the worker in leases and on the dashboard.
	Name string
	// OutDir receives repro bundles (default "fleet-worker-out").
	OutDir string
	// Poll is the idle-queue poll interval (default 500ms).
	Poll time.Duration
	// MaxCells exits the loop after this many completed or abandoned
	// cells (0 = run until the context ends).
	MaxCells int
	// OutageBudget is how long the coordinator may stay continuously
	// unreachable before the worker gives its cell up for lost and
	// exits nonzero (0 = 2m).
	OutageBudget time.Duration
	// NoMetrics disables telemetry collection: no metrics.Snapshot is
	// accumulated or piggybacked on heartbeats. Metrics are on by
	// default because collection never changes results — findings stay
	// byte-identical either way (the soak snapshot hook reuses the
	// recorder every checked run already attaches).
	NoMetrics bool
	// Log receives one line per cell (nil = quiet).
	Log io.Writer

	heartbeatErrs  atomic.Int64
	cellsAbandoned atomic.Int64
	cellsReleased  atomic.Int64
	soakCkptErrs   atomic.Int64 // soak.Report.CkptErrs, summed over cells
	lastContact    atomic.Int64 // unix nanos of the last successful RPC
	captures       atomic.Int64 // mid-program resume snapshots captured
}

// statsSnapshot assembles the worker's self-reported robustness
// counters (attached to heartbeats, surfaced on /api/metrics).
func (w *Worker) statsSnapshot() *WorkerStats {
	return &WorkerStats{
		RPCRetries:      w.Client.Stats.Retries.Load(),
		TransportErrors: w.Client.Stats.TransportErrors.Load(),
		StatusErrors:    w.Client.Stats.StatusErrors.Load(),
		HeartbeatErrors: w.heartbeatErrs.Load(),
		CellsAbandoned:  w.cellsAbandoned.Load(),
		CellsReleased:   w.cellsReleased.Load(),
		SoakCkptErrs:    w.soakCkptErrs.Load(),
	}
}

func (w *Worker) outageBudget() time.Duration {
	if w.OutageBudget > 0 {
		return w.OutageBudget
	}
	return 2 * time.Minute
}

func (w *Worker) touchContact() {
	w.lastContact.Store(time.Now().UnixNano())
}

func (w *Worker) outageExceeded() bool {
	return time.Since(time.Unix(0, w.lastContact.Load())) > w.outageBudget()
}

// Run pulls and executes cells until ctx is cancelled (or MaxCells is
// reached). It returns nil on a clean shutdown and an error when the
// coordinator rejected the worker permanently or stayed unreachable
// past OutageBudget.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	w.touchContact()
	cells := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		a, err := w.Client.Lease(w.Name)
		if err != nil {
			if !Retryable(err) {
				return fmt.Errorf("serve: worker %s: lease: %w", w.Name, err)
			}
			if w.outageExceeded() {
				return fmt.Errorf("serve: worker %s: coordinator unreachable for over %s: %w",
					w.Name, w.outageBudget(), err)
			}
			// Transient outage: idle-wait and try again.
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(poll):
			}
			continue
		}
		w.touchContact()
		if a == nil {
			// Queue empty (or coordinator draining): idle-wait.
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(poll):
			}
			continue
		}
		w.logf("cell %s/%d [%d,%d) leased\n", a.Job, a.Cell, a.Start, a.End)
		if err := w.runCell(ctx, a); err != nil {
			return err
		}
		cells++
		if w.MaxCells > 0 && cells >= w.MaxCells {
			return nil
		}
	}
}

func (w *Worker) runCell(ctx context.Context, a *Assignment) error {
	switch a.Kind {
	case "soak":
		return w.runSoakCell(ctx, a)
	case "bench":
		return w.runBenchCell(ctx, a)
	default:
		_ = w.Client.Fail(a.Lease, w.Name, fmt.Sprintf("unknown cell kind %q", a.Kind))
		return nil
	}
}

// Test seams: encodeSnapshot serializes a held resume snapshot (the
// lazy-encoding tests count encodes), keepaliveSent observes each
// keepalive heartbeat with the age of the position it carries, and
// benchRecorder builds a bench cell's recorder.
var (
	encodeSnapshot = ckpt.Encode
	keepaliveSent  = func(Heartbeat, cursorAge) {}
	benchRecorder  = func(cfg *core.Config) *telemetry.Recorder { return cfg.NewRecorder(-1) }
)

// cellProgress is the shared progress snapshot the per-program hook
// writes and the keepalive ticker reads.
type cellProgress struct {
	mu       sync.Mutex
	cursor   int
	runs     int
	findings []soak.Finding
	// snap is the latest metrics accumulator clone from the soak
	// snapshot hook. The clone is owned by this struct and read-only
	// from here on, so sharing the pointer across heartbeats is safe.
	snap *metrics.Snapshot
	// mid is the instruction-granular position inside the program
	// `cursor` stands on (InstCkpt jobs only); cleared at every program
	// boundary. It holds the captured snapshot unencoded: most are
	// superseded before any heartbeat carries them.
	mid *midCursor
	// at is when the freshest resumable position (a program boundary
	// or mid) was published; fresh is when a drain last found it young
	// enough to skip a capture (see due).
	at, fresh time.Time
}

// cursorAge is how old a heartbeat's resume position is, and how long
// ago a drain last found it young enough.
type cursorAge struct {
	Age, SinceFresh time.Duration
}

// midCursor is a captured mid-program snapshot and its (program, matrix
// cell) position. The snapshot shares no memory with the running
// machine (see ckpt.Sink), so it can be encoded later, outside any
// lock; resume encodes it once, on the first heartbeat or release that
// sends it, and every later send reuses the bytes.
type midCursor struct {
	program, cell int
	snap          *ckpt.Snapshot

	once sync.Once
	rc   *ResumeCursor
}

func (m *midCursor) resume() *ResumeCursor {
	m.once.Do(func() {
		m.rc = &ResumeCursor{Program: m.program, Cell: m.cell, Snap: encodeSnapshot(m.snap)}
	})
	return m.rc
}

func (p *cellProgress) set(cursor, runs int, findings []soak.Finding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cursor = cursor
	p.runs = runs
	p.findings = append([]soak.Finding(nil), findings...)
	p.mid = nil
	p.at = time.Now()
}

// setMid publishes a mid-program position: the campaign is inside
// matrix cell `cell` of program `program` (which becomes the cursor —
// it is not complete), and s is the captured snapshot to resume it
// from.
func (p *cellProgress) setMid(runs int, findings []soak.Finding, program, cell int, s *ckpt.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cursor = program
	p.runs = runs
	p.findings = append([]soak.Finding(nil), findings...)
	p.mid = &midCursor{program: program, cell: cell, snap: s}
	p.at = time.Now()
}

// due is asked at every periodic drain: it reports whether the
// freshest position is older than maxAge, so the drain must capture a
// new one. A position is therefore never more than maxAge older than
// the last drain that skipped its capture, which is at most one drain
// (and its capture) ago: a heartbeat's position is at most maxAge plus
// one drain old.
func (p *cellProgress) due(maxAge time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if now.Sub(p.at) > maxAge {
		return true
	}
	p.fresh = now
	return false
}

func (p *cellProgress) setSnap(snap *metrics.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snap = snap
}

func (p *cellProgress) snapshot() *metrics.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

// program reports the cursor without building a heartbeat.
func (p *cellProgress) program() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cursor
}

// heartbeat assembles the report to send and the age of the position
// it carries. A mid-program snapshot is encoded after the lock is
// released, so the soak hook never waits on an encode.
func (p *cellProgress) heartbeat(lease, worker string) (Heartbeat, cursorAge) {
	p.mu.Lock()
	hb := Heartbeat{
		Lease: lease, Worker: worker,
		Cursor: p.cursor, Runs: p.runs,
		Findings: append([]soak.Finding(nil), p.findings...),
		Snapshot: p.snap,
	}
	now := time.Now()
	age := cursorAge{Age: now.Sub(p.at), SinceFresh: now.Sub(p.fresh)}
	mid := p.mid
	p.mu.Unlock()
	if mid != nil {
		hb.Resume = mid.resume()
	}
	return hb, age
}

func (w *Worker) runSoakCell(ctx context.Context, a *Assignment) error {
	spec := a.Spec.Soak
	if spec == nil {
		_ = w.Client.Fail(a.Lease, w.Name, "soak cell without soak spec")
		return nil
	}
	outDir := w.OutDir
	if outDir == "" {
		outDir = "fleet-worker-out"
	}
	opts := spec.Options(outDir)
	opts.StartProgram = a.Start
	opts.Programs = a.End

	now := time.Now()
	prog := &cellProgress{cursor: a.Start, at: now, fresh: now}
	if r := a.Resume; r != nil && r.Program == a.Start {
		// A previous lease of this cell stopped mid-program, and the
		// cell's committed runs and findings already cover the matrix
		// cells before r.Cell: always skip those. Cell r.Cell continues
		// from the drained snapshot when one decodes (a cursor replayed
		// from the journal has none) and reruns from its start
		// otherwise.
		opts.StartCell = r.Cell
		if s, err := ckpt.Decode(r.Snap); err == nil {
			opts.StartSnap = s
			w.logf("cell %s/%d resuming p%d mid-matrix at cell %d\n",
				a.Job, a.Cell, r.Program, r.Cell)
		} else {
			w.logf("cell %s/%d no usable resume snapshot (%v); rerunning p%d cell %d from its start\n",
				a.Job, a.Cell, err, r.Program, r.Cell)
		}
	}
	if !w.NoMetrics {
		// The soak hook fires right before Progress with a fresh clone,
		// so the synchronous per-program heartbeat below always carries
		// the accumulator that includes the program it reports. RPC
		// health counters are filled as per-lease deltas: like every
		// other snapshot field they then cover a disjoint span per
		// lease, so the coordinator's merge across cells stays exact.
		baseRetries := w.Client.Stats.Retries.Load()
		baseTransport := w.Client.Stats.TransportErrors.Load()
		opts.Snapshot = func(next int, snap *metrics.Snapshot) {
			snap.RPCRetries = w.Client.Stats.Retries.Load() - baseRetries
			snap.TransportErrors = w.Client.Stats.TransportErrors.Load() - baseTransport
			prog.setSnap(snap)
		}
	}
	var abandoned, released atomic.Bool
	var end, acked atomic.Int64
	end.Store(int64(a.End))
	acked.Store(int64(a.Start))
	if spec.InstCkpt > 0 {
		// Capture a snapshot only when a keepalive could need it: when
		// the freshest position is older than half a keepalive
		// interval, or when the cell must stop, so the drain-stop
		// fires at this drain. Every other drain copies nothing.
		maxAge := keepaliveInterval(a.LeaseTTL) / 2
		opts.CursorDue = func() bool {
			return abandoned.Load() || ctx.Err() != nil || prog.due(maxAge)
		}
		// Publish every captured snapshot as the heartbeat's
		// instruction-granular cursor, and turn a cancelled context or
		// a lost lease into a drain-stop at this snapshot boundary —
		// the mid-program analogue of the Progress drain below. The
		// keepalive ticker carries the cursor upward; no synchronous
		// RPC here, snapshots are too frequent for that.
		opts.CellCursor = func(program, cell int, rep *soak.Report, s *ckpt.Snapshot) bool {
			w.captures.Add(1)
			prog.setMid(rep.Runs, rep.Findings, program, cell, s)
			return abandoned.Load() || ctx.Err() != nil
		}
	}
	var permMu sync.Mutex
	var permErr error
	setPerm := func(err error) {
		permMu.Lock()
		if permErr == nil {
			permErr = err
		}
		permMu.Unlock()
		abandoned.Store(true)
	}

	// Keepalive: a single reduction can run far longer than the lease
	// TTL, so a background ticker extends the lease between the
	// per-program heartbeats. It also doubles as the retry loop that
	// re-establishes contact while the per-program hook is computing
	// through an outage with a buffered cursor.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(keepaliveInterval(a.LeaseTTL))
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				hb, age := prog.heartbeat(a.Lease, w.Name)
				keepaliveSent(hb, age)
				hb.Stats = w.statsSnapshot()
				reply, err := w.Client.Heartbeat(hb)
				if err != nil {
					w.heartbeatErrs.Add(1)
					continue
				}
				w.touchContact()
				if reply.Cancel {
					abandoned.Store(true)
				} else {
					if int64(hb.Cursor) > acked.Load() {
						acked.Store(int64(hb.Cursor))
					}
					end.Store(int64(reply.End))
				}
			}
		}
	}()

	// The per-program hook: publish the cursor, heartbeat
	// synchronously, and apply the returned end bound — this is where
	// a stolen tail takes effect, where a lost lease aborts the cell,
	// and where a coordinator outage is ridden out. A failed heartbeat
	// does not abandon the cell: the cursor stays buffered and the
	// worker keeps computing up to LeaseReadahead programs past the
	// last acknowledged cursor (the bound that keeps work stealing
	// overlap-free), then blocks retrying until the coordinator
	// answers, the outage budget runs out, or the run is cancelled.
	opts.Progress = func(next int, rep *soak.Report) (int, bool) {
		prog.set(next, rep.Runs, rep.Findings)
		for {
			if abandoned.Load() {
				return 0, true
			}
			if ctx.Err() != nil {
				// Graceful drain: this program is finished; hand the
				// lease back with the final cursor and stop.
				w.releaseCell(a, prog)
				released.Store(true)
				return 0, true
			}
			hb, _ := prog.heartbeat(a.Lease, w.Name)
			hb.Stats = w.statsSnapshot()
			reply, err := w.Client.Heartbeat(hb)
			if err == nil {
				w.touchContact()
				if reply.Cancel {
					abandoned.Store(true)
					return 0, true
				}
				if int64(hb.Cursor) > acked.Load() {
					acked.Store(int64(hb.Cursor))
				}
				end.Store(int64(reply.End))
				return reply.End, false
			}
			w.heartbeatErrs.Add(1)
			if !Retryable(err) {
				setPerm(fmt.Errorf("serve: worker %s: heartbeat rejected: %w", w.Name, err))
				return 0, true
			}
			if w.outageExceeded() {
				setPerm(fmt.Errorf("serve: worker %s: coordinator unreachable for over %s: %w",
					w.Name, w.outageBudget(), err))
				return 0, true
			}
			if int64(next) <= acked.Load()+LeaseReadahead {
				// Within the readahead bound: keep computing against
				// the last known end; the keepalive ticker keeps
				// retrying behind us.
				return int(end.Load()), false
			}
			// Readahead exhausted: block here and retry until contact
			// is re-established.
			select {
			case <-ctx.Done():
			case <-time.After(250 * time.Millisecond):
			}
		}
	}

	rep, err := soak.Run(opts, false)
	close(stop)
	wg.Wait()
	if rep != nil && rep.CkptErrs > 0 {
		w.soakCkptErrs.Add(int64(rep.CkptErrs))
		w.logf("cell %s/%d: %d checkpoint write failures (last: %s)\n",
			a.Job, a.Cell, rep.CkptErrs, rep.LastCkptErr)
	}
	permMu.Lock()
	perm := permErr
	permMu.Unlock()
	switch {
	case err != nil:
		_ = w.Client.Fail(a.Lease, w.Name, err.Error())
		w.logf("cell %s/%d failed: %v\n", a.Job, a.Cell, err)
	case released.Load():
		w.logf("cell %s/%d released at cursor %d (drain)\n", a.Job, a.Cell, rep.Programs)
	case perm != nil:
		w.cellsAbandoned.Add(1)
		w.logf("cell %s/%d abandoned: %v\n", a.Job, a.Cell, perm)
		return perm
	case abandoned.Load():
		w.cellsAbandoned.Add(1)
		w.logf("cell %s/%d abandoned (lease lost)\n", a.Job, a.Cell)
	case rep.Stopped:
		// Drain-stopped between program boundaries (cancelled context
		// caught at a snapshot): hand the lease back with the
		// instruction-granular cursor so the next lease resumes
		// mid-program.
		w.releaseCell(a, prog)
		w.logf("cell %s/%d released mid-program at p%d (drain)\n",
			a.Job, a.Cell, prog.program())
	default:
		final := int(end.Load())
		cErr := w.Client.Complete(CellResult{
			Lease: a.Lease, Worker: w.Name,
			Cursor: final, Runs: rep.Runs, Findings: rep.Findings,
			Snapshot: prog.snapshot(),
		})
		switch {
		case cErr == nil:
			w.touchContact()
			w.logf("cell %s/%d done: %d runs, %d findings\n",
				a.Job, a.Cell, rep.Runs, len(rep.Findings))
		case Retryable(cErr):
			// The client's own retries are exhausted: the results are
			// lost with the lease, which will expire and requeue.
			w.cellsAbandoned.Add(1)
			w.logf("cell %s/%d complete unreachable, abandoning: %v\n", a.Job, a.Cell, cErr)
			if w.outageExceeded() {
				return fmt.Errorf("serve: worker %s: coordinator unreachable for over %s: %w",
					w.Name, w.outageBudget(), cErr)
			}
		default:
			w.logf("cell %s/%d complete rejected: %v\n", a.Job, a.Cell, cErr)
		}
	}
	return nil
}

// releaseCell heartbeats the final cursor and hands the lease back —
// the graceful-drain path for a SIGTERM'd worker.
func (w *Worker) releaseCell(a *Assignment, prog *cellProgress) {
	hb, _ := prog.heartbeat(a.Lease, w.Name)
	hb.Stats = w.statsSnapshot()
	if _, err := w.Client.Heartbeat(hb); err != nil {
		w.heartbeatErrs.Add(1)
		w.logf("cell %s/%d final heartbeat failed: %v\n", a.Job, a.Cell, err)
	}
	err := w.Client.Release(ReleaseRequest{
		Lease: a.Lease, Worker: w.Name,
		Cursor: hb.Cursor, Runs: hb.Runs, Findings: hb.Findings,
		Snapshot: hb.Snapshot,
		Resume:   hb.Resume,
	})
	if err != nil {
		w.logf("cell %s/%d release failed (lease will expire): %v\n", a.Job, a.Cell, err)
		return
	}
	w.cellsReleased.Add(1)
}

func (w *Worker) runBenchCell(ctx context.Context, a *Assignment) error {
	spec := a.Spec.Bench
	if spec == nil {
		_ = w.Client.Fail(a.Lease, w.Name, "bench cell without bench spec")
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(keepaliveInterval(a.LeaseTTL))
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				_, err := w.Client.Heartbeat(Heartbeat{
					Lease: a.Lease, Worker: w.Name, Cursor: a.Start,
					Stats: w.statsSnapshot(),
				})
				if err != nil {
					w.heartbeatErrs.Add(1)
					w.logf("cell %s/%d keepalive heartbeat failed: %v\n", a.Job, a.Cell, err)
					continue
				}
				w.touchContact()
			}
		}
	}()
	rows, snap, err := runBench(a.Benchmark, spec, !w.NoMetrics)
	close(stop)
	wg.Wait()
	if err != nil {
		_ = w.Client.Fail(a.Lease, w.Name, err.Error())
		return nil
	}
	_ = w.Client.Complete(CellResult{
		Lease: a.Lease, Worker: w.Name, Cursor: a.End, Rows: rows,
		Snapshot: snap,
	})
	w.logf("cell %s/%d done: %s, %d rows\n", a.Job, a.Cell, a.Benchmark, len(rows))
	return nil
}

// runBench simulates one benchmark under every config of the spec with
// its standard fast-forward (the same path pok.SimulateBenchmark
// takes). With collect set it attaches a telemetry recorder and a
// streaming CPI-stack accountant per run and folds both into the
// returned snapshot. The cell reads only the recorder's counters and
// histograms and the accountant's stack, so the recorder keeps no
// events. Both only observe, so BenchRows match the collector-less run
// exactly.
func runBench(bench string, spec *BenchSpec, collect bool) ([]BenchRow, *metrics.Snapshot, error) {
	wl, err := workload.Get(bench)
	if err != nil {
		return nil, nil, err
	}
	prog, err := wl.Program(wl.DefaultScale)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]BenchRow, 0, len(spec.Configs))
	var snap *metrics.Snapshot
	if collect {
		snap = &metrics.Snapshot{}
	}
	for _, name := range spec.Configs {
		cfg, err := soak.ConfigByName(name)
		if err != nil {
			return nil, nil, err
		}
		var rec *telemetry.Recorder
		var acct *profile.Accountant
		if collect {
			rec = benchRecorder(&cfg)
			acct = profile.NewAccountant(rec)
			cfg.Collector = acct
		}
		t0 := time.Now()
		r, err := core.RunWarm(prog, cfg, wl.FastForward, spec.MaxInsts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s: %w", bench, name, err)
		}
		if acct != nil {
			stack, err := acct.Stack(r.Cycles)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s: %w", bench, name, err)
			}
			stack.Benchmark, stack.Config = bench, name
			snap.AddRun(name, r.Insts, r.Cycles, r.Replays, stack, rec.Summary(), time.Since(t0))
		}
		rows = append(rows, BenchRow{
			Benchmark: bench, Config: name,
			IPC: r.IPC, Cycles: r.Cycles, Insts: r.Insts,
		})
	}
	return rows, snap, nil
}

// keepaliveInterval paces the background lease extension at a third of
// the TTL, floored so a tiny test TTL doesn't spin.
func keepaliveInterval(ttl time.Duration) time.Duration {
	return max(ttl/3, 20*time.Millisecond)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "%s: "+format, append([]any{w.Name}, args...)...)
	}
}
