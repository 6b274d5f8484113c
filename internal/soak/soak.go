// Package soak drives the random-program differential soak: generated
// PISA programs (internal/gen) run through emulator-vs-core lockstep
// verification (internal/check) across a machine-config × scheduler ×
// fault-injection-seed matrix, with per-run wall-clock watchdogs and
// panic recovery — a generator or core panic is a *finding* attributed
// to its seed, not a crash. Any divergence, invariant violation,
// deadlock, panic or timeout is delta-debugged down to a minimal body
// (internal/check/reduce) and written out as a self-contained repro
// bundle. A checkpoint file makes multi-hour soaks resumable.
//
// cmd/pok-soak is the CLI.
package soak

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"pok/internal/check"
	"pok/internal/check/inject"
	"pok/internal/check/reduce"
	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/gen"
	"pok/internal/metrics"
	"pok/internal/workload"
)

// Options configures one soak campaign.
type Options struct {
	// BaseSeed keys the whole campaign: program i is generated from
	// gen.ProgramSeed(BaseSeed, i).
	BaseSeed uint64
	// Programs is the number of programs to generate (0 with Duration
	// set = until the time box expires). With StartProgram set it is
	// the exclusive end index instead — the campaign covers program
	// indices [StartProgram, Programs).
	Programs int
	// StartProgram is the first program index to run (default 0). The
	// fleet coordinator (internal/serve) shards a campaign into
	// [start, end) cells with it; because a program's seed is a pure
	// function of (BaseSeed, index), the union of the cells covers
	// exactly the programs a single-process run covers.
	StartProgram int
	// Duration time-boxes the soak (0 = no box). When both Programs
	// and Duration are set, whichever limit hits first ends the run.
	Duration time.Duration
	// Configs names the machine configs to differentially execute
	// (default: simple4, slice2, slice4).
	Configs []string
	// Schedulers selects "event", "legacy" or both (default both).
	Schedulers []string
	// InjectSeeds is the number of fault-injection campaigns per
	// (program, config, scheduler) cell beyond the clean run (default
	// 0: clean only).
	InjectSeeds int
	// Inject carries the base injection rates; its Seed is overridden
	// per campaign. The zero value with InjectSeeds > 0 gets default
	// rates (see defaultInject).
	Inject inject.Options
	// Hook, when non-nil, seeds a deliberate fault (the inject
	// corrupt/wedge test hooks) into every clean cell — the end-to-end
	// proof that the soak catches a failure, the reducer shrinks it,
	// and the bundle replays it.
	Hook *inject.Options
	// MaxInsts bounds each checked run (0 = run to completion; every
	// generated program terminates by construction).
	MaxInsts uint64
	// Watchdog bounds each run's wall clock (default 30s).
	Watchdog time.Duration
	// Retries re-attempts a timed-out run before recording the finding
	// (default 1 retry; timeouts on loaded CI machines are otherwise
	// indistinguishable from livelocks).
	Retries int
	// NoReduce skips delta-debugging of findings.
	NoReduce bool
	// ReduceMaxTests caps candidate evaluations per reduction
	// (default 400).
	ReduceMaxTests int
	// MaxFindings stops the soak early once this many findings are
	// recorded (default 20; a broken build would otherwise reduce
	// thousands of identical failures).
	MaxFindings int
	// OutDir receives repro bundles under OutDir/repros (default
	// "soak-out"; empty string with WriteBundles false writes nothing).
	OutDir string
	// Checkpoint is the checkpoint file path ("" = no checkpointing).
	Checkpoint string
	// CheckpointEvery snapshots after this many programs (default 25).
	CheckpointEvery int
	// CkptInsts arms instruction-granular architectural checkpointing
	// inside every detection run: each checked run snapshots its
	// complete state every CkptInsts committed instructions (the
	// internal/ckpt drain checkpoints), so long programs become
	// resumable mid-run — the campaign checkpoint records the cell
	// cursor plus the snapshot, and the CellCursor hook observes it.
	// Checkpoint drains perturb run timing deterministically, so
	// cycle-dependent finding details are byte-identical only across
	// runs with the same cadence (CkptInsts is therefore part of the
	// checkpoint signature). Reduction candidate runs never checkpoint.
	// 0 = off.
	CkptInsts uint64
	// StartCell resumes the campaign's first program mid-matrix: cells
	// with flat index below StartCell (config-major, then scheduler,
	// then injection seed) are skipped — they are already covered by the
	// caller's carried-over Runs/Findings — and cell StartCell resumes
	// from StartSnap when non-nil. The fleet worker fills these from a
	// requeued assignment's resume cursor; file-checkpoint resume fills
	// them from NextCell/CellSnap.
	StartCell int
	StartSnap *ckpt.Snapshot
	// CellCursor, when non-nil and CkptInsts is armed, observes every
	// captured mid-run snapshot of a detection run with the program
	// index, the flat cell index and the report so far
	// (rep.Runs/rep.Findings cover everything before this cell).
	// Returning stop=true requests a
	// drain-stop: the in-flight run finalizes at this checkpoint
	// boundary, the campaign checkpoint keeps the mid-program cursor,
	// and Run returns with Report.Stopped set — the instruction-granular
	// SIGINT/drain path.
	CellCursor func(program, cell int, rep *Report, snap *ckpt.Snapshot) (stop bool)
	// CursorDue, when non-nil, is asked at every periodic drain of a
	// detection run whether that drain's snapshot is needed; false
	// skips the capture, and with it the cursor-file write and the
	// CellCursor call (a drain-stop's final snapshot is always taken).
	// Nil captures every snapshot. Capture never changes run timing,
	// so findings are the same either way.
	CursorDue func() bool
	// Gen shapes the generated programs; Seed is overridden per
	// program.
	Gen gen.Options
	// RegisterWorkloads registers each generated program as an ad-hoc
	// workload (workload.RegisterAdHoc) so downstream tools can address
	// it by name ("gen-p<index>").
	RegisterWorkloads bool
	// Log receives one progress line per program (nil = quiet).
	Log io.Writer
	// Progress, when non-nil, is called after every completed program
	// with the next program index and the report so far (findings and
	// runs are cumulative for this campaign). A returned newEnd in
	// (0, current end) lowers the campaign's end bound — the fleet
	// coordinator uses this to steal the tail of a running cell — and
	// stop=true aborts the campaign after checkpointing. Raising the
	// bound is ignored. Excluded from the checkpoint signature, like
	// the other pacing knobs.
	Progress func(next int, rep *Report) (newEnd int, stop bool)
	// Snapshot, when non-nil, turns on metrics collection: each checked
	// run keeps its telemetry (check.Options.KeepTelemetry) and is
	// folded into a cumulative metrics.Snapshot (CPI stacks per config,
	// occupancy histograms, throughput). The hook is called after every
	// completed program, right before Progress, with the next program
	// index and an independent clone of the accumulator — the fleet
	// worker piggybacks it on heartbeats. Collection never changes run
	// results: findings stay byte-identical with the hook on or off
	// (TestSnapshotFindingsEquivalence).
	Snapshot func(next int, snap *metrics.Snapshot)
}

func (o Options) withDefaults() Options {
	if len(o.Configs) == 0 {
		o.Configs = []string{"simple4", "slice2", "slice4"}
	}
	if len(o.Schedulers) == 0 {
		o.Schedulers = []string{"event", "legacy"}
	}
	if o.Watchdog == 0 {
		o.Watchdog = 30 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 1
	}
	if o.ReduceMaxTests == 0 {
		o.ReduceMaxTests = 400
	}
	if o.MaxFindings == 0 {
		o.MaxFindings = 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 25
	}
	if o.OutDir == "" {
		o.OutDir = "soak-out"
	}
	if o.InjectSeeds > 0 && o.Inject == (inject.Options{}) {
		o.Inject = defaultInject()
	}
	return o
}

// defaultInject mirrors pok-check's default recoverable-fault rates.
func defaultInject() inject.Options {
	return inject.Options{
		SliceFlipRate: 0.02,
		WayMissRate:   0.10,
		ConflictRate:  0.05,
		StormEvery:    20_000,
		StormLen:      8,
	}
}

// ConfigByName resolves a soak config name to a machine configuration.
func ConfigByName(name string) (core.Config, error) {
	switch name {
	case "base", "ideal":
		return core.BaseConfig(), nil
	case "simple2":
		return core.SimplePipelined(2), nil
	case "simple4":
		return core.SimplePipelined(4), nil
	case "slice2", "bitslice2":
		return core.BitSliced(2), nil
	case "slice4", "bitslice4":
		return core.BitSliced(4), nil
	}
	return core.Config{}, fmt.Errorf("soak: unknown config %q (base, simple2, simple4, slice2, slice4)", name)
}

// Finding is one failure observed by the soak, attributed to the exact
// (program seed, config, scheduler, injection seed) cell that produced
// it. Field order and content are wall-clock-free so a findings report
// is byte-identical across reruns of the same campaign.
type Finding struct {
	Program    int    `json:"program"`
	Seed       uint64 `json:"seed"`
	Config     string `json:"config"`
	Scheduler  string `json:"scheduler"`
	InjectSeed uint64 `json:"inject_seed,omitempty"`
	Kind       string `json:"kind"`
	Field      string `json:"field,omitempty"`
	Detail     string `json:"detail,omitempty"`
	// ReducedInsts is the instruction count of the minimized body
	// (-1: reduction skipped or not attempted).
	ReducedInsts int `json:"reduced_insts"`
	// ReduceTests is how many candidate runs the reducer spent.
	ReduceTests int `json:"reduce_tests,omitempty"`
	// Bundle is the repro-bundle directory, relative to OutDir.
	Bundle string `json:"bundle,omitempty"`
}

// Report is the machine-readable outcome of one soak campaign.
type Report struct {
	BaseSeed    uint64    `json:"base_seed"`
	Programs    int       `json:"programs"`
	Configs     []string  `json:"configs"`
	Schedulers  []string  `json:"schedulers"`
	InjectSeeds int       `json:"inject_seeds"`
	Runs        int       `json:"runs"`
	Findings    []Finding `json:"findings"`
	// Resumed reports whether this campaign continued from a
	// checkpoint (informational; does not affect coverage).
	Resumed bool `json:"resumed,omitempty"`
	// Stopped reports that the campaign was drain-stopped early (a
	// CellCursor or Progress hook returned stop) rather than running
	// its program range to exhaustion; the checkpoint file, when
	// configured, holds the resumable cursor.
	Stopped bool `json:"stopped,omitempty"`
	// CkptErrs counts checkpoint-file writes that failed during the
	// campaign; LastCkptErr is the most recent failure. Losing a
	// cursor must not kill a multi-hour soak, so these are surfaced
	// instead of returned as errors — and excluded from the JSON so
	// findings reports stay byte-identical whether or not the disk
	// hiccupped.
	CkptErrs    int    `json:"-"`
	LastCkptErr string `json:"-"`
}

// Run executes the soak campaign. When resume is true and opts.Checkpoint
// exists, the campaign continues from the checkpointed cursor with the
// checkpointed findings; otherwise it starts fresh. The returned error
// covers setup problems only — failures found by the soak are Findings.
func Run(opts Options, resume bool) (*Report, error) {
	opts = opts.withDefaults()

	cfgs := make([]core.Config, len(opts.Configs))
	for i, name := range opts.Configs {
		c, err := ConfigByName(name)
		if err != nil {
			return nil, err
		}
		cfgs[i] = c
	}
	for _, s := range opts.Schedulers {
		if s != "event" && s != "legacy" {
			return nil, fmt.Errorf("soak: unknown scheduler %q (event, legacy)", s)
		}
	}

	rep := &Report{
		BaseSeed:    opts.BaseSeed,
		Configs:     opts.Configs,
		Schedulers:  opts.Schedulers,
		InjectSeeds: opts.InjectSeeds,
	}
	start := opts.StartProgram
	startCell := opts.StartCell
	startSnap := opts.StartSnap
	if resume && opts.Checkpoint != "" {
		cp, err := LoadCheckpoint(opts.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("soak: resume: %w", err)
		}
		if want := optionsSig(opts); cp.Sig != want {
			return nil, fmt.Errorf("soak: checkpoint %s was written by a different campaign (sig %s, want %s)",
				opts.Checkpoint, cp.Sig, want)
		}
		if cp.NextProgram >= start {
			// The checkpoint cursor wins, including its mid-matrix cell
			// position; a caller-supplied StartCell/StartSnap only
			// applies when the caller's StartProgram is further along.
			start = cp.NextProgram
			startCell = cp.NextCell
			startSnap = nil
			if len(cp.CellSnap) > 0 {
				s, derr := ckpt.Decode(cp.CellSnap)
				if derr != nil {
					return nil, fmt.Errorf("soak: resume: cell snapshot: %w", derr)
				}
				startSnap = s
			}
		}
		rep.Runs = cp.Runs
		rep.Findings = cp.Findings
		rep.Resumed = true
		if startCell > 0 || startSnap != nil {
			logf(opts.Log, "resuming at program %d cell %d with %d findings\n",
				start, startCell, len(rep.Findings))
		} else {
			logf(opts.Log, "resuming at program %d with %d findings\n", start, len(rep.Findings))
		}
	}

	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration)
	}

	var snap *metrics.Snapshot
	if opts.Snapshot != nil {
		snap = &metrics.Snapshot{}
	}

	// midStop: the campaign drain-stopped inside a program's cell
	// matrix (instruction-granular cursor already on disk), as opposed
	// to a clean program-boundary stop.
	midStop := false
	idx := start
	for {
		if opts.Programs > 0 && idx >= opts.Programs {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if opts.Programs <= 0 && deadline.IsZero() {
			return nil, fmt.Errorf("soak: need Programs or Duration")
		}
		if len(rep.Findings) >= opts.MaxFindings {
			logf(opts.Log, "stopping early: %d findings\n", len(rep.Findings))
			break
		}

		seed := gen.ProgramSeed(opts.BaseSeed, idx)
		prog, panicText := generate(opts.Gen, seed)
		if prog == nil {
			rep.Findings = append(rep.Findings, Finding{
				Program: idx, Seed: seed, Kind: "panic",
				Detail: "generator: " + firstLine(panicText), ReducedInsts: -1,
			})
			idx++
			continue
		}
		if opts.RegisterWorkloads {
			w := workload.NewAdHoc(fmt.Sprintf("gen-p%d", idx),
				fmt.Sprintf("generated program (seed %#x)", seed), prog.Source())
			_ = workload.RegisterAdHoc(w) // duplicate on resume is fine
		}

		// One assembly serves the program's whole cell matrix (the
		// runs only read it); a failed assembly gives every cell the
		// same outcome.
		exe := assemble(prog.Source())

		// firstCell/resumeSnap apply to the resume program only; every
		// later program starts at cell 0 with no snapshot.
		firstCell := 0
		var resumeSnap *ckpt.Snapshot
		if idx == start {
			firstCell = startCell
			resumeSnap = startSnap
		}
		found := 0
		cellStopped := false
		cellIdx := 0
	cells:
		for ci, cfg := range cfgs {
			for _, sched := range opts.Schedulers {
				for k := 0; k <= opts.InjectSeeds; k++ {
					cell := cellIdx
					cellIdx++
					if cell < firstCell {
						continue
					}
					var cellSnap *ckpt.Snapshot
					if cell == firstCell {
						cellSnap = resumeSnap
					}
					var injSeed uint64
					var injOpts *inject.Options
					if k > 0 {
						injSeed = mixInject(seed, uint64(k))
						campaign := opts.Inject
						campaign.Seed = injSeed
						injOpts = &campaign
					} else if opts.Hook != nil {
						hook := *opts.Hook
						injOpts = &hook
					}
					f, stopped := runCell(opts, prog, exe, idx, opts.Configs[ci], cfg, sched,
						injSeed, injOpts, snap, cell, cellSnap, rep)
					if stopped {
						// The in-flight run drained at a checkpoint
						// boundary; the mid-run cursor write already
						// recorded (program, cell, snapshot), so the run
						// is NOT counted here — the resume re-runs cell
						// `cell` from the snapshot and counts it then.
						cellStopped = true
						break cells
					}
					rep.Runs++
					if f != nil {
						rep.Findings = append(rep.Findings, *f)
						found++
					}
				}
			}
		}
		if cellStopped {
			rep.Stopped = true
			midStop = true
			logf(opts.Log, "p%04d interrupted mid-matrix; cursor checkpointed\n", idx)
			break
		}
		logf(opts.Log, "p%04d seed=%#016x body=%d iters=%d findings=%d\n",
			idx, seed, gen.InstCount(prog.Body), prog.Iters, found)
		idx++
		if opts.Checkpoint != "" && (idx-start)%opts.CheckpointEvery == 0 {
			if err := saveProgress(opts, idx, rep); err != nil {
				rep.CkptErrs++
				rep.LastCkptErr = err.Error()
				logf(opts.Log, "WARNING: checkpoint write failed: %v\n", err)
			}
		}
		if snap != nil {
			snap.Programs = idx - start
			snap.Findings = len(rep.Findings)
			opts.Snapshot(idx, snap.Clone())
		}
		if opts.Progress != nil {
			newEnd, stop := opts.Progress(idx, rep)
			if newEnd > 0 && (opts.Programs <= 0 || newEnd < opts.Programs) {
				opts.Programs = newEnd
			}
			if stop {
				rep.Stopped = true
				break
			}
		}
	}
	rep.Programs = idx
	// A mid-matrix stop already wrote its instruction-granular cursor;
	// overwriting it with a program-boundary checkpoint here would
	// re-run cells the report has already counted — skip the final save
	// in that case only. A Progress (program-boundary) stop still gets
	// the normal save: idx is a correct boundary cursor.
	if opts.Checkpoint != "" && !midStop {
		if err := saveProgress(opts, idx, rep); err != nil {
			rep.CkptErrs++
			rep.LastCkptErr = err.Error()
			logf(opts.Log, "WARNING: checkpoint write failed: %v\n", err)
		}
	}
	return rep, nil
}

// generate builds program seed under panic recovery: a generator panic
// is a finding, not a crash.
func generate(base gen.Options, seed uint64) (p *gen.Program, panicText string) {
	defer func() {
		if r := recover(); r != nil {
			p = nil
			panicText = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	o := base
	o.Seed = seed
	return gen.New(o), ""
}

// assemble is reduce.Assemble; tests count calls through it.
var assemble = reduce.Assemble

func mixInject(seed, k uint64) uint64 {
	return gen.ProgramSeed(seed^0x5bd1e995, int(k))
}

// cellAttempt wires one detection attempt's instruction-granular
// checkpoints (Options.CkptInsts) into the campaign: every snapshot the
// checked run captures (Options.CursorDue decides which drains do)
// becomes a mid-program campaign-checkpoint write and a CellCursor
// observation, and a CellCursor stop request is
// forwarded to the run's drain-stop hook. The live flag guards the
// abandoned-goroutine hazard: after a wall-watchdog timeout the run
// goroutine may still be executing, and must not write a stale cursor
// over the retry's.
type cellAttempt struct {
	opts    Options
	program int
	cell    int
	resume  *ckpt.Snapshot
	rep     *Report

	mu      sync.Mutex
	live    bool
	stop    func(reason string)
	stopped bool
}

func (a *cellAttempt) WantFull() bool { return true }

// Due implements ckpt.DueSink through Options.CursorDue.
func (a *cellAttempt) Due() bool { return a.opts.CursorDue == nil || a.opts.CursorDue() }

func (a *cellAttempt) onStart(stop func(reason string)) {
	a.mu.Lock()
	a.stop = stop
	a.mu.Unlock()
}

// finish retires the attempt: later Write calls (an abandoned runaway
// goroutine) become no-ops.
func (a *cellAttempt) finish() {
	a.mu.Lock()
	a.live = false
	a.mu.Unlock()
}

func (a *cellAttempt) Write(s *ckpt.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.live {
		return nil
	}
	if a.opts.Checkpoint != "" {
		if err := saveCursor(a.opts, a.program, a.cell, ckpt.Encode(s), a.rep); err != nil {
			a.rep.CkptErrs++
			a.rep.LastCkptErr = err.Error()
			logf(a.opts.Log, "WARNING: cursor checkpoint write failed: %v\n", err)
		}
	}
	if a.opts.CellCursor != nil && !a.stopped {
		if a.opts.CellCursor(a.program, a.cell, a.rep, s) && a.stop != nil {
			a.stopped = true
			a.stop("cell-cursor stop")
		}
	}
	return nil
}

// runCell executes one (program, config, scheduler, inject) cell with
// retries, classifies the outcome, and — on failure — reduces it and
// writes a repro bundle. It returns (nil, false) on a clean run and
// (nil, true) when the run was drain-stopped mid-flight (cursor already
// checkpointed; the cell is not finished). exe is prog assembled; the
// reducer's candidates assemble their own source. With resume non-nil the
// detection run restarts from that snapshot instead of the program
// start; retried (timed-out) attempts restart from the same snapshot.
func runCell(opts Options, prog *gen.Program, exe reduce.Assembled, idx int, cfgName string,
	cfg core.Config, sched string, injSeed uint64, injOpts *inject.Options,
	snap *metrics.Snapshot, cell int, resume *ckpt.Snapshot, rep *Report) (*Finding, bool) {
	cfg.LegacyScheduler = sched == "legacy"
	chkOpts := check.Options{
		Benchmark: fmt.Sprintf("gen-p%d", idx),
		MaxInsts:  opts.MaxInsts,
	}
	// A fresh injector per attempt: the injector carries per-run
	// delivery state, so reusing one across runs would skew replays.
	// Only detection runs keep telemetry (keep=true when metrics are
	// on); reduction candidates never do — their reports are discarded
	// and the reducer is the wall-clock hot path. Likewise only
	// detection runs checkpoint (att non-nil): reduction candidates are
	// short, discardable and not resumable by construction.
	runOpts := func(keep bool, att *cellAttempt) check.Options {
		o := chkOpts
		o.KeepTelemetry = keep
		if injOpts != nil {
			o.Injector = inject.New(*injOpts)
		}
		if att != nil {
			o.CkptEvery = opts.CkptInsts
			o.CkptSink = att
			o.Resume = att.resume
			o.OnStart = att.onStart
		}
		return o
	}

	var res reduce.RunResult
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		var att *cellAttempt
		if opts.CkptInsts > 0 {
			att = &cellAttempt{opts: opts, program: idx, cell: cell,
				resume: resume, rep: rep, live: true}
		}
		res = reduce.ProgramRunner(cfg, runOpts(snap != nil, att), opts.Watchdog)(exe)
		if att != nil {
			att.finish()
		}
		if res.Outcome.Kind != "timeout" || attempt >= opts.Retries {
			break
		}
	}
	if res.Report != nil && res.Report.Stopped {
		// Drain-stopped before completion: no outcome to classify, no
		// metrics to fold — the resumed run re-covers this cell.
		return nil, true
	}
	if snap != nil {
		foldRun(snap, cfgName, res.Report, time.Since(t0))
	}
	if !res.Outcome.Failing() {
		return nil, false
	}

	f := &Finding{
		Program:      idx,
		Seed:         prog.Seed,
		Config:       cfgName,
		Scheduler:    sched,
		InjectSeed:   injSeed,
		Kind:         res.Outcome.Kind,
		Field:        res.Outcome.Field,
		Detail:       findingDetail(res),
		ReducedInsts: -1,
	}

	minBody := prog.Body
	if !opts.NoReduce {
		candRunner := func(s string) reduce.RunResult {
			return reduce.CheckRunner(cfg, runOpts(false, nil), opts.Watchdog)(s)
		}
		r := reduce.Program(prog.Prologue, prog.Body, prog.Epilogue,
			res.Outcome, gen.Render, candRunner, opts.ReduceMaxTests)
		minBody = r.Body
		f.ReducedInsts = gen.InstCount(minBody)
		f.ReduceTests = r.Tests
	}

	if opts.OutDir != "" {
		bundle, err := WriteBundle(opts.OutDir, f, prog, minBody, injOpts, opts.MaxInsts, res)
		if err != nil {
			f.Detail += "; bundle write failed: " + err.Error()
		} else {
			f.Bundle = bundle
		}
	}
	return f, false
}

// foldRun folds one detection attempt into the metrics snapshot: CPI
// stack (successful runs only — a failed run has no meaningful cycle
// accounting), telemetry summary, counters and wall time. A nil report
// (watchdog timeout) still counts the run and its wall cost. Never
// touches the finding path.
func foldRun(snap *metrics.Snapshot, cfgName string, rep *check.Report, wall time.Duration) {
	if rep == nil {
		snap.AddRun(cfgName, 0, 0, 0, nil, nil, wall)
		return
	}
	if rep.Stack != nil {
		rep.Stack.Config = cfgName
	}
	snap.AddRun(cfgName, rep.Insts, rep.Cycles, rep.Replays, rep.Stack, rep.Telemetry, wall)
}

func findingDetail(res reduce.RunResult) string {
	switch {
	case res.Report != nil && res.Report.Divergence != nil:
		d := res.Report.Divergence
		return fmt.Sprintf("seq %d pc %s `%s`: %s: want %s got %s",
			d.Seq, d.PC, d.Disasm, d.Field, d.Want, d.Got)
	case res.Report != nil && res.Report.Invariant != nil:
		iv := res.Report.Invariant
		return fmt.Sprintf("cycle %d seq %d: %s", iv.Cycle, iv.Seq, iv.Detail)
	case res.Report != nil && res.Report.Deadlock != nil:
		dl := res.Report.Deadlock
		return fmt.Sprintf("no commit for %d cycles at cycle %d (%d committed)",
			dl.Budget, dl.Cycle, dl.Committed)
	case res.Report != nil && res.Report.Error != "":
		return firstLine(res.Report.Error)
	default:
		return firstLine(res.Err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// bundleDirName names a finding's repro bundle deterministically.
func bundleDirName(f *Finding) string {
	name := fmt.Sprintf("p%04d-%s-%s", f.Program, f.Config, f.Scheduler)
	if f.InjectSeed != 0 {
		name += fmt.Sprintf("-inj%x", f.InjectSeed)
	}
	return filepath.Join("repros", name)
}
