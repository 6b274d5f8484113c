// Package pok (Partial Operand Knowledge) is a library-level reproduction
// of Mestan & Lipasti, "Exploiting Partial Operand Knowledge", ICPP 2003.
//
// It provides, entirely from scratch and on the standard library only:
//
//   - a PISA-like 32-bit MIPS instruction set with real binary encodings,
//     an assembler and one direct-threaded functional emulator whose
//     DynInst streams are pinned by golden digests (internal/isa, asm,
//     emu);
//   - the paper's machine substrates: a 64k gshare + BTB + RAS predictor,
//     a two-level set-associative cache hierarchy with partial tag
//     matching and MRU way prediction, and a unified load/store queue
//     with bit-serial early disambiguation (internal/bpred, cache, lsq);
//   - a cycle-level, 4-wide, 15-stage out-of-order timing model whose
//     execution stage can be bit-sliced by 2 or 4, with the paper's five
//     partial-operand techniques as independent toggles (internal/core);
//     scheduling is event-driven (a wakeup wheel plus pooled window
//     entries), with the original full-window scan preserved behind
//     Config.LegacyScheduler and proven cycle-exact against it;
//   - eleven synthetic stand-ins for the paper's SPECint benchmarks
//     (internal/workload), each verified against a Go reference model;
//   - drivers that regenerate every table and figure of the paper's
//     evaluation (internal/exp).
//
// The exported API of this package is a thin facade over those layers:
// assemble programs, pick a machine configuration, simulate, and run the
// paper's experiments.
package pok

import (
	"pok/internal/asm"
	"pok/internal/cc"
	"pok/internal/check"
	"pok/internal/check/inject"
	"pok/internal/check/reduce"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/exp"
	"pok/internal/gen"
	"pok/internal/metrics"
	"pok/internal/profile"
	"pok/internal/serve"
	"pok/internal/sig"
	"pok/internal/soak"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// Re-exported machine-model types.
type (
	// Config is a timing-model machine configuration.
	Config = core.Config
	// Result holds the statistics of one timing simulation.
	Result = core.Result
	// Program is a loadable binary image produced by the assembler.
	Program = emu.Program
	// Workload is one of the paper's benchmark stand-ins.
	Workload = workload.Workload
	// Options selects benchmarks and instruction budgets for experiments.
	Options = exp.Options
)

// Machine configurations (paper Table 2 / Figure 10).
var (
	// BaseConfig is the ideal machine with a single-cycle execution stage.
	BaseConfig = core.BaseConfig
	// SimplePipelined pipelines the execution stage into n slices without
	// exposing partial operands (the paper's naive baseline).
	SimplePipelined = core.SimplePipelined
	// BitSliced enables every partial-operand technique on an n-slice
	// datapath (the paper's proposed microarchitecture).
	BitSliced = core.BitSliced
	// ConfigLadder returns the cumulative technique ladder used by
	// Figures 11 and 12.
	ConfigLadder = exp.ConfigLadder
	// ConfigByName resolves a machine name (base, simple2, simple4,
	// slice2, slice4) to its configuration — the names every CLI's
	// -config flag and every soak or fleet job accept.
	ConfigByName = soak.ConfigByName
)

// Assemble translates MIPS-style assembly source into a runnable program.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// CompileC compiles MiniC source (see internal/cc) into a runnable
// program — the compiled-language path the paper's SPEC benchmarks took.
func CompileC(source string) (*Program, error) { return cc.CompileProgram(source) }

// Run simulates prog under cfg for up to maxInsts committed instructions
// (0 = to completion) and returns the timing statistics.
func Run(prog *Program, cfg Config, maxInsts uint64) (*Result, error) {
	return core.Run(prog, cfg, maxInsts)
}

// RunWarm is Run with a functional fast-forward of warmup instructions
// before measurement (the paper fast-forwards 1B instructions).
func RunWarm(prog *Program, cfg Config, warmup, maxInsts uint64) (*Result, error) {
	return core.RunWarm(prog, cfg, warmup, maxInsts)
}

// RunSampled performs SMARTS-style sampled simulation: nSamples detailed
// windows of sampleLen instructions separated by functionally-warmed
// skips of skipLen instructions. The result's IPC estimates the full-run
// IPC at a fraction of the cost. Windows share Run's deadlock watchdog:
// a window that commits nothing for the budget (default 40 000 cycles)
// fails the run with an error matching errors.Is(err, ErrDeadlock).
func RunSampled(prog *Program, cfg Config, warmup, sampleLen, skipLen uint64,
	nSamples int) (*Result, error) {
	return core.RunSampled(prog, cfg, warmup, sampleLen, skipLen, nSamples)
}

// Execute runs prog functionally (no timing) for up to maxInsts
// instructions and returns its printed output.
func Execute(prog *Program, maxInsts uint64) (string, error) {
	e := emu.New(prog)
	if _, err := e.Run(maxInsts, nil); err != nil {
		return e.Output(), err
	}
	return e.Output(), nil
}

// Benchmarks returns the names of the paper's Table 1 benchmark suite.
func Benchmarks() []string { return workload.Names() }

// GetWorkload returns the named benchmark stand-in.
func GetWorkload(name string) (*Workload, error) { return workload.Get(name) }

// SimulateBenchmark runs the named benchmark under cfg with its standard
// fast-forward and the given instruction budget.
func SimulateBenchmark(name string, cfg Config, maxInsts uint64) (*Result, error) {
	w, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		return nil, err
	}
	r, err := core.RunWarm(prog, cfg, w.FastForward, maxInsts)
	if err != nil {
		return nil, err
	}
	r.Benchmark = name
	return r, nil
}

// Experiment drivers (one per paper table/figure) and their renderers.
var (
	Table1         = exp.Table1
	RenderTable1   = exp.RenderTable1
	Figure2        = exp.Figure2
	RenderFigure2  = exp.RenderFigure2
	Figure4        = exp.Figure4
	RenderFigure4  = exp.RenderFigure4
	Figure6        = exp.Figure6
	RenderFigure6  = exp.RenderFigure6
	Figure11       = exp.Figure11
	RenderFigure11 = exp.RenderFigure11
	Figure12       = exp.Figure12
	RenderFigure12 = exp.RenderFigure12
	// CPIStackReport runs the technique ladder with the profiler
	// attached: the per-technique cycle-attribution companion to
	// Figures 11/12.
	CPIStackReport       = exp.CPIStackReport
	RenderCPIStackReport = exp.RenderCPIStackReport
)

// Ablation studies beyond the paper's figures.
var (
	// NarrowWidthAblation measures the paper's narrow-width future-work
	// extension on top of the bit-sliced machine.
	NarrowWidthAblation = exp.NarrowWidthAblation
	// PredictorAblation swaps gshare for bimodal on the base machine.
	PredictorAblation = exp.PredictorAblation
	// WrongPathAblation measures the effect of simulating wrong-path
	// instructions on the bit-sliced machine.
	WrongPathAblation = exp.WrongPathAblation
	// CompiledSuite times the MiniC-compiled workloads on the headline
	// machines, checking the paper shape on compiler output.
	CompiledSuite       = exp.CompiledSuite
	RenderCompiledSuite = exp.RenderCompiledSuite
	// WindowSweep varies the RUU size on the bit-sliced machine.
	WindowSweep = exp.WindowSweep
	// LSQSweep varies the load/store queue size on the bit-sliced machine.
	LSQSweep          = exp.LSQSweep
	RenderAblation    = exp.RenderAblation
	RenderWindowSweep = exp.RenderWindowSweep
	RenderLSQSweep    = exp.RenderLSQSweep
)

// ASCII figure sketches accompanying the numeric tables.
var (
	PlotFigure6  = exp.PlotFigure6
	PlotFigure11 = exp.PlotFigure11
	PlotFigure12 = exp.PlotFigure12
)

// Telemetry: the structured observability layer of internal/telemetry.
// Attach a recorder via Config.Collector (or Config.NewRecorder) to
// capture the per-pipeline-stage event stream and occupancy
// histograms; the aggregated summary lands in Result.Telemetry.
type (
	// TelemetryCollector receives structured pipeline events.
	TelemetryCollector = telemetry.Collector
	// TelemetryRecorder is the standard ring-buffered collector.
	TelemetryRecorder = telemetry.Recorder
	// TelemetrySummary is the aggregated telemetry of one run.
	TelemetrySummary = telemetry.Summary
	// TelemetryEvent is one fixed-size structured pipeline event.
	TelemetryEvent = telemetry.Event
	// TimelineOptions bounds the pok-prof timeline rendering.
	TimelineOptions = telemetry.TimelineOptions
)

var (
	// WriteEventsJSONL dumps an event stream as JSON Lines.
	WriteEventsJSONL = telemetry.WriteJSONL
	// ReadEventsJSONL parses a JSONL event dump.
	ReadEventsJSONL = telemetry.ReadJSONL
	// RenderTimeline draws the per-instruction slice-pipeline wavefront
	// (pok-prof's timeline mode) from an event dump.
	RenderTimeline = telemetry.RenderTimeline
)

// Cycle accounting & critical path: the analysis engine of
// internal/profile (CLI: cmd/pok-prof). A CPIStack attributes every
// cycle of a run to one bottleneck component, streamed by a
// CPIAccountant as the run commits or replayed from a stored stream by
// BuildCPIStack; a CriticalPath is the longest dependence chain through
// the per-slice dataflow DAG. See DESIGN.md, "Cycle accounting &
// critical path".
type (
	// EventDumpMeta is the self-describing header line of a JSONL
	// event dump (benchmark, config, cycles, dropped-event count).
	EventDumpMeta = telemetry.DumpMeta
	// CPIStack is one run's cycle-accounting breakdown.
	CPIStack = profile.CPIStack
	// CriticalPath is the longest dependence chain of one run.
	CriticalPath = profile.CriticalPath
	// CPIAccountant is the streaming CPI-stack collector (pok-sim
	// -prof): chain it in front of a recorder, or alone.
	CPIAccountant = profile.Accountant
	// PerfettoOptions tunes the Chrome trace-event export.
	PerfettoOptions = profile.PerfettoOptions
	// SelfProfile records the analyser's own wall-time phases.
	SelfProfile = profile.SelfProfile
)

var (
	// WriteEventsDump writes a self-describing JSONL dump (meta header
	// plus event stream).
	WriteEventsDump = telemetry.WriteJSONLDump
	// ReadEventsDump parses a JSONL dump, returning the meta header
	// when present.
	ReadEventsDump = telemetry.ReadJSONLDump
	// BuildCPIStack attributes every cycle of a stored event stream by
	// replaying it through a CPIAccountant.
	BuildCPIStack = profile.BuildCPIStack
	// RenderCPIStackCompare renders a side-by-side CPI-stack diff.
	RenderCPIStackCompare = profile.RenderCompare
	// BuildCriticalPath extracts the longest dependence chain.
	BuildCriticalPath = profile.BuildCriticalPath
	// WritePerfetto exports the slice pipeline as Chrome trace-event
	// JSON (load in ui.perfetto.dev).
	WritePerfetto = profile.WritePerfetto
	// NewCPIAccountant chains a streaming CPI-stack accountant in front
	// of an inner collector (which may be nil).
	NewCPIAccountant = profile.NewAccountant
	// NewSelfProfile starts a wall-clock phase recorder for the
	// Perfetto self-profiling overlay.
	NewSelfProfile = profile.NewSelfProfile
)

// Robustness & verification: the lockstep commit oracle, the per-cycle
// invariant checker and the deterministic fault-injection harness of
// internal/check (CLI: cmd/pok-check). See DESIGN.md, "Robustness &
// Verification".
type (
	// CheckOptions configures one checked (oracle + invariants +
	// optional injection) run.
	CheckOptions = check.Options
	// CheckReport is the machine-readable outcome of a checked run.
	CheckReport = check.Report
	// Divergence is the first commit at which the timing machine's
	// architectural state differed from the functional reference.
	Divergence = check.Divergence
	// InvariantConfig tunes the per-cycle invariant checker and the
	// deadlock watchdog (Config.Invariants).
	InvariantConfig = core.InvariantConfig
	// InjectOptions configures the deterministic fault injector.
	InjectOptions = inject.Options
	// FaultInjector is the seeded injector implementing Config.Inject.
	FaultInjector = inject.Injector
)

var (
	// RunChecked runs a program under the lockstep oracle and invariant
	// checker (plus an optional injector) and classifies the outcome.
	RunChecked = check.RunChecked
	// NewOracle builds a standalone lockstep commit oracle for
	// Config.Oracle.
	NewOracle = check.NewOracle
	// NewInjector builds the seeded deterministic fault injector.
	NewInjector = inject.New
	// ErrDeadlock identifies a tripped deadlock watchdog via errors.Is.
	ErrDeadlock = core.ErrDeadlock
)

// Soak testing: the seeded random-program generator, the ddmin
// delta-debugging reducer and the differential soak harness of
// internal/gen, internal/check/reduce and internal/soak (CLI:
// cmd/pok-soak). See DESIGN.md, "Soak testing & reduction".
type (
	// GenOptions seeds and shapes one generated program.
	GenOptions = gen.Options
	// GenMix weights the generator's fragment kinds.
	GenMix = gen.Mix
	// GenProgram is one generated (prologue, body, epilogue) program.
	GenProgram = gen.Program
	// SoakOptions configures one soak campaign.
	SoakOptions = soak.Options
	// SoakReport is the machine-readable outcome of a soak campaign.
	SoakReport = soak.Report
	// SoakFinding is one failure the soak attributed to its seed cell.
	SoakFinding = soak.Finding
	// SoakCheckpoint is the resumable frontier of a soak campaign.
	SoakCheckpoint = soak.Checkpoint
	// ReproBundle is a self-contained minimized failure reproducer.
	ReproBundle = soak.Bundle
	// ReduceOutcome classifies one candidate run during reduction.
	ReduceOutcome = reduce.Outcome
)

// Distributed fleet: the coordinator/worker scaling layer of
// internal/serve (CLI: cmd/pok-serve; pok-soak and pok-bench submit
// with -submit). Failure signatures (internal/sig) are the shared
// dedupe key of the reducer, the soak harness and the fleet. See
// DESIGN.md, "Distributed simulation".
type (
	// FleetJobSpec is a job submitted to a fleet coordinator.
	FleetJobSpec = serve.JobSpec
	// FleetSoakSpec is a soak campaign as a fleet job.
	FleetSoakSpec = serve.SoakSpec
	// FleetBenchSpec is a benchmark sweep as a fleet job.
	FleetBenchSpec = serve.BenchSpec
	// FleetJobResult is a completed fleet job's merged outcome.
	FleetJobResult = serve.JobResult
	// FleetCoordinator owns fleet state and serves the HTTP job API.
	FleetCoordinator = serve.Coordinator
	// FleetWorker pulls and executes cells from a coordinator.
	FleetWorker = serve.Worker
	// FleetClient talks to a coordinator's HTTP API.
	FleetClient = serve.Client
	// FleetJournal is the coordinator's crash-recovery write-ahead log.
	FleetJournal = serve.Journal
	// FleetReplayStats summarizes a journal replay on coordinator start.
	FleetReplayStats = serve.ReplayStats
	// FleetWorkerStats is a worker's self-reported RPC/retry counters.
	FleetWorkerStats = serve.WorkerStats
	// FleetReleaseRequest hands a lease back on graceful worker drain.
	FleetReleaseRequest = serve.ReleaseRequest
	// FleetTransportError wraps a network-level RPC failure (retryable).
	FleetTransportError = serve.TransportError
	// FleetStatusError is a non-2xx coordinator reply with its body.
	FleetStatusError = serve.StatusError
	// FleetChaosTransport is the seeded fault-injecting RoundTripper.
	FleetChaosTransport = serve.ChaosTransport
	// FailureSignature is the (kind, field) dedupe key of a finding.
	FailureSignature = sig.Signature
	// FailureClass is one deduplicated signature with its count.
	FailureClass = sig.Class
)

// Fleet observability: mergeable telemetry snapshots flow worker →
// coordinator and surface as Prometheus text (/metrics), JSON
// (/api/metrics) and the live dashboard. See DESIGN.md, "Fleet
// observability".
type (
	// MetricsSnapshot is the mergeable unit of fleet telemetry (CPI
	// stacks, occupancy histograms, throughput, RPC health).
	MetricsSnapshot = metrics.Snapshot
	// MetricsBuildInfo is build provenance (git SHA, go version).
	MetricsBuildInfo = metrics.BuildInfo
	// MetricsProm builds Prometheus text-exposition payloads.
	MetricsProm = metrics.Prom
	// FleetMetrics is the coordinator's aggregated observability view.
	FleetMetrics = serve.FleetMetrics
	// FleetJobMetrics is one job's merged telemetry.
	FleetJobMetrics = serve.JobMetrics
	// FleetWorkerMetrics is one worker's throughput and RPC health.
	FleetWorkerMetrics = serve.WorkerMetrics
	// FleetMetricsSample is one entry of the bounded time-series ring.
	FleetMetricsSample = serve.MetricsSample
)

var (
	// DetectBuild resolves build provenance from the binary/git.
	DetectBuild = metrics.DetectBuild
	// NewProm returns an empty Prometheus text-payload builder.
	NewProm = metrics.NewProm
)

var (
	// NewFleetCoordinator builds a coordinator with the given lease TTL.
	NewFleetCoordinator = serve.NewCoordinator
	// NewFleetClient builds a client for the coordinator at a base URL.
	NewFleetClient = serve.NewClient
	// OpenFleetJournal opens (or creates) a coordinator journal dir.
	OpenFleetJournal = serve.OpenJournal
	// ParseFleetChaosSpec parses "drop=..,dup=..,err=..,delay=.." specs.
	ParseFleetChaosSpec = serve.ParseChaosSpec
	// FleetRetryable reports whether a client RPC error is transient.
	FleetRetryable = serve.Retryable
)

var (
	// Generate builds the deterministic random program selected by its
	// options.
	Generate = gen.New
	// GenProgramSeed derives the seed of the idx-th program of a soak.
	GenProgramSeed = gen.ProgramSeed
	// Soak runs a differential soak campaign (resume=true continues
	// from the options' checkpoint file).
	Soak = soak.Run
	// ReplayBundle re-runs a repro bundle under the lockstep checker.
	ReplayBundle = soak.ReplayBundle
	// DDMin minimizes a failing line sequence (ddmin delta debugging).
	DDMin = reduce.DDMin
	// ErrUnknownWorkload identifies a benchmark-name lookup miss via
	// errors.Is; the error message lists the available names.
	ErrUnknownWorkload = workload.ErrUnknownWorkload
)

// ProfileBenchmark returns the dynamic instruction mix of the named
// benchmark over maxInsts instructions.
func ProfileBenchmark(name string, maxInsts uint64) (*emu.Profile, error) {
	w, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		return nil, err
	}
	return emu.ProfileProgram(prog, maxInsts)
}
