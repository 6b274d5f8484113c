package check

import (
	"errors"
	"fmt"

	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/profile"
	"pok/internal/telemetry"
)

// Options configures one checked run.
type Options struct {
	// Benchmark labels the report.
	Benchmark string
	// Warmup fast-forwards both the timing machine and the oracle.
	Warmup uint64
	// MaxInsts bounds the committed instruction count (0 = to exit).
	MaxInsts uint64
	// Invariants overrides the invariant/watchdog budgets (nil = enable
	// the checker with defaults; the checker is always on under
	// RunChecked).
	Invariants *core.InvariantConfig
	// Injector, when non-nil, is installed as core.Config.Inject.
	Injector core.Injector
	// KeepTelemetry exposes the run's telemetry summary and CPI stack
	// on the report (Report.Telemetry, Report.Stack) even on success,
	// for the fleet metrics pipeline. It chains a streaming CPI-stack
	// accountant onto the recorder RunChecked already attaches for
	// failure traces; both only observe, so the simulated run is
	// bit-identical with or without it. Ignored when the caller brought
	// its own Collector.
	KeepTelemetry bool

	// CkptEvery arms architectural checkpointing at this committed-
	// instruction cadence (0 = off); snapshots go to CkptSink. With
	// CkptEvery 0 but a non-nil sink, only a RequestStop writes a final
	// snapshot. Checkpoint drains perturb timing deterministically, so
	// two runs compare bit-identically only under the same cadence.
	CkptEvery uint64
	CkptSink  ckpt.Sink

	// Resume restarts the run from a full (chain-resolved) snapshot
	// instead of the program start. Benchmark, the config and the
	// injector settings must match the checkpointed run; Warmup is
	// ignored (the snapshot is already past it). The lockstep oracle is
	// reconstructed from the snapshot's emulator state.
	Resume *ckpt.Snapshot

	// OnStart, when non-nil, receives the running simulation's stop
	// trigger before the first cycle — the hook signal handlers and
	// watchdogs use to request a drain + final snapshot + partial report.
	OnStart func(stop func(reason string))
}

// FaultCounter is implemented by injectors that can report how many
// faults of each kind they actually delivered (inject.Injector does).
type FaultCounter interface {
	FaultCounts() map[string]uint64
}

// Report is the machine-readable outcome of one checked run; pok-check
// marshals it to JSON. Exactly one of Divergence / Invariant / Deadlock
// is set when OK is false (or none, for a plain error).
type Report struct {
	Benchmark string `json:"benchmark,omitempty"`
	Config    string `json:"config"`
	Scheduler string `json:"scheduler"`
	Seed      uint64 `json:"seed,omitempty"`

	Insts   uint64  `json:"insts"`
	Cycles  int64   `json:"cycles"`
	IPC     float64 `json:"ipc"`
	Replays uint64  `json:"replays"`

	// Faults counts injected faults by kind, when the injector can
	// report them.
	Faults map[string]uint64 `json:"faults,omitempty"`

	OK bool `json:"ok"`
	// Stopped marks a run ended early by a stop request (signal or
	// watchdog): the counters cover the committed prefix, OK reflects
	// that prefix, and a final snapshot went to the checkpoint sink if
	// one was attached.
	Stopped    bool   `json:"stopped,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// FailKind classifies a failure: "divergence", "invariant",
	// "deadlock" or "error".
	FailKind   string           `json:"fail_kind,omitempty"`
	Divergence *Divergence      `json:"divergence,omitempty"`
	Invariant  *InvariantReport `json:"invariant,omitempty"`
	Deadlock   *DeadlockReport  `json:"deadlock,omitempty"`
	Error      string           `json:"error,omitempty"`

	// Trace is the telemetry-derived per-slice event window around the
	// failing instruction (empty on success).
	Trace []string `json:"trace,omitempty"`

	// Telemetry and Stack carry the run's telemetry summary and (on
	// success) its CPI stack when Options.KeepTelemetry is set —
	// consumed in-process by the fleet metrics fold, and deliberately
	// excluded from JSON so repro bundles and findings stay
	// byte-identical with metrics on or off.
	Telemetry *telemetry.Summary `json:"-"`
	Stack     *profile.CPIStack  `json:"-"`
}

// InvariantReport is the JSON shape of a core.InvariantError.
type InvariantReport struct {
	Rule   string `json:"rule"`
	Cycle  int64  `json:"cycle"`
	Seq    uint64 `json:"seq"`
	Detail string `json:"detail"`
	Dump   string `json:"dump,omitempty"`
}

// DeadlockReport is the JSON shape of a core.DeadlockError.
type DeadlockReport struct {
	Cycle     int64  `json:"cycle"`
	Committed uint64 `json:"committed"`
	Budget    int64  `json:"budget"`
	Dump      string `json:"dump,omitempty"`
}

// RunChecked runs prog under cfg with the lockstep oracle and the
// invariant checker enabled (plus opts.Injector, if any) and classifies
// the outcome. The returned error is non-nil only for setup problems;
// run-time failures are reported in Report with OK=false.
func RunChecked(prog *emu.Program, cfg core.Config, opts Options) (*Report, error) {
	rep := &Report{
		Benchmark: opts.Benchmark,
		Config:    cfg.Name,
		Scheduler: schedulerName(cfg),
	}
	var oracle *Oracle
	var err error
	if opts.Resume != nil {
		oracle, err = NewOracleFromState(opts.Resume.Emu, opts.Resume.Meta.Insts)
	} else {
		oracle, err = NewOracle(prog, opts.Warmup)
	}
	if err != nil {
		return nil, err
	}
	cfg.Oracle = oracle
	if opts.Invariants != nil {
		cfg.Invariants = opts.Invariants
	} else if cfg.Invariants == nil {
		cfg.Invariants = &core.InvariantConfig{}
	}
	if opts.Injector != nil {
		cfg.Inject = opts.Injector
	}
	// Attach a recorder (unless the caller brought a collector) so a
	// failure report can include the pipeline event window around the
	// offending instruction.
	var rec *telemetry.Recorder
	var acct *profile.Accountant
	if cfg.Collector == nil {
		rec = cfg.NewRecorder(traceRingCap(&cfg))
		cfg.Collector = rec
		if opts.KeepTelemetry {
			acct = profile.NewAccountant(rec)
			cfg.Collector = acct
		}
	}

	var sim *core.Sim
	if opts.Resume != nil {
		sim, err = core.NewSimFromSnapshot(opts.Resume, cfg, opts.MaxInsts)
	} else {
		sim, err = core.NewSim(prog, cfg, opts.MaxInsts)
		if err == nil {
			err = sim.FastForward(opts.Warmup)
		}
	}
	if err != nil {
		return nil, err
	}
	if opts.CkptEvery > 0 || opts.CkptSink != nil {
		sim.SetCheckpoint(opts.CkptEvery, opts.CkptSink, opts.Benchmark)
	}
	if opts.OnStart != nil {
		opts.OnStart(sim.RequestStop)
	}
	res, runErr := sim.Run()
	if fc, ok := opts.Injector.(FaultCounter); ok {
		rep.Faults = fc.FaultCounts()
	}
	if acct != nil {
		rep.Telemetry = rec.Summary()
	}
	if runErr == nil {
		if acct != nil {
			// Stack fails only for a total shorter than the stream,
			// which the run's own cycle count never is.
			rep.Stack, _ = acct.Stack(res.Cycles)
		}
		rep.OK = true
		rep.Insts = res.Insts
		rep.Cycles = res.Cycles
		rep.IPC = res.IPC
		rep.Replays = res.Replays
		rep.Stopped = res.Stopped
		rep.StopReason = res.StopReason
		return rep, nil
	}

	rep.Error = runErr.Error()
	var failSeq uint64
	var div *Divergence
	var invErr *core.InvariantError
	var dl *core.DeadlockError
	switch {
	case errors.As(runErr, &div):
		rep.FailKind = "divergence"
		rep.Divergence = div
		failSeq = div.Seq
	case errors.As(runErr, &invErr):
		rep.FailKind = "invariant"
		rep.Invariant = &InvariantReport{
			Rule: invErr.Rule, Cycle: invErr.Cycle, Seq: invErr.Seq,
			Detail: invErr.Detail, Dump: invErr.Dump,
		}
		failSeq = invErr.Seq
	case errors.As(runErr, &dl):
		rep.FailKind = "deadlock"
		rep.Deadlock = &DeadlockReport{
			Cycle: dl.Cycle, Committed: dl.Committed, Budget: dl.Budget,
			Dump: dl.Dump,
		}
	default:
		rep.FailKind = "error"
	}
	if rec != nil {
		rep.Trace = traceWindow(rec.Events(), failSeq)
	}
	return rep, nil
}

// traceRadius is how many sequence numbers either side of the failing
// instruction Report.Trace covers.
const traceRadius = 4

// traceRingCap sizes a checked run's event ring to the failure window
// Report.Trace reads. Between the fetch of the oldest traced
// instruction and the failure, events come only from instructions then
// in flight (at most a window) and from those fetched after it (the
// 2·traceRadius traced ones and at most another window), and each slice
// of each emits a few of the NumKinds event kinds. The most any workload ×
// machine × fault mix was seen to need is about half of this. Older
// events are overwritten by design; the counters and histograms still
// see them.
func traceRingCap(cfg *core.Config) int {
	return (2*cfg.WindowSize + 2*traceRadius) * cfg.Slices * telemetry.NumKinds
}

func schedulerName(cfg core.Config) string {
	if cfg.LegacyScheduler {
		return "legacy"
	}
	return "event"
}

// traceWindow renders the telemetry events near the failing instruction:
// every ring event whose sequence number is within traceRadius of seq,
// or the tail of the ring when no instruction is identifiable (seq 0,
// e.g. a deadlock) — the most recent events are the relevant ones there.
func traceWindow(events []telemetry.Event, seq uint64) []string {
	const tailLen = 32
	var out []string
	if seq == 0 {
		lo := 0
		if len(events) > tailLen {
			lo = len(events) - tailLen
		}
		for _, ev := range events[lo:] {
			out = append(out, fmtEvent(&ev))
		}
		return out
	}
	lo := uint64(0)
	if seq > traceRadius {
		lo = seq - traceRadius
	}
	hi := seq + traceRadius
	for i := range events {
		ev := &events[i]
		if ev.Seq >= lo && ev.Seq <= hi {
			out = append(out, fmtEvent(ev))
		}
	}
	return out
}

func fmtEvent(ev *telemetry.Event) string {
	return fmt.Sprintf("c=%d seq=%d %s slice=%d arg=%d arg2=%d",
		ev.Cycle, ev.Seq, ev.Kind, ev.Slice, ev.Arg, ev.Arg2)
}
