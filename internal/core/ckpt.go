// Drain-based architectural checkpointing. A checkpoint is taken only at
// a quiescent pipeline boundary: when the committed-instruction count
// reaches the next mark (or an asynchronous stop is requested), correct-
// path fetch pauses and the machine keeps cycling until every in-flight
// instruction has committed or been squashed. At that boundary the
// emulator sits exactly at the commit frontier — fetch runs it ahead of
// commit, but with the fetch buffer and window empty and no peeked
// instruction pending, everything it executed has committed — so the
// snapshot needs no speculative state at all: memory pages + registers,
// the warm predictor/cache/TLB arrays, a small fixed set of timing-core
// scalars, and opaque sections for the injector and telemetry.
//
// The drain inserts pipeline bubbles, so a checkpointing run's timing
// differs from a non-checkpointing run's — deterministically. The
// guarantee is therefore cadence-relative: a run resumed from any
// checkpoint is bit-identical (Result, commit stream, telemetry events)
// to an uninterrupted run with the same -ckpt-every cadence, and a run
// with checkpointing off is bit-identical to one built before this layer
// existed.
package core

import (
	"encoding/json"
	"fmt"

	"pok/internal/ckpt"
	"pok/internal/emu"
	"pok/internal/telemetry"
)

// StateSnapshotter is implemented by pluggable observers — the fault
// injector — whose dynamic state must travel with a checkpoint for the
// resumed run to make identical decisions. SnapshotState is called only
// at quiescent boundaries, so implementations may omit per-instruction
// in-flight state (nothing is in flight) and serialize just the
// monotonic counters and caps that outlive instructions.
type StateSnapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// Extra-section names contributed by the core and its observers.
const (
	extraInject    = "inject"
	extraTelemetry = "telemetry"
)

// SetCheckpoint arms periodic checkpointing: a snapshot is handed to
// sink every `every` committed instructions (at the first quiescent
// boundary past each multiple). benchmark labels Meta for run-identity
// checks at resume. With every == 0 the sink still receives the final
// snapshot of a RequestStop, and nothing else. Call before Run.
//
// On a Sim built by NewSimFromSnapshot the restored next-mark is kept,
// so resuming with the same cadence hits the same future marks as the
// uninterrupted run.
func (s *Sim) SetCheckpoint(every uint64, sink ckpt.Sink, benchmark string) {
	s.ckptEvery = every
	s.ckptSink = sink
	s.ckptBench = benchmark
	if every > 0 && s.nextCkpt <= s.res.Insts {
		next := every
		for next <= s.res.Insts {
			next += every
		}
		s.nextCkpt = next
	}
}

// RequestStop asks the run to end early: fetch pauses, the pipeline
// drains, a final snapshot goes to the checkpoint sink (if any), and Run
// returns a partial Result with Stopped set. Safe to call from another
// goroutine (signal handlers, watchdogs); the first reason wins.
func (s *Sim) RequestStop(reason string) {
	r := reason
	s.stopFlag.CompareAndSwap(nil, &r)
}

func (s *Sim) stopReason() string {
	if r := s.stopFlag.Load(); r != nil {
		return *r
	}
	return ""
}

// quiescent reports whether the pipeline holds no speculative state at
// all: nothing in flight, no peeked instruction, no wrong-path fork, no
// pending memory-stage or scheduler work. Only then is the emulator
// exactly at the commit frontier and a snapshot self-contained.
func (s *Sim) quiescent() bool {
	return s.window.Len() == 0 && s.fetchBuf.Len() == 0 && !s.pendingOK &&
		s.wpFork == nil && s.wpBranch == nil && s.fetchBlockedBy == nil &&
		len(s.memWatch) == 0 && s.lsq.Len() == 0 && len(s.ready) == 0
}

// schedKind names the scheduler flavor of cfg for Meta.
func schedKind(cfg *Config) string {
	if cfg.LegacyScheduler {
		return "legacy"
	}
	return "event"
}

// coreCkpt is the timing core's own snapshot section: the scalars that
// survive a quiescent boundary. Everything else (window, fetch buffer,
// rename map, wheel, LSQ, entry pool) is provably empty or reconstructed
// deterministically.
type coreCkpt struct {
	Now           int64  `json:"now"`
	LastCommit    int64  `json:"last_commit"`
	FetchedCnt    uint64 `json:"fetched"`
	SeqCtr        uint64 `json:"seq_ctr"`
	FetchStallTo  int64  `json:"fetch_stall_to"`
	LastFetchLine uint32 `json:"last_fetch_line"`
	HaveLine      bool   `json:"have_line"`
	TraceDone     bool   `json:"trace_done"`
	DivFree       int64  `json:"div_free"`
	FpmdFree      int64  `json:"fpmd_free"`
	NextCkpt      uint64 `json:"next_ckpt"`
	Res           Result `json:"result"`
}

// checkpointNow captures a snapshot at the current (quiescent) boundary
// and hands it to the sink, reporting whether it did. A nil sink is a
// no-op, so a plain RequestStop without checkpointing still drains
// cleanly. A periodic snapshot (final false) is skipped when the sink
// is a ckpt.DueSink whose Due reports false; a RequestStop's final
// snapshot is always captured.
func (s *Sim) checkpointNow(final bool) (bool, error) {
	if s.ckptSink == nil {
		return false, nil
	}
	if d, ok := s.ckptSink.(ckpt.DueSink); ok && !final && !d.Due() {
		return false, nil
	}
	snap, err := s.captureSnapshot(s.ckptSink.WantFull())
	if err != nil {
		return false, fmt.Errorf("core: checkpoint at %d insts: %w", s.res.Insts, err)
	}
	if err := s.ckptSink.Write(snap); err != nil {
		return false, fmt.Errorf("core: checkpoint at %d insts: %w", s.res.Insts, err)
	}
	return true, nil
}

// captureSnapshot builds a complete snapshot of the quiescent machine.
// With full == false the emulator contributes only pages dirtied since
// the previous capture (a delta the ckpt layer chains to its base).
func (s *Sim) captureSnapshot(full bool) (*ckpt.Snapshot, error) {
	if !s.quiescent() {
		return nil, fmt.Errorf("core: snapshot of a non-quiescent pipeline")
	}
	emuSt, err := s.em.Snapshot(!full)
	if err != nil {
		return nil, err
	}
	predSt, err := s.pred.State()
	if err != nil {
		return nil, err
	}
	cc := coreCkpt{
		Now:           s.now,
		LastCommit:    s.lastCommitC,
		FetchedCnt:    s.fetchedCnt,
		SeqCtr:        s.seqCtr,
		FetchStallTo:  s.fetchStallTo,
		LastFetchLine: s.lastFetchLine,
		HaveLine:      s.haveLine,
		TraceDone:     s.traceDone,
		DivFree:       s.divFree,
		FpmdFree:      s.fpmdFree,
		NextCkpt:      s.nextCkpt,
		Res:           s.res,
	}
	cc.Res.Telemetry = nil // travels as its own section; see below
	coreBytes, err := json.Marshal(&cc)
	if err != nil {
		return nil, err
	}
	snap := &ckpt.Snapshot{
		Meta: ckpt.Meta{
			Benchmark: s.ckptBench,
			Config:    s.cfg.Name,
			Scheduler: schedKind(&s.cfg),
			Insts:     s.res.Insts,
			Cycles:    s.now,
		},
		Emu:   emuSt,
		Bpred: predSt,
		Hier:  s.hier.State(),
		Core:  coreBytes,
	}
	if s.dtlb != nil {
		snap.DTLB = s.dtlb.State()
	}
	extra := make(map[string][]byte)
	if s.injOn {
		if ss, ok := s.inj.(StateSnapshotter); ok {
			b, err := ss.SnapshotState()
			if err != nil {
				return nil, fmt.Errorf("core: injector snapshot: %w", err)
			}
			extra[extraInject] = b
		}
	}
	if s.collecting {
		b, err := json.Marshal(s.telemetrySummary())
		if err != nil {
			return nil, fmt.Errorf("core: telemetry snapshot: %w", err)
		}
		extra[extraTelemetry] = b
	}
	if len(extra) > 0 {
		snap.Extra = extra
	}
	return snap, nil
}

// NewSimFromSnapshot rebuilds a simulation mid-run from a full (chain-
// resolved) snapshot. cfg must describe the same machine the snapshot
// was taken under — same config name and scheduler flavor, and
// the same observer set (oracle, invariants, injector, collector); the
// run-identity fields are verified here, the rest is the caller's
// contract. maxInsts is the absolute committed-instruction budget, as in
// NewSim (0 = run to program exit).
//
// The resumed run is bit-identical to the uninterrupted run with the
// same checkpoint cadence: every Result field, every commit record and
// every telemetry event from the resume point on. Telemetry accumulated
// before the snapshot is folded back into the final Result's summary;
// the event ring restarts empty (failure traces after a resume cover
// only post-resume events).
func NewSimFromSnapshot(snap *ckpt.Snapshot, cfg Config, maxInsts uint64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snap.Emu == nil {
		return nil, fmt.Errorf("core: snapshot has no emulator state")
	}
	if snap.Emu.Partial {
		return nil, fmt.Errorf("core: refusing a delta snapshot; resolve the chain with ckpt.LoadChain first")
	}
	if snap.Meta.Config != cfg.Name {
		return nil, fmt.Errorf("core: snapshot taken under config %q, resuming with %q",
			snap.Meta.Config, cfg.Name)
	}
	if sched := schedKind(&cfg); snap.Meta.Scheduler != sched {
		return nil, fmt.Errorf("core: snapshot taken under %s scheduler, resuming with %s",
			snap.Meta.Scheduler, sched)
	}
	if len(snap.Core) == 0 {
		return nil, fmt.Errorf("core: snapshot has no timing-core section")
	}
	var cc coreCkpt
	if err := json.Unmarshal(snap.Core, &cc); err != nil {
		return nil, fmt.Errorf("core: timing-core section: %w", err)
	}

	em, err := emu.NewFromState(snap.Emu)
	if err != nil {
		return nil, err
	}
	s := newSim(cfg, em, maxInsts)
	if snap.Bpred == nil {
		return nil, fmt.Errorf("core: snapshot has no branch-predictor state")
	}
	if err := s.pred.Restore(snap.Bpred); err != nil {
		return nil, err
	}
	if s.dtlb != nil {
		if snap.DTLB == nil {
			return nil, fmt.Errorf("core: config uses a DTLB but the snapshot has no DTLB state")
		}
		if err := s.dtlb.Restore(snap.DTLB); err != nil {
			return nil, err
		}
	} else if snap.DTLB != nil {
		return nil, fmt.Errorf("core: snapshot has DTLB state but the config uses none")
	}
	if snap.Hier == nil {
		return nil, fmt.Errorf("core: snapshot has no cache-hierarchy state")
	}
	if err := s.hier.Restore(snap.Hier); err != nil {
		return nil, err
	}

	s.resumed = true
	s.now = cc.Now
	s.lastCommitC = cc.LastCommit
	s.res = cc.Res
	s.res.Telemetry = nil
	s.fetchedCnt = cc.FetchedCnt
	s.seqCtr = cc.SeqCtr
	s.fetchStallTo = cc.FetchStallTo
	s.lastFetchLine = cc.LastFetchLine
	s.haveLine = cc.HaveLine
	s.traceDone = cc.TraceDone
	s.divFree = cc.DivFree
	s.fpmdFree = cc.FpmdFree
	s.nextCkpt = cc.NextCkpt

	if b, ok := snap.Extra[extraInject]; ok {
		ss, can := cfg.Inject.(StateSnapshotter)
		if !can {
			return nil, fmt.Errorf("core: snapshot carries injector state but cfg.Inject cannot restore it")
		}
		if err := ss.RestoreState(b); err != nil {
			return nil, fmt.Errorf("core: injector restore: %w", err)
		}
	} else if _, can := cfg.Inject.(StateSnapshotter); can {
		return nil, fmt.Errorf("core: cfg.Inject expects injector state but the snapshot has none")
	}
	if b, ok := snap.Extra[extraTelemetry]; ok && s.collecting {
		var sum telemetry.Summary
		if err := json.Unmarshal(b, &sum); err != nil {
			return nil, fmt.Errorf("core: telemetry section: %w", err)
		}
		s.baseTel = &sum
	}
	return s, nil
}
