package core

import (
	"errors"
	"fmt"
	"strings"

	"pok/internal/isa"
)

// This file declares the robustness hooks the timing core consumes: the
// lockstep commit oracle, the per-cycle invariant checker configuration,
// the fault-injection interface, and the structured deadlock error. The
// implementations live in internal/check (oracle, reports) and
// internal/check/inject (the seeded fault injector); keeping only the
// interfaces here preserves the dependency direction core <- check.
//
// All three hooks are nil-cheap: with Oracle, Invariants and Inject left
// nil the instrumentation reduces to one cached-boolean branch per site
// (the same discipline as telemetry.Collector), and Result is
// bit-identical to an unchecked run.

// CommitRecord is the architectural effect of one committed instruction,
// handed to the commit oracle in program order. It carries everything the
// functional reference needs to diff: the PC, the consumed source values,
// the produced destination values, the memory effect and the control
// outcome.
type CommitRecord struct {
	Cycle int64  // cycle the instruction committed
	Seq   uint64 // machine sequence number (wrong-path fetches leave gaps)
	Index uint64 // dense commit-order index (0-based)

	PC   uint32
	Inst isa.Inst

	NSrc   int
	SrcVal [2]uint32

	Dst     isa.Reg
	DstVal  uint32
	Dst2    isa.Reg
	Dst2Val uint32

	EffAddr uint32 // memory ops: effective address
	Taken   bool   // control ops: direction taken
	NextPC  uint32 // architectural next PC
}

// CommitChecker is the lockstep oracle interface: the core calls
// CheckCommit once per committed instruction, in commit order. A non-nil
// error aborts the run immediately — the first divergence is the one
// worth reporting; everything after it is noise. The record is valid
// only during the call: the core refills the same record for the next
// commit, so a checker that needs a field later must copy it.
type CommitChecker interface {
	CheckCommit(r *CommitRecord) error
}

// Injector perturbs the core's speculative-timing decisions for fault
// injection (internal/check/inject implements it deterministically from a
// seed). Every hook corrupts *speculation only* — operand slice verify,
// MRU way prediction, partial disambiguation — never architectural
// values, so a correct machine must always recover through its own
// verify/squash/replay paths to an oracle-identical commit stream.
// MutateCommit is the deliberate exception: a test hook that corrupts the
// committed record itself so the oracle's detection path can be
// exercised end to end.
type Injector interface {
	// FlipSlice reports whether the result of slice sl of instruction seq
	// should be treated as corrupted at issue verify. The core discards
	// the issue slot and replays the slice-op, as a hardware residue/ECC
	// check would.
	FlipSlice(seq uint64, sl int) bool
	// ForceWayMiss reports whether a correct MRU way prediction for load
	// seq should be treated as a mispredict, forcing the full-address
	// replay path of §5.2.
	ForceWayMiss(seq uint64) bool
	// ForceAliasConflict reports whether load seq's disambiguation should
	// be treated as an unresolved store conflict this cycle (the load
	// stalls and retries, as under a partial-address match of §5.1).
	ForceAliasConflict(seq uint64) bool
	// MutateCommit may corrupt the commit record before the oracle sees
	// it — a test hook to prove divergence detection works. Like
	// CheckCommit, it may not keep the record past the call.
	MutateCommit(r *CommitRecord)
}

// InvariantConfig enables the per-cycle structural invariant checker.
// The zero value selects the default budgets.
type InvariantConfig struct {
	// DeadlockBudget is the number of cycles the machine may go without
	// committing before the run aborts with ErrDeadlock and a pipeline
	// dump (0 = the default, 40 000 — the historic livelock guard).
	DeadlockBudget int64
	// ReplayBudget bounds how long a replayed slice-op may sit past its
	// established retry time without re-issuing (0 = default 5 000).
	ReplayBudget int64
	// Every runs the structural checks once per N cycles (0 or 1 =
	// every cycle). The deadlock watchdog always runs every cycle.
	Every int64
}

const (
	defaultDeadlockBudget = 40_000
	defaultReplayBudget   = 5_000
)

func (ic *InvariantConfig) deadlockBudget() int64 {
	if ic != nil && ic.DeadlockBudget > 0 {
		return ic.DeadlockBudget
	}
	return defaultDeadlockBudget
}

func (ic *InvariantConfig) replayBudget() int64 {
	if ic != nil && ic.ReplayBudget > 0 {
		return ic.ReplayBudget
	}
	return defaultReplayBudget
}

func (ic *InvariantConfig) every() int64 {
	if ic == nil || ic.Every <= 1 {
		return 1
	}
	return ic.Every
}

// ErrDeadlock reports that the machine stopped making forward progress:
// no instruction committed within the configured cycle budget. It is
// always wrapped in a *DeadlockError carrying the pipeline dump.
var ErrDeadlock = errors.New("core: no forward progress (deadlock)")

// DeadlockError is the structured form of a tripped deadlock watchdog.
type DeadlockError struct {
	Cycle     int64  // cycle the watchdog fired
	Committed uint64 // instructions committed before the wedge
	Budget    int64  // the no-commit budget that was exceeded
	Dump      string // window/pipeline state dump
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: no commit for %d cycles at cycle %d (%d committed)\n%s",
		e.Budget, e.Cycle, e.Committed, e.Dump)
}

// Unwrap lets errors.Is(err, ErrDeadlock) identify the failure class.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// InvariantError is one violated structural invariant, reported by the
// per-cycle checker the first time it fails.
type InvariantError struct {
	Rule   string // stable rule identifier (e.g. "rob-order")
	Cycle  int64
	Seq    uint64 // offending instruction, when one is identifiable
	Detail string
	Dump   string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: invariant %s violated at cycle %d (seq %d): %s\n%s",
		e.Rule, e.Cycle, e.Seq, e.Detail, e.Dump)
}

// dumpWindow renders up to max in-flight window entries for failure
// reports: enough pipeline state to reconstruct what wedged without
// replaying the run.
func (s *Sim) dumpWindow(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: window=%d/%d lsq=%d/%d iq=%d fetchBuf=%d\n",
		s.now, s.window.Len(), s.cfg.WindowSize, s.lsq.Len(), s.cfg.LSQSize,
		s.iqOccupancy(), s.fetchBuf.Len())
	n := s.window.Len()
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		e := s.window.At(i)
		var sl strings.Builder
		for k := 0; k < e.nSlices; k++ {
			st := &e.slices[k]
			switch {
			case st.started:
				fmt.Fprintf(&sl, " s%d@%d", k, st.startC)
			case st.retryC > 0:
				fmt.Fprintf(&sl, " s%d:retry@%d", k, st.retryC)
			default:
				fmt.Fprintf(&sl, " s%d:-", k)
			}
		}
		mem := ""
		if e.isLoad || e.isStore {
			mem = fmt.Sprintf(" mem[issued=%v pend=%d done=%d]",
				e.memIssued, e.memPendFull, e.memActualDone)
		}
		ctrl := ""
		if e.isCtrl {
			ctrl = fmt.Sprintf(" ctrl[resolved=%v@%d mispred=%v]",
				e.resolved, e.resolveC, e.mispred)
		}
		fmt.Fprintf(&b, "  #%d pc=0x%x %s disp=%v wp=%v%s%s%s\n",
			e.seq, e.d.PC, e.d.Inst.Op, e.dispatched, e.wp, sl.String(), mem, ctrl)
	}
	if s.window.Len() > n {
		fmt.Fprintf(&b, "  ... %d more entries\n", s.window.Len()-n)
	}
	return b.String()
}

// makeCommitRecord fills a CommitRecord from a committing entry.
func (s *Sim) makeCommitRecord(e *entry, rec *CommitRecord) {
	d := &e.d
	*rec = CommitRecord{
		Cycle:   s.now,
		Seq:     e.seq,
		Index:   s.res.Insts,
		PC:      d.PC,
		Inst:    d.Inst,
		NSrc:    d.NSrc,
		SrcVal:  d.SrcVal,
		Dst:     d.Dst,
		DstVal:  d.DstVal,
		Dst2:    d.Dst2,
		Dst2Val: d.Dst2Val,
		EffAddr: d.EffAddr,
		Taken:   d.Taken,
		NextPC:  d.NextPC,
	}
}
