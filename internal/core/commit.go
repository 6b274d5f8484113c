package core

import (
	"fmt"
	"strings"

	"pok/internal/isa"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

func (s *Sim) commit() (int, error) {
	n := 0
	for n < s.cfg.CommitWidth && s.window.Len() > 0 {
		e := s.window.Front()
		if !s.entryDone(e) {
			break
		}
		e.committed = true
		s.window.PopFront()
		if s.tracing {
			s.trace("commit   #%d", e.seq)
		}
		if s.collecting {
			doneC, dep := s.commitDone(e)
			s.emit(telemetry.EvCommit, e.seq, -1, doneC, dep)
		}
		if s.oracleOn {
			// Lockstep oracle: diff the committed architectural record
			// against the functional reference before any bookkeeping, so
			// a divergence report reflects the machine exactly as it
			// committed the bad instruction.
			// The Sim's one record is refilled per commit: a local would
			// escape through the interface call and cost a heap object.
			rec := &s.commitRec
			s.makeCommitRecord(e, rec)
			if s.injOn {
				s.inj.MutateCommit(rec) // deliberate-corruption test hook
			}
			if err := s.cfg.Oracle.CheckCommit(rec); err != nil {
				return n, fmt.Errorf("core: commit oracle (seq %d, cycle %d): %w",
					e.seq, s.now, err)
			}
		}
		if e.lsqInserted {
			if e.isStore {
				// Stores update the cache at commit (write-back,
				// write-allocate); the latency is absorbed by the store
				// buffer.
				s.hier.WriteData(e.d.EffAddr)
				s.res.Stores++
			}
			s.lsq.Remove(e.seq)
		}
		// Only the entry's own destinations can map to it in the rename
		// table (dispatch and squash-restore preserve that invariant), so
		// clearing them directly replaces the old full-table sweep.
		if d := e.d.Dst; d != isa.RegZero && s.regProd[d] == e {
			s.regProd[d] = nil
		}
		if d2 := e.d.Dst2; d2 != isa.RegZero && s.regProd[d2] == e {
			s.regProd[d2] = nil
		}
		// The entry stays out of the pool until every older in-flight
		// entry that may reference it has drained (see recycleRetired).
		e.retireTag = s.seqCtr
		s.retireQ.PushBack(e)
		s.res.Insts++
		n++
	}
	return n, nil
}

// entryDone reports whether e has completed every pipeline obligation.
func (s *Sim) entryDone(e *entry) bool {
	if !e.dispatched || e.wp {
		return false
	}
	// SoA fast path: startedMask fills as slices issue and execEnd tracks
	// the latest per-slice completion, so the old per-slice walk reduces
	// to one mask compare and one time compare.
	if e.startedMask != e.fullMask || e.execEnd > s.now {
		return false
	}
	if e.isLoad && e.memActualDone > s.now {
		return false
	}
	if e.isStore {
		if q := e.lsqEnt; q == nil || !q.DataReady || !q.AddrKnown() {
			return false
		}
	}
	if e.isCtrl && (!e.resolved || e.resolveC > s.now) {
		return false
	}
	return true
}

// commitDone classifies the committing instruction's oldest-unresolved
// pipeline obligation for EvCommit: doneC is the cycle the last
// obligation completed (the instruction was commit-ready from doneC
// onward), dep the telemetry.CommitDep* class of that obligation. The
// function is a pure read of entry state shared by both schedulers
// (every field it touches is written by the shared memory/schedule
// helpers or at scheduler sites whose cycles provably coincide), so the
// cross-scheduler golden event-stream test covers it.
//
// Tie-breaking is deliberate: when a load's memory completion or a
// branch's resolution lands on the same cycle as the final slice
// execution, the memory/branch obligation wins — those are the
// components partial operand knowledge targets (§5, §7), and the
// CPI-stack consumer wants their shrinkage visible, not masked by the
// coincident execute.
func (s *Sim) commitDone(e *entry) (doneC int64, dep int64) {
	// Execution end: last slice result, or the full-width latency
	// (execEnd, maintained at the issue sites).
	end := e.execEnd
	dep = telemetry.CommitDepSlice
	if e.replayedSelf {
		dep = telemetry.CommitDepReplay
	}
	if end <= e.dispC+int64(s.cfg.RFStages)+1 && dep == telemetry.CommitDepSlice {
		// The op issued at the earliest architecturally possible cycle:
		// nothing in the backend gated it.
		dep = telemetry.CommitDepNone
	}
	if e.isStore && e.dataReadyC > end {
		// A store's last obligation can be its data operand becoming
		// forwardable; that is still a slice-dependence cost upstream.
		end = e.dataReadyC
		dep = telemetry.CommitDepSlice
	}
	if e.isLoad && e.memActualDone >= end && e.memActualDone < inf {
		end = e.memActualDone
		switch {
		case e.wayMispred:
			dep = telemetry.CommitDepWayMispredict
		case e.disambigWait || e.forwarded:
			dep = telemetry.CommitDepLSQ
		case !e.l1Hit:
			dep = telemetry.CommitDepDRAM
		default:
			dep = telemetry.CommitDepDCache
		}
	}
	if e.isCtrl && e.resolved && e.resolveC >= end {
		end = e.resolveC
		dep = telemetry.CommitDepBranch
	}
	return end, dep
}

// Summary renders the result as the multi-line human-readable report the
// pok-sim tool prints.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config            %s\n", r.Config)
	if r.Benchmark != "" {
		fmt.Fprintf(&b, "benchmark         %s\n", r.Benchmark)
	}
	fmt.Fprintf(&b, "instructions      %d\n", r.Insts)
	fmt.Fprintf(&b, "cycles            %d\n", r.Cycles)
	fmt.Fprintf(&b, "IPC               %.4f\n", r.IPC)
	fmt.Fprintf(&b, "loads / stores    %d / %d\n", r.Loads, r.Stores)
	fmt.Fprintf(&b, "cond branches     %d (accuracy %.2f%%, %d mispredicted)\n",
		r.Branches, 100*r.BranchAccuracy, r.Mispredicts)
	fmt.Fprintf(&b, "L1D / L1I miss    %.2f%% / %.2f%%\n",
		100*r.L1DMissRate, 100*r.L1IMissRate)
	if r.DTLBMissRate > 0 {
		fmt.Fprintf(&b, "DTLB miss         %.2f%%\n", 100*r.DTLBMissRate)
	}
	fmt.Fprintf(&b, "store forwards    %d\n", r.StoreForwards)
	fmt.Fprintf(&b, "replays           %d\n", r.Replays)
	fmt.Fprintf(&b, "stall cycles      mispredict=%d icache=%d window=%d lsq=%d iq=%d\n",
		r.StallMispredict, r.StallICache, r.StallWindowFull, r.StallLSQFull,
		r.StallIQFull)
	if r.PartialTagAccess > 0 {
		fmt.Fprintf(&b, "partial-tag use   %d accesses, %d way mispredicts, %d early miss signals\n",
			r.PartialTagAccess, r.WayMispredicts, r.EarlyMissSignals)
	}
	if r.EarlyResolved > 0 {
		fmt.Fprintf(&b, "early branch res  %d of %d mispredicts\n",
			r.EarlyResolved, r.Mispredicts)
	}
	if r.LoadsEarlyRelease > 0 {
		fmt.Fprintf(&b, "early l/s release %d loads\n", r.LoadsEarlyRelease)
	}
	if r.WrongPathInsts > 0 {
		fmt.Fprintf(&b, "wrong-path insts  %d\n", r.WrongPathInsts)
	}
	return b.String()
}
