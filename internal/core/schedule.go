package core

import (
	"math/bits"

	"pok/internal/bitslice"
	"pok/internal/emu"
	"pok/internal/isa"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Operand availability
// ---------------------------------------------------------------------------

// srcAvail returns when the slices in views (a mask) of source operand i
// of e are all available; an empty mask reads nothing and is ready at 0.
// announce selects the speculative (load-hit assumed) view used for
// wakeup; the non-announce view is ground truth used at execute.
func (s *Sim) srcAvail(e *entry, i int, views uint8, announce bool) int64 {
	p := e.srcProd[i]
	if p == nil || views == 0 {
		return 0 // architecturally ready before dispatch, or not read
	}
	if p.isLoad {
		if announce {
			return p.memPredDone
		}
		return p.memActualDone
	}
	if p.nSlices == 1 {
		st := &p.slices[0]
		if !st.started {
			return inf
		}
		done := st.startC + int64(p.fullLat)
		if s.cfg.SerialMul && p.d.Inst.Op.SliceProfile() == isa.SliceSerialMul {
			// Bit-serial product: slice k emerges (nSlices-1-k) cycles
			// before the final slice, never earlier than one cycle in, so
			// the highest slice read arrives last.
			early := done - int64(s.cfg.Slices-bits.Len8(views))
			if early < st.startC+1 {
				early = st.startC + 1
			}
			return early
		}
		return done
	}
	if !s.cfg.PartialBypass {
		// Atomic operands: wait for the producer's last slice.
		last := &p.slices[p.nSlices-1]
		if !last.started {
			return inf
		}
		return last.startC + 1
	}
	if p.narrow {
		// Narrow result: the upper slices are a known extension of the
		// low slice and become available with it.
		return p.slices[0].avail()
	}
	if views&^p.startedMask != 0 {
		return inf
	}
	t := int64(0)
	for m := views; m != 0; m &= m - 1 {
		if a := p.slices[bits.TrailingZeros8(m)].avail(); a > t {
			t = a
		}
	}
	return t
}

// depsAvail computes when slice sl of e can begin executing: every
// source slice it reads (its sliceDeps input mask, adjusted for operand
// roles by srcViews) must be available, and a serialized slice must
// also wait for its predecessor (the carry chain, or in-order slice
// issue when out-of-order slices are disabled).
func (s *Sim) depsAvail(e *entry, sl int, announce bool) int64 {
	t := e.dispC + int64(s.cfg.RFStages) + 1 // earliest possible execute
	if st := &e.slices[sl]; st.retryC > t {
		t = st.retryC
	}
	for i := 0; i < e.d.NSrc; i++ {
		if a := s.srcAvail(e, i, e.srcViews(i, sl), announce); a > t {
			t = a
		}
	}
	if e.deps.serial>>sl&1 != 0 {
		prev := &e.slices[sl-1]
		if !prev.started {
			return inf
		}
		if a := prev.startC + 1; a > t {
			t = a
		}
	}
	return t
}

// depsKnown reports whether every input of slice sl of e has a known
// speculative availability: each source producer has announced every
// view the slice reads, and a serialized slice's predecessor has
// started. It holds exactly when depsAvail(e, sl, true) < inf, as a few
// bit tests instead of a walk over the producers' slices.
func depsKnown(e *entry, sl int) bool {
	if e.deps.serial>>sl&1 != 0 && e.startedMask>>(sl-1)&1 == 0 {
		return false
	}
	for i := 0; i < e.d.NSrc; i++ {
		if p := e.srcProd[i]; p != nil && e.srcViews(i, sl)&^p.views != 0 {
			return false
		}
	}
	return true
}

// retryAt returns the cycle a replayed slice-op may try again, given the
// ground-truth availability observed at the failed issue. When that time
// is still unknown — the producer is a partial-tag load whose completion
// awaits its full address — the op must not latch the unreachable time
// (doing so parked the slice forever and livelocked the machine); it
// retries as soon as it wins an issue slot again, replaying until the
// operand's true arrival is established.
func retryAt(act int64) int64 {
	if act >= inf {
		return 0
	}
	return act
}

// replayCause classifies a failed speculative issue for the telemetry
// stream: an unknown (inf) ground-truth availability means the producer
// is a partial-tag load still awaiting its full address; anything else
// is an over-optimistic load-hit announcement.
func replayCause(act int64) int64 {
	if act >= inf {
		return telemetry.ReplayPendingAddr
	}
	return telemetry.ReplayLoadLatency
}

// needsAmount reports whether the op's first source is a shift amount
// (variable shifts encode the amount in rs, which maps to source 0).
func needsAmount(op isa.Op) bool {
	return op == isa.OpSLLV || op == isa.OpSRLV || op == isa.OpSRAV
}

// criticalProducer identifies the dataflow edge that gated slice sl of e
// at its (successful) issue: the input whose ground-truth availability
// was latest. The encoding lands in EvSliceIssue.Arg so the offline
// critical-path extractor (internal/profile) can rebuild the per-slice
// dependence DAG without register state:
//
//	> 0  seq+1 of the latest-arriving register producer
//	  -1  the entry's own previous slice (carry chain / in-order issue)
//	   0  no in-flight producer (operands ready at dispatch)
//
// Ties between a register producer and the carry chain go to the carry
// chain (the structural hazard is the binding constraint). The function
// is a pure read of producer state shared by both schedulers, so the
// cross-scheduler golden event-stream test covers it.
func (s *Sim) criticalProducer(e *entry, sl int) int64 {
	bestT := int64(0)
	bestSeq := int64(0)
	for i := 0; i < e.d.NSrc; i++ {
		p := e.srcProd[i]
		if p == nil {
			continue
		}
		if t := s.srcAvail(e, i, e.srcViews(i, sl), false); t > bestT {
			bestT = t
			bestSeq = int64(p.seq) + 1
		}
	}
	if e.deps.serial>>sl&1 != 0 {
		if prev := &e.slices[sl-1]; prev.started {
			if t := prev.startC + 1; t >= bestT && t > 0 {
				return -1
			}
		}
	}
	return bestSeq
}

// depsAvailC is the memoizing wrapper around depsAvail used by the
// event-driven scheduler: the result is cached per (slice, announce) and
// invalidated only when a producer event (or the entry's own replay or
// slice execution) could change it, so quiet cycles recompute nothing.
func (s *Sim) depsAvailC(e *entry, sl int, announce bool) int64 {
	a := 0
	if announce {
		a = 1
	}
	if e.depsOK[sl][a] {
		return e.depsVal[sl][a]
	}
	v := s.depsAvail(e, sl, announce)
	e.depsVal[sl][a], e.depsOK[sl][a] = v, true
	return v
}

// onSliceExecuted handles per-slice side effects: branch resolution and
// LSQ address updates.
func (s *Sim) onSliceExecuted(e *entry, sl int) {
	availC := e.slices[sl].startC + 1
	if e.nSlices == 1 {
		availC = e.slices[sl].startC + int64(e.fullLat)
	}
	if s.collecting {
		s.emit(telemetry.EvSliceComplete, e.seq, int8(sl), availC, 0)
	}

	if e.isCtrl && !e.resolved {
		s.maybeResolveBranch(e, sl, availC)
	}

	if (e.isLoad || e.isStore) && e.lsqInserted {
		// Address-generation progress: after slice sl completes, bits
		// [0, (sl+1)*W) of the effective address are known.
		if q := e.lsqEnt; q != nil {
			known := (sl + 1) * s.cfg.SliceWidth()
			if e.nSlices == 1 {
				known = 32
			}
			if known > q.KnownBits {
				q.KnownBits = known
			}
		}
	}
}

// branchOperands returns the two compared values of a conditional branch.
func branchOperands(d *emu.DynInst) (a, b uint32) {
	switch d.NSrc {
	case 2:
		return d.SrcVal[0], d.SrcVal[1]
	case 1:
		return d.SrcVal[0], 0
	default:
		return 0, 0
	}
}

// maybeResolveBranch updates resolution state after slice sl of a control
// instruction has executed (its comparison result available at availC).
func (s *Sim) maybeResolveBranch(e *entry, sl int, availC int64) {
	op := e.d.Inst.Op
	// Jumps and full-width control resolve when their single op executes.
	if e.nSlices == 1 {
		s.resolveBranchAt(e, availC, false)
		return
	}
	a, b := branchOperands(&e.d)
	if s.cfg.EarlyBranch && op.EqualityBranch() && e.mispred {
		// A mispredicted equality branch asserted the wrong relation. If
		// the operands differ in this very slice, the comparison just
		// performed refutes the prediction immediately.
		w := s.cfg.SliceWidth()
		if !bitslice.MatchField(a, b, sl*w, w) {
			s.resolveBranchAt(e, availC, true)
			return
		}
	}
	// Otherwise resolution requires the complete comparison.
	if allSlicesStarted(e) {
		s.resolveBranchAt(e, lastSliceAvail(e), false)
	}
}

// markSliceIssued records the execution start of slice sl in both the
// per-slice struct and the entry's SoA mirrors (startedMask, execEnd), so
// the per-cycle consumers below stay one-compare operations.
func markSliceIssued(e *entry, sl int, now int64) {
	st := &e.slices[sl]
	st.started = true
	st.startC = now
	e.startedMask |= uint8(1) << uint(sl)
	end := now + 1
	if e.nSlices == 1 {
		end = now + int64(e.fullLat)
	}
	if end > e.execEnd {
		e.execEnd = end
	}
}

func allSlicesStarted(e *entry) bool {
	return e.startedMask == e.fullMask
}

// lastSliceAvail is valid once allSlicesStarted: execEnd accumulated the
// maximum per-slice availability as the slices issued.
func lastSliceAvail(e *entry) int64 {
	return e.execEnd
}

func (s *Sim) resolveBranchAt(e *entry, c int64, early bool) {
	if e.resolved && e.resolveC <= c {
		return
	}
	e.resolved = true
	e.resolveC = c
	if s.tracing {
		s.trace("resolve  #%d at %d early=%v mispred=%v", e.seq, c, early, e.mispred)
	}
	if s.collecting {
		flags := int64(0)
		if e.mispred {
			flags |= telemetry.ResolveMispredict
		}
		if early {
			flags |= telemetry.ResolveEarly
		}
		s.emit(telemetry.EvBranchResolve, e.seq, -1, c, flags)
	}
	if early {
		e.earlyResolved = true
		s.res.EarlyResolved++
	}
}
