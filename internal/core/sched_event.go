package core

import (
	"math/bits"

	"pok/internal/isa"
	"pok/internal/telemetry"
)

// Event-driven scheduler.
//
// Instead of rescanning the whole window every cycle, slice-op candidates
// are pushed into a time-indexed wakeup wheel (a bucketed timing wheel
// keyed on their computed depsAvail) when the event that completes their
// dependence set occurs:
//
//   - dispatch seeds every slice whose inputs are already determined;
//   - a producer's slice execution (or a load establishing its completion
//     time) determines some of the producer's output views
//     (changedViews); it walks the producer's consumer list and
//     re-enqueues exactly the consumer slice-ops whose input mask
//     (srcViews) covers one of them, so slice k's result wakes only the
//     slices that read slice k;
//   - a slice execution enqueues the entry's own next slice when that
//     slice is serialized (carry chains and in-order slice issue);
//   - a replay re-enqueues the slice-op at its retryC.
//
// Candidates whose speculative depsAvail is still unknown (inf — some
// input has not been produced) are not enqueued at all: depsKnown tests
// each producer's known-views mask against the slice's input mask before
// any evaluation, and the producer event that completes the set
// enqueues them. Because every dependence input transitions exactly once
// from "unknown" to a fixed time, a candidate's wake time is exact when
// it becomes finite, so schedule() touches only slice-ops that are
// genuinely ready this cycle (plus any left over from resource
// contention). Ready candidates are issued in (seq, slice) order,
// reproducing the select priority of the legacy window scan cycle for
// cycle.

// cand is one wakeup-wheel candidate: slice sl of entry e becomes
// schedulable at cycle wake. gen snapshots e.gen so candidates that
// outlive a squashed-and-recycled entry are dropped on pop.
type cand struct {
	e    *entry
	wake int64
	seq  uint64
	gen  uint32
	sl   int32
}

// The wheel is a power-of-two ring of per-cycle buckets plus an
// occupancy bitmap. A binary min-heap held the candidates in earlier
// revisions, but each sift swap of the pointer-carrying cand struct paid
// a GC write barrier, and the heap's O(log n) reshuffling dominated the
// scheduler profile; bucket appends are straight-line stores and the
// per-cycle drain touches only the bucket for the current cycle.
const (
	// wheelHorizon bounds how far ahead a bucketed wakeup may lie. It
	// comfortably exceeds the longest single-event latency the machine
	// can schedule (an L1+L2 miss to memory plus a TLB walk); rarer,
	// farther wakes spill to the overflow list.
	wheelHorizon = 512
	wheelMask    = wheelHorizon - 1
	wheelWords   = wheelHorizon / 64
)

// wakeWheel is the bucketed timing wheel. Buckets cover the cycles
// [base, base+wheelHorizon); all candidates in one live bucket share the
// same wake cycle (the window is exactly one horizon wide, so bucket
// indices cannot alias). base is the earliest cycle whose bucket has not
// been consumed: the cycle being simulated while its stages run, and the
// next cycle once schedule() has drained.
type wakeWheel struct {
	bucket   [wheelHorizon][]cand
	occ      [wheelWords]uint64 // bitmap of non-empty buckets
	base     int64
	count    int    // candidates across all buckets (excluding overflow)
	overflow []cand // wakes at or beyond base+wheelHorizon
	ovMin    int64  // earliest overflow wake, inf when overflow is empty
}

// min returns the earliest pending wake cycle, or inf when the wheel is
// empty. The quiet-cycle skipper uses it to bound its jump.
func (w *wakeWheel) min() int64 {
	t := w.bucketMin()
	if w.ovMin < t {
		t = w.ovMin
	}
	return t
}

// bucketMin scans the occupancy bitmap circularly from base and returns
// the earliest bucketed wake cycle, or inf.
func (w *wakeWheel) bucketMin() int64 {
	if w.count == 0 {
		return inf
	}
	start := int(w.base) & wheelMask
	wi := start >> 6
	m := w.occ[wi] &^ (1<<uint(start&63) - 1) // ignore bits before base
	for k := 0; k <= wheelWords; k++ {
		if m != 0 {
			b := wi<<6 + bits.TrailingZeros64(m)
			return w.base + int64((b-start)&wheelMask)
		}
		wi = (wi + 1) % wheelWords
		m = w.occ[wi]
	}
	return inf // unreachable while count > 0
}

// pushWheel inserts a candidate into the wakeup wheel. Wakes in the past
// (a replay whose operand arrived while the candidate was parked) are
// clamped to base so they surface at the next drain, exactly when the
// min-heap predecessor would have re-delivered them.
func (s *Sim) pushWheel(c cand) {
	w := &s.wh
	t := c.wake
	if t < w.base {
		t = w.base
	}
	if t >= w.base+wheelHorizon {
		w.overflow = append(w.overflow, c)
		if c.wake < w.ovMin {
			w.ovMin = c.wake
		}
		return
	}
	b := int(t) & wheelMask
	w.bucket[b] = append(w.bucket[b], c)
	w.occ[b>>6] |= 1 << uint(b&63)
	w.count++
}

// admit moves a drained candidate into the ready set unless it became
// stale (squash recycling, a duplicate wakeup, or issue in the meantime).
func (s *Sim) admit(c cand) {
	e := c.e
	if c.gen != e.gen || e.committed || e.squashed {
		return
	}
	st := &e.slices[c.sl]
	if st.started || st.inReady {
		return
	}
	st.inReady = true
	s.ready = append(s.ready, c)
	s.readyDirty = true
}

// drainWheel moves every candidate due at or before s.now into the ready
// set and advances base past the consumed cycles.
func (s *Sim) drainWheel() {
	w := &s.wh
	for w.count > 0 {
		t := w.bucketMin()
		if t > s.now {
			break
		}
		b := int(t) & wheelMask
		bk := w.bucket[b]
		w.count -= len(bk)
		for _, c := range bk {
			s.admit(c)
		}
		w.bucket[b] = bk[:0]
		w.occ[b>>6] &^= 1 << uint(b&63)
	}
	if w.ovMin <= s.now {
		ov := w.overflow
		n := 0
		newMin := int64(inf)
		for _, c := range ov {
			if c.wake <= s.now {
				s.admit(c)
				continue
			}
			if c.wake < newMin {
				newMin = c.wake
			}
			ov[n] = c
			n++
		}
		for i := n; i < len(ov); i++ {
			ov[i] = cand{}
		}
		w.overflow = ov[:n]
		w.ovMin = newMin
	}
	w.base = s.now + 1
}

// enqueueCand computes the speculative wakeup time of slice sl of e and
// inserts it into the wheel. Candidates whose dependence set is not yet
// determined (depsKnown fails, so depsAvail would be inf) are parked:
// the producer event that completes the set re-enqueues them.
func (s *Sim) enqueueCand(e *entry, sl int) {
	st := &e.slices[sl]
	if st.started || st.inReady || e.committed || e.squashed || !depsKnown(e, sl) {
		return
	}
	w := s.depsAvailC(e, sl, true)
	s.pushWheel(cand{e: e, wake: w, seq: e.seq, gen: e.gen, sl: int32(sl)})
}

// wakeConsumers handles a producer event on p: slice k of p executed,
// or (k == -1) a load established its completion time. Only the
// consumer slice-ops that read one of the output views the event
// determined have their memoized depsAvail invalidated and are
// (re-)enqueued; every other slice-op's ready cycle is unchanged.
func (s *Sim) wakeConsumers(p *entry, k int) {
	changed := s.changedViews(p, k)
	if changed == 0 {
		return
	}
	p.views |= changed
	for _, cr := range p.consumers {
		c := cr.e
		if c.gen != cr.gen || c.committed || c.squashed {
			continue
		}
		for sl := 0; sl < c.nSlices; sl++ {
			if c.startedMask>>sl&1 != 0 {
				continue
			}
			var reads uint8
			for i := 0; i < c.d.NSrc; i++ {
				if c.srcProd[i] == p {
					reads |= c.srcViews(i, sl)
				}
			}
			if reads&changed != 0 {
				c.depsOK[sl] = [2]bool{}
				s.enqueueCand(c, sl)
			}
		}
	}
}

// changedViews returns the mask of p's output views whose availability
// (as srcAvail reads it) event k determines. A load's value comes from
// its memory completion, not its address-generation slices; atomic
// operands (no partial bypass) appear with the last slice and a narrow
// result with its low slice; a full-width op produces every view at
// once.
func (s *Sim) changedViews(p *entry, k int) uint8 {
	switch {
	case k < 0:
		return s.allViews()
	case p.isLoad:
		return 0
	case p.nSlices == 1:
		return s.allViews()
	case !s.cfg.PartialBypass:
		if k == p.nSlices-1 {
			return s.allViews()
		}
		return 0
	case p.narrow:
		if k == 0 {
			return s.allViews()
		}
		return 0
	}
	return 1 << k
}

// schedule pops due candidates off the wheel into the ready set, then
// issues them in program order under the same per-slice issue/FU limits
// as the legacy scan. Resource-starved candidates stay ready for the
// next cycle; replayed ones are re-enqueued at their retryC.
func (s *Sim) schedule() {
	s.drainWheel()
	if s.readyDirty {
		sortReady(s.ready)
		s.readyDirty = false
	}
	r := s.ready
	n := 0
	for i, c := range r {
		e := c.e
		if c.gen != e.gen || e.committed || e.squashed || e.slices[c.sl].started {
			continue // squashed or satisfied since entering the ready set
		}
		var consumed bool
		if e.nSlices == 1 {
			consumed = s.tryIssueFull(e)
		} else {
			consumed = s.tryIssueSlice(e, int(c.sl))
		}
		if !consumed {
			// No issue slot this cycle; stay ready. Write only on actual
			// compaction to spare the pointer write barrier.
			if n != i {
				r[n] = c
			}
			n++
		}
	}
	for i := n; i < len(r); i++ {
		r[i] = cand{}
	}
	s.ready = r[:n]
}

// sortReady orders the ready set by (seq, slice) — the select priority of
// the legacy window scan. An insertion sort beats sort.Slice here: the
// set is small, largely sorted already (survivors from last cycle stay in
// order), and a typed sort avoids reflection in the swap path.
func sortReady(r []cand) {
	for i := 1; i < len(r); i++ {
		c := r[i]
		j := i - 1
		for j >= 0 && (r[j].seq > c.seq || (r[j].seq == c.seq && r[j].sl > c.sl)) {
			r[j+1] = r[j]
			j--
		}
		r[j+1] = c
	}
}

// tryIssueSlice attempts to issue one slice-op of a sliced entry,
// reporting whether the candidate was consumed (issued or replayed).
func (s *Sim) tryIssueSlice(e *entry, sl int) bool {
	if s.issueUsed[sl] >= s.cfg.IssueWidth || s.aluUsed[sl] >= s.cfg.IntALUs {
		return false
	}
	s.issueUsed[sl]++
	s.aluUsed[sl]++
	st := &e.slices[sl]
	st.inReady = false // the candidate is consumed either way below
	if act := s.depsAvailC(e, sl, false); act > s.now {
		// Load-hit misspeculation: the slot is wasted and the slice-op
		// replays once its operand truly arrives.
		st.retryC = retryAt(act)
		e.replayedSelf = true
		e.invalidateDeps()
		s.res.Replays++
		if s.collecting {
			s.emit(telemetry.EvReplay, e.seq, int8(sl), st.retryC, replayCause(act))
		}
		s.enqueueCand(e, sl)
		return true
	}
	if s.injOn && s.inj.FlipSlice(e.seq, sl) {
		// Injected slice corruption: the verify stage catches it, the
		// slot is wasted and the slice-op replays next cycle.
		st.retryC = s.now + 1
		e.replayedSelf = true
		e.invalidateDeps()
		s.res.Replays++
		if s.collecting {
			s.emit(telemetry.EvReplay, e.seq, int8(sl), st.retryC, telemetry.ReplayInjected)
		}
		s.enqueueCand(e, sl)
		return true
	}
	markSliceIssued(e, sl, s.now)
	e.invalidateDeps()
	if s.tracing {
		s.trace("exec     #%d slice %d", e.seq, sl)
	}
	if s.collecting {
		s.emit(telemetry.EvSliceIssue, e.seq, int8(sl), s.criticalProducer(e, sl), 0)
	}
	s.onSliceExecuted(e, sl)
	if allSlicesStarted(e) {
		e.execDone = true
		s.iqCount--
	}
	s.wakeConsumers(e, sl)
	// Carry chains and in-order slice issue make the next slice of this
	// entry dependent on the one that just executed.
	if e.deps.serial>>(sl+1)&1 != 0 {
		s.enqueueCand(e, sl+1)
	}
	return true
}

// tryIssueFull attempts to issue a full-width operation, reporting
// whether the candidate was consumed (issued or replayed). Resource
// selection and consumption mirror scheduleFullLegacy exactly; a ready
// candidate consumes its unit before the actual-readiness verify, so a
// replay wastes the unit just as the hardware (and the legacy scan)
// would.
func (s *Sim) tryIssueFull(e *entry) bool {
	op := e.d.Inst.Op
	cls := op.Class()
	switch cls {
	case isa.ClassIntMul:
		if s.mulUsed >= s.cfg.IntMul {
			return false
		}
	case isa.ClassIntDiv:
		if s.divFree > s.now {
			return false
		}
	case isa.ClassFP:
		if s.fpUsed >= s.cfg.FPALUs {
			return false
		}
	case isa.ClassFPMulDiv:
		if s.fpmdFree > s.now {
			return false
		}
	default:
		if s.issueUsed[0] >= s.cfg.IssueWidth || s.aluUsed[0] >= s.cfg.IntALUs {
			return false
		}
	}
	switch cls {
	case isa.ClassIntMul:
		s.mulUsed++
	case isa.ClassIntDiv:
		s.divFree = s.now + int64(e.fullLat)
	case isa.ClassFP:
		s.fpUsed++
	case isa.ClassFPMulDiv:
		s.fpmdFree = s.now + int64(e.fullLat)
	default:
		s.issueUsed[0]++
		s.aluUsed[0]++
	}
	st := &e.slices[0]
	st.inReady = false // the candidate is consumed either way below
	if act := s.depsAvailC(e, 0, false); act > s.now {
		st.retryC = retryAt(act)
		e.replayedSelf = true
		e.invalidateDeps()
		s.res.Replays++
		if s.collecting {
			s.emit(telemetry.EvReplay, e.seq, 0, st.retryC, replayCause(act))
		}
		s.enqueueCand(e, 0)
		return true
	}
	if s.injOn && s.inj.FlipSlice(e.seq, 0) {
		st.retryC = s.now + 1
		e.replayedSelf = true
		e.invalidateDeps()
		s.res.Replays++
		if s.collecting {
			s.emit(telemetry.EvReplay, e.seq, 0, st.retryC, telemetry.ReplayInjected)
		}
		s.enqueueCand(e, 0)
		return true
	}
	markSliceIssued(e, 0, s.now)
	e.execDone = true
	s.iqCount--
	e.invalidateDeps()
	if s.tracing {
		s.trace("exec     #%d full (lat %d)", e.seq, e.fullLat)
	}
	if s.collecting {
		s.emit(telemetry.EvSliceIssue, e.seq, 0, s.criticalProducer(e, 0), 1)
	}
	s.onSliceExecuted(e, 0)
	s.wakeConsumers(e, 0)
	return true
}
