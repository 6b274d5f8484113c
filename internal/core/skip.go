package core

import "pok/internal/isa"

// Quiet-cycle skipping: the wakeup-wheel idea extended to fetch, dispatch,
// commit and the memory stage. After a cycle in which the front end is
// stalled and no candidate is ready, every future state change is pinned
// to a computable event time — the earliest wheel wakeup, a branch's
// resolveC, the I-cache refill, the front entry's commit-ready time, a
// store's data arrival, a load's address-generation gate, the front-end
// latency of the next dispatch — so the simulator can jump s.now straight
// to the earliest such event instead of iterating cycles that provably do
// nothing. Stall counters that the per-cycle loop would have incremented
// during the jumped-over cycles are bulk-added, replicating the
// first-matching-condition priority of fetch() and dispatch().
//
// The skip is gated (s.skipOK) on the event-driven scheduler with no
// per-cycle observers, and the legacy scheduler never skips — so the
// cross-scheduler equivalence tests compare a skipping run against a
// cycle-by-cycle reference and require bit-identical Results.

// nextCycle returns the cycle drive should simulate next: s.now+1, or
// a later cycle when everything between is provably quiet. The jump is
// capped at the deadlock watchdog's firing cycle so a wedged machine
// reports the same DeadlockError as the per-cycle loop.
func (s *Sim) nextCycle(lastCommit, budget int64) int64 {
	noSkip := s.now + 1
	if !s.skipOK {
		return noSkip
	}
	// A ready candidate retries arbitration every cycle; a port-starved
	// load retries next cycle. Either makes the next cycle non-quiet.
	if len(s.ready) > 0 || s.memStarved {
		return noSkip
	}

	// Fetch ladder, in fetch()'s gate order. Each arm either proves fetch
	// quiet until a known event (recording the per-cycle stall counter the
	// reference loop would charge) or shows fetch active next cycle.
	var fetchCtr *uint64
	target := lastCommit + budget + 1 // watchdog cap
	switch {
	case s.fetchBlockedBy != nil:
		fetchCtr = &s.res.StallMispredict
		if b := s.fetchBlockedBy; b.resolved && b.resolveC < target {
			target = b.resolveC
		}
	case s.wpBranch != nil:
		if !s.wpStopped {
			return noSkip // wrong-path supply fetches every cycle
		}
		fetchCtr = &s.res.StallMispredict
		if b := s.wpBranch; b.resolved && b.resolveC < target {
			target = b.resolveC
		}
	case s.fetchStallTo > s.now+1:
		fetchCtr = &s.res.StallICache
		if s.fetchStallTo < target {
			target = s.fetchStallTo
		}
	case !s.traceDone || s.pendingOK:
		if s.fetchBuf.Len() < (s.cfg.FrontEndDepth+2)*s.cfg.FetchWidth {
			return noSkip // room in the buffer: fetch progresses next cycle
		}
		// Buffer full: fetch idles (uncounted) until dispatch drains it,
		// and dispatch's own events below bound the jump.
	}

	// Dispatch ladder, in dispatch()'s gate order. The occupancies it
	// tests (window, issue queues, LSQ) change only at events that bound
	// the jump, so the blocking cause is constant across skipped cycles.
	var dispCtr *uint64
	if s.fetchBuf.Len() > 0 {
		front := s.fetchBuf.Front()
		if rdy := front.fetchC + int64(s.cfg.FrontEndDepth); rdy > s.now+1 {
			if rdy < target {
				target = rdy // still in the front-end pipe, silently
			}
		} else {
			switch {
			case s.window.Len() >= s.cfg.WindowSize:
				dispCtr = &s.res.StallWindowFull
			case s.cfg.IssueQueueSize > 0 && s.iqCount >= s.cfg.IssueQueueSize:
				dispCtr = &s.res.StallIQFull
			case front.d.Inst.Op.Class() == isa.ClassSyscall && s.window.Len() > 0 && !front.wp:
				// Serialized syscall: drains via commit events, uncounted.
			case (front.isLoad || front.isStore) && s.lsq.Full():
				dispCtr = &s.res.StallLSQFull
			default:
				return noSkip // dispatch proceeds next cycle
			}
		}
	}

	// Scheduler events: the earliest wheel wakeup. Candidates parked at
	// inf are re-enqueued by producer events, which are themselves wheel
	// or memory events already bounding the jump.
	if t := s.wh.min(); t < target {
		target = t
	}

	// Commit event: the cycle the window front completes its last known
	// obligation. Obligations still unknown (inf) resolve only at events
	// that bound the jump, so no commit can occur before target.
	if s.window.Len() > 0 {
		if t := s.frontDoneC(s.window.Front()); t < target {
			target = t
		}
	}

	// Memory-stage events: stores waiting on data, loads waiting on
	// address generation, and partial-tag loads whose completion time
	// becomes computable next cycle.
	for _, e := range s.memWatch {
		if e.committed || e.squashed {
			continue
		}
		if e.isStore && e.lsqInserted {
			if q := e.lsqEnt; q != nil && !q.DataReady {
				if t := s.storeDataReadyC(e); t < target {
					target = t
				}
			}
		}
		if !e.isLoad {
			continue
		}
		if !e.memIssued && e.lsqInserted {
			partialC, fullC := s.agenTimes(e)
			gate := fullC
			if s.cfg.PartialTag {
				gate = partialC
			}
			if gate <= s.now {
				// The load is issueable now but did not issue: either it
				// lost disambiguation this cycle, or its address became
				// known during schedule() after the memory stage had
				// already run. Both retry next cycle and may succeed —
				// the blocking store's state can have changed this very
				// cycle, so no future event bounds the retry.
				return noSkip
			}
			if gate < target {
				target = gate
			}
		}
		if e.memIssued && e.memPendFull != pendNone {
			if _, fullC := s.agenTimes(e); fullC < inf {
				return noSkip // completion finalizes next memory stage
			}
		}
	}

	if target <= noSkip {
		return noSkip
	}
	skipped := uint64(target - noSkip)
	if fetchCtr != nil {
		*fetchCtr += skipped
	}
	if dispCtr != nil {
		*dispCtr += skipped
	}
	return target
}

// frontDoneC returns the cycle the window front will satisfy entryDone,
// considering only obligations whose completion times are already known;
// any unknown obligation returns inf (its resolution is an event that
// bounds the jump on its own).
func (s *Sim) frontDoneC(e *entry) int64 {
	if !e.dispatched || e.wp || e.startedMask != e.fullMask {
		return inf
	}
	t := e.execEnd
	if e.isLoad {
		if e.memActualDone >= inf {
			return inf
		}
		if e.memActualDone > t {
			t = e.memActualDone
		}
	}
	if e.isStore {
		if q := e.lsqEnt; q == nil || !q.DataReady || !q.AddrKnown() {
			return inf
		}
	}
	if e.isCtrl {
		if !e.resolved {
			return inf
		}
		if e.resolveC > t {
			t = e.resolveC
		}
	}
	return t
}

// storeDataReadyC returns the cycle checkStoreData will mark the store's
// data forwardable: the ground-truth availability of every slice of the
// data operand, or inf while a producer's completion is unknown.
func (s *Sim) storeDataReadyC(e *entry) int64 {
	if e.dataSrc < 0 {
		return s.now // degenerate ($zero data): already marked this cycle
	}
	var t int64
	for k := 0; k < s.cfg.Slices; k++ {
		if a := s.srcAvail(e, e.dataSrc, k, false); a > t {
			t = a
			if t >= inf {
				return inf
			}
		}
	}
	return t
}
