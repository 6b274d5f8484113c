package core

import "fmt"

// Per-cycle structural invariant checker (Config.Invariants). It runs
// after every stage of a cycle has finished and asserts the machine's
// structural sanity — the properties every stage rewrite (the scheduler
// swap of PR 1, the telemetry threading of PR 2) implicitly relied on
// but nothing enforced:
//
//   - ROB age ordering: window sequence numbers strictly increase and no
//     committed/squashed entry lingers in the window;
//   - occupancy bounds: window, LSQ and issue-queue occupancies never
//     exceed their Table-2 capacities, and the event scheduler's
//     incremental iqCount agrees with a full recount;
//   - serialized slice issue: no slice executes before its predecessor
//     when a carry chain (or in-order slice issue) serializes them;
//   - rename-map sanity: every producer pointer maps a register it
//     actually writes and refers to a live in-flight entry;
//   - LSQ linkage: a window memory op's cached LSQ entry is the one the
//     queue indexes under its sequence number, with sane KnownBits;
//   - replay watchdog: a replayed slice-op whose ground-truth operand
//     arrival is known must re-issue within ReplayBudget cycles of it.
//
// The checker returns an *InvariantError naming the violated rule, the
// offending instruction and a pipeline dump; the run aborts at the first
// violation, the cycle it happens, instead of surfacing thousands of
// cycles later as a wrong Table-1 number or a panic in a leaf package.

// violation builds the error for one failed rule.
func (s *Sim) violation(rule string, seq uint64, format string, args ...any) error {
	return &InvariantError{
		Rule:   rule,
		Cycle:  s.now,
		Seq:    seq,
		Detail: fmt.Sprintf(format, args...),
		Dump:   s.dumpWindow(16),
	}
}

// checkInvariants asserts the structural invariants; called once per
// cycle (or every Invariants.Every cycles) when Config.Invariants is set.
func (s *Sim) checkInvariants() error {
	inv := s.cfg.Invariants
	if every := inv.every(); every > 1 && s.now%every != 0 {
		return nil
	}

	// Occupancy bounds (Table 2 capacities).
	if n := s.window.Len(); n > s.cfg.WindowSize {
		return s.violation("window-capacity", 0, "window holds %d entries, capacity %d",
			n, s.cfg.WindowSize)
	}
	if n := s.lsq.Len(); n > s.cfg.LSQSize {
		return s.violation("lsq-capacity", 0, "LSQ holds %d entries, capacity %d",
			n, s.cfg.LSQSize)
	}
	if !s.legacy {
		if scan := s.iqOccupancyScan(); scan != s.iqCount {
			return s.violation("iq-count", 0, "incremental iqCount %d != recount %d",
				s.iqCount, scan)
		}
	}

	budget := inv.replayBudget()
	var prevSeq uint64
	for i := 0; i < s.window.Len(); i++ {
		e := s.window.At(i)

		// ROB age ordering and liveness.
		if i > 0 && e.seq <= prevSeq {
			return s.violation("rob-order", e.seq, "window entry %d seq %d after seq %d",
				i, e.seq, prevSeq)
		}
		prevSeq = e.seq
		if e.committed {
			return s.violation("rob-live", e.seq, "committed entry still in window")
		}
		if e.squashed {
			return s.violation("rob-live", e.seq, "squashed entry still in window")
		}
		if !e.dispatched {
			return s.violation("rob-dispatched", e.seq, "window entry never dispatched")
		}

		// Serialized slice issue: a slice with a carry-in (or any slice
		// when out-of-order slices are disabled) must not start before
		// its predecessor, and never before the machine's current cycle
		// allows.
		for sl := 0; sl < e.nSlices; sl++ {
			st := &e.slices[sl]
			if st.started && st.startC > s.now {
				return s.violation("slice-time", e.seq, "slice %d started in the future (%d > %d)",
					sl, st.startC, s.now)
			}
			if !st.started || sl == 0 {
				continue
			}
			if e.deps.serial>>sl&1 != 0 {
				prev := &e.slices[sl-1]
				if !prev.started {
					return s.violation("slice-order", e.seq,
						"slice %d executed before slice %d (serialized op %v)",
						sl, sl-1, e.d.Inst.Op)
				}
				if prev.startC > st.startC {
					return s.violation("slice-order", e.seq,
						"slice %d started at %d before predecessor's %d (serialized op %v)",
						sl, st.startC, prev.startC, e.d.Inst.Op)
				}
			}
		}

		// Replay watchdog: once a replayed slice-op's true operand
		// arrival (retryC) is known and has passed, select priority
		// (oldest first) guarantees it re-issues promptly; a budget-sized
		// overshoot means the wakeup path lost it.
		for sl := 0; sl < e.nSlices; sl++ {
			st := &e.slices[sl]
			if !st.started && st.retryC > 0 && s.now-st.retryC > budget {
				return s.violation("replay-reissue", e.seq,
					"slice %d replayed, retry-ready at cycle %d, still not re-issued %d cycles later",
					sl, st.retryC, s.now-st.retryC)
			}
		}

		// LSQ linkage.
		if e.lsqInserted {
			q := s.lsq.Find(e.seq)
			if q == nil {
				return s.violation("lsq-linkage", e.seq, "lsqInserted but queue has no entry")
			}
			if q != e.lsqEnt {
				return s.violation("lsq-linkage", e.seq, "cached LSQ entry differs from queue's")
			}
			if q.KnownBits < 0 || q.KnownBits > 32 {
				return s.violation("lsq-knownbits", e.seq, "KnownBits %d out of range", q.KnownBits)
			}
			if q.IsStore != e.isStore {
				return s.violation("lsq-linkage", e.seq, "LSQ store flag %v != entry %v",
					q.IsStore, e.isStore)
			}
		}
		if e.memPendFull != pendNone && !e.memIssued {
			return s.violation("mem-pending", e.seq, "deferred completion without memory issue")
		}
	}

	// Rename-map sanity: every producer pointer refers to a live entry
	// that writes the register it is indexed under.
	for r := range s.regProd {
		p := s.regProd[r]
		if p == nil {
			continue
		}
		if p.committed || p.squashed {
			return s.violation("rename-live", p.seq,
				"rename map for r%d points at a retired entry", r)
		}
		if int(p.d.Dst) != r && int(p.d.Dst2) != r {
			return s.violation("rename-dest", p.seq,
				"rename map for r%d points at producer of r%d/r%d", r, p.d.Dst, p.d.Dst2)
		}
	}
	return nil
}
