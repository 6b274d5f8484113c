package core

import (
	"pok/internal/cache"
	"pok/internal/lsq"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

// memoryStage is the event-driven memory loop: instead of rescanning the
// whole window, it walks only the entries still needing attention — a
// store whose data is not yet forwardable, a load not yet issued, or a
// partial-tag load whose completion awaits the full address. Entries are
// appended at dispatch (so the list stays in program order, preserving
// cache-port arbitration order) and dropped as soon as their memory
// obligations are met. Loads that establish a completion time fire a
// producer event so dependent slice-ops enter the wakeup wheel.
func (s *Sim) memoryStage() {
	// Compact in place, writing a pointer only when an entry has actually
	// been dropped ahead of it: in the common cycle nothing retires from
	// the watch list and the loop performs no slice writes at all (each
	// *entry store would otherwise pay a GC write barrier).
	w := s.memWatch
	n := 0
	for i, e := range w {
		if e.committed || e.squashed {
			continue // left the machine (squash also scrubs eagerly)
		}
		done := true
		if e.isStore && e.lsqInserted {
			done = s.checkStoreData(e)
		}
		if e.isLoad {
			if !e.memIssued && e.lsqInserted {
				s.tryIssueLoad(e)
				if e.memIssued {
					// The load's (speculative and actual) completion
					// times are now known: wake register dependents.
					s.wakeConsumers(e, -1)
				}
			}
			if e.memIssued && e.memPendFull != pendNone {
				if s.finalizePendingLoad(e) {
					s.wakeConsumers(e, -1)
				}
			}
			if !e.memIssued || e.memPendFull != pendNone {
				done = false
			}
		}
		if !done {
			if n != i {
				w[n] = e
			}
			n++
		}
	}
	for i := n; i < len(w); i++ {
		w[i] = nil
	}
	s.memWatch = w[:n]
}

// scrubMemWatch removes squashed entries eagerly so a recycled entry can
// never be misread through a stale memWatch reference.
func (s *Sim) scrubMemWatch() {
	w := s.memWatch
	n := 0
	for i, e := range w {
		if !e.squashed {
			if n != i {
				w[n] = e
			}
			n++
		}
	}
	for i := n; i < len(w); i++ {
		w[i] = nil
	}
	s.memWatch = w[:n]
}

// checkStoreData marks the store's LSQ entry data-ready once the data
// operand's full value is available, reporting whether the store needs no
// further memory-stage attention.
func (s *Sim) checkStoreData(e *entry) bool {
	q := e.lsqEnt
	if q == nil || q.DataReady {
		return true
	}
	ready := e.dataSrc < 0 || s.srcAvail(e, e.dataSrc, s.allViews(), false) <= s.now
	if ready {
		q.DataReady = true
		e.dataReadyC = s.now // commit attribution: when the data arrived
	}
	return ready
}

// finalizePendingLoad resolves a partial-tag access whose outcome needed
// the full address, once address generation completes. It reports
// whether the completion time was established this cycle.
func (s *Sim) finalizePendingLoad(e *entry) bool {
	_, fullC := s.agenTimes(e)
	if fullC >= inf {
		return false
	}
	switch e.memPendFull {
	case pendWayMispred:
		e.memActualDone = fullC + 1 + int64(s.cfg.L1DLat)
	case pendMiss:
		e.memActualDone = fullC + e.memPendLat
	}
	e.memPendFull = pendNone
	return true
}

// tryIssueLoad attempts to send a load to the memory system this cycle.
func (s *Sim) tryIssueLoad(e *entry) {
	if s.portsUsed >= s.cfg.CachePorts {
		// Port starvation is cycle-local: the retry next cycle may win
		// arbitration, so the next cycle must actually be simulated.
		s.memStarved = true
		return
	}
	q := e.lsqEnt
	if q == nil {
		return
	}
	// How much of the address do we have, and when did we get it?
	partialC, fullC := s.agenTimes(e)
	if s.cfg.PartialTag {
		if partialC > s.now {
			return // not even the low 16 bits yet
		}
	} else if fullC > s.now {
		return
	}

	if s.injOn && s.inj.ForceAliasConflict(e.seq) {
		// Injected disambiguation conflict: treat the load as if a prior
		// store's partial address matched (§5.1 LoadWait); it retries
		// next cycle.
		e.disambigWait = true
		return
	}
	status, fwdSeq := s.lsq.Disambiguate(e.seq, s.cfg.EarlyLSDisambig)
	if status == lsq.LoadWait {
		e.disambigWait = true // commit attribution: LSQ held this load back
		return
	}
	// "Early release": the load issued while its own or some prior store's
	// address was still incomplete — impossible without partial operands.
	early := q.KnownBits < 32
	s.storeScratch = s.lsq.AppendPriorStores(s.storeScratch[:0], e.seq)
	for _, st := range s.storeScratch {
		if !st.AddrKnown() {
			early = true
			break
		}
	}
	if early && !e.wp {
		e.earlyRelease = true
		s.res.LoadsEarlyRelease++
	}
	if status == lsq.LoadForward {
		_ = fwdSeq
		e.memIssued = true
		e.forwarded = true
		e.memPredDone = s.now + 1
		e.memActualDone = s.now + 1
		if !e.wp {
			s.res.StoreForwards++
			s.res.Loads++
		}
		if s.collecting {
			s.emit(telemetry.EvMemIssue, e.seq, -1, e.memActualDone, 1)
		}
		s.portsUsed++
		return
	}

	s.portsUsed++
	e.memIssued = true
	if !e.wp {
		s.res.Loads++
	}
	addr := e.d.EffAddr
	// Data TLB: a miss adds the walk latency to the load's completion
	// (the translation joins the full-tag verification).
	tlbLat := int64(0)
	if s.dtlb != nil {
		walk, _ := s.dtlb.Access(addr)
		tlbLat = int64(walk)
	}
	l1 := s.hier.L1D
	hit := l1.Lookup(addr)
	e.l1Hit = hit

	if s.cfg.PartialTag && fullC > s.now {
		// Partial-tag access: we have the index and a few tag bits only.
		if !e.wp {
			s.res.PartialTagAccess++
		}
		tagBits := l1.KnownTagBits(16)
		kind := l1.ClassifyPartial(addr, tagBits)
		_, _, correct := l1.PredictWay(addr, tagBits)
		if correct && s.injOn && s.inj.ForceWayMiss(e.seq) {
			// Injected MRU way mispredict: the speculative way selection
			// is declared wrong; the access replays at full-address time
			// through the §5.2 verification path.
			correct = false
		}
		lat, _ := s.hier.AccessData(addr)
		switch {
		case kind == cache.ZeroMatch:
			// Miss known early and non-speculatively: the L2 access
			// overlaps the remaining address generation.
			e.earlyMissSignal = true
			if !e.wp {
				s.res.EarlyMissSignals++
			}
			e.memActualDone = s.now + int64(lat)
		case hit && correct:
			// Way prediction verified: data returned before the full
			// address was even generated.
			e.memActualDone = s.now + int64(lat)
		case hit && !correct:
			// Way mispredict: replay the access once the full address
			// arrives (the selective-recovery extension of §7).
			e.wayMispred = true
			if !e.wp {
				s.res.WayMispredicts++
			}
			if fullC < inf {
				e.memActualDone = fullC + 1 + int64(s.cfg.L1DLat)
			} else {
				e.memPendFull = pendWayMispred
				e.memActualDone = inf
			}
		default:
			// Partial match existed but the access misses: the miss is
			// confirmed at full-address time; the refill already started.
			if fullC < inf {
				e.memActualDone = fullC + int64(lat)
			} else {
				e.memPendFull = pendMiss
				e.memPendLat = int64(lat)
				e.memActualDone = inf
			}
		}
		e.memPredDone = s.now + int64(s.cfg.L1DLat)
		e.memActualDone += tlbLat
		if s.tracing {
			s.trace("mem      #%d partial-tag addr=0x%x kind=%v done=%d", e.seq, addr, kind, e.memActualDone)
		}
		if s.collecting {
			s.emit(telemetry.EvPartialVerify, e.seq, -1, int64(kind), b2i(e.wayMispred))
			s.emit(telemetry.EvMemIssue, e.seq, -1, e.memActualDone, 0)
		}
		return
	}

	// Conventional access with the full address.
	lat, _ := s.hier.AccessData(addr)
	e.memActualDone = s.now + int64(lat) + tlbLat
	e.memPredDone = s.now + int64(s.cfg.L1DLat)
	if s.tracing {
		s.trace("mem      #%d conventional addr=0x%x done=%d", e.seq, addr, e.memActualDone)
	}
	if s.collecting {
		s.emit(telemetry.EvMemIssue, e.seq, -1, e.memActualDone, 0)
	}
}

// agenTimes returns the cycles at which (a) the low 16 address bits and
// (b) the complete address become available, or inf if not yet computed.
func (s *Sim) agenTimes(e *entry) (partial, full int64) {
	if e.nSlices == 1 {
		st := &e.slices[0]
		if !st.started {
			return inf, inf
		}
		t := st.startC + int64(e.fullLat)
		return t, t
	}
	p := &e.slices[s.cfg.AddrSliceFor16Bits()]
	partial = inf
	if p.started {
		partial = p.avail()
	}
	full = inf
	if allSlicesStarted(e) {
		full = lastSliceAvail(e)
	}
	if s.cfg.SumAddressed {
		// The cache decoder computes base+offset itself: the speculative
		// index is ready when the base register's low slices are, without
		// waiting for the agen slice-op to execute.
		if t := s.sumAddrReady(e); t < partial {
			partial = t
		}
	}
	return partial, full
}

// sumAddrReady returns when a sum-addressed decoder could start the
// speculative access: all base-operand slices covering the low 16 bits.
func (s *Sim) sumAddrReady(e *entry) int64 {
	t := e.dispC + int64(s.cfg.RFStages) + 1
	low := uint8(1)<<(s.cfg.AddrSliceFor16Bits()+1) - 1
	for i := 0; i < e.d.NSrc; i++ {
		if i == e.dataSrc {
			continue
		}
		if a := s.srcAvail(e, i, low, false); a > t {
			t = a
		}
	}
	return t
}
