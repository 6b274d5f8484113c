package core

import (
	"errors"
	"pok/internal/emu"
	"pok/internal/isa"
	"pok/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

// nextTraceInst peeks the next correct-path instruction. The record is
// stepped into a reused value field: fetch copies it into the entry
// before the next step can overwrite it.
func (s *Sim) nextTraceInst() (*emu.DynInst, error) {
	if s.pendingOK {
		return &s.pendingD, nil
	}
	if s.fetchPaused {
		// Draining toward a checkpoint boundary: hold the correct-path
		// stream without ending it. An already-peeked instruction
		// (pendingOK, above) still drains through — the emulator has
		// executed it, so the snapshot must wait for it to commit.
		return nil, nil
	}
	if s.traceDone {
		return nil, nil
	}
	if s.maxInsts > 0 && s.fetchedCnt >= s.maxInsts {
		s.traceDone = true
		return nil, nil
	}
	if err := s.em.StepInto(&s.pendingD); err != nil {
		if errors.Is(err, emu.ErrHalted) {
			s.traceDone = true
			return nil, nil
		}
		return nil, err
	}
	s.pendingOK = true
	return &s.pendingD, nil
}

func (s *Sim) fetch() error {
	if s.fetchBlockedBy != nil {
		if !s.fetchBlockedBy.resolved || s.fetchBlockedBy.resolveC > s.now {
			s.res.StallMispredict++
			return nil
		}
		s.fetchBlockedBy = nil
		s.haveLine = false // refetch redirects the instruction stream
	}
	if s.wpBranch != nil && s.wpBranch.resolved && s.wpBranch.resolveC <= s.now {
		s.squashWrongPath()
	}
	if s.wpBranch != nil && s.wpStopped {
		s.res.StallMispredict++ // wrong-path supply ran dry; waiting on resolve
		return nil
	}
	if s.now < s.fetchStallTo {
		s.res.StallICache++
		return nil
	}
	// The fetch buffer models the front-end pipeline stages plus a small
	// fetch queue: it must hold FrontEndDepth x FetchWidth instructions to
	// sustain full-width dispatch, since each instruction spends
	// FrontEndDepth cycles in the front end.
	bufCap := (s.cfg.FrontEndDepth + 2) * s.cfg.FetchWidth
	for fetched := 0; fetched < s.cfg.FetchWidth && s.fetchBuf.Len() < bufCap; fetched++ {
		var d *emu.DynInst
		var err error
		onWrongPath := s.wpFork != nil
		if onWrongPath {
			d = s.nextWrongPathInst()
		} else {
			d, err = s.nextTraceInst()
			if err != nil {
				return err
			}
		}
		if d == nil {
			return nil
		}
		// Instruction cache: one access per new line.
		line := d.PC &^ uint32(s.hier.L1I.Config().LineBytes-1)
		if !s.haveLine || line != s.lastFetchLine {
			lat, _ := s.hier.AccessInst(line)
			s.lastFetchLine = line
			s.haveLine = true
			if lat > 1 {
				// Miss: this line arrives after the stall; retry next time.
				s.fetchStallTo = s.now + int64(lat)
				return nil
			}
		}
		e := s.allocEntry()
		e.d, e.seq, e.fetchC, e.wp = *d, s.seqCtr, s.now, onWrongPath
		s.seqCtr++
		if !onWrongPath {
			s.pendingOK = false
			s.fetchedCnt++
		} else {
			s.res.WrongPathInsts++
		}
		s.initEntry(e)
		s.fetchBuf.PushBack(e)
		if s.tracing {
			// The disassembly is formatted only under tracing; an eager
			// d.Inst.String() here once cost a quarter of the whole run.
			s.trace("fetch    #%d pc=0x%x wp=%v %v", e.seq, d.PC, e.wp, d.Inst.String())
		}
		if s.collecting {
			s.emit(telemetry.EvFetch, e.seq, -1, int64(d.PC), b2i(e.wp))
		}

		if e.isCtrl && onWrongPath {
			// Wrong-path control follows the fork's own outcome: no
			// predictor training, no RAS activity, no nested wrong paths.
			if d.Taken {
				s.haveLine = false
				return nil
			}
			continue
		}
		if e.isCtrl {
			e.pred = s.pred.Predict(d.PC, &e.d.Inst)
			actualTarget := d.NextPC
			e.mispred = s.pred.Resolve(d.PC, &e.d.Inst, e.pred, d.Taken, actualTarget)
			if d.Inst.Op.IsBranch() {
				s.res.Branches++
				if d.Inst.Op.EqualityBranch() {
					s.res.EqBranches++
				}
				if e.mispred {
					s.res.Mispredicts++
				}
			}
			if e.mispred {
				if s.cfg.WrongPath {
					s.startWrongPath(e)
				} else {
					s.fetchBlockedBy = e
				}
				return nil
			}
			if d.Taken {
				s.haveLine = false // redirect: next group starts at target
				return nil         // taken branch ends the fetch group
			}
		}
	}
	return nil
}

// startWrongPath forks the emulator at the wrongly predicted PC and
// switches fetch onto the speculative path.
func (s *Sim) startWrongPath(branch *entry) {
	wrongPC := branch.d.PC + 4
	if branch.pred.Taken {
		wrongPC = branch.pred.Target
	}
	s.wpBranch = branch
	s.wpFork = s.em.Fork(wrongPC)
	s.wpStopped = false
	s.haveLine = false
	if s.tracing {
		s.trace("wrongpath#%d begins at pc=0x%x", branch.seq, wrongPC)
	}
}

// nextWrongPathInst steps the speculative fork. A decode fault, halt or
// runaway stops wrong-path supply (fetch then idles until resolution,
// like a front end chewing on garbage).
func (s *Sim) nextWrongPathInst() *emu.DynInst {
	if s.wpStopped {
		return nil
	}
	if err := s.wpFork.StepInto(&s.wpD); err != nil {
		s.wpStopped = true
		return nil
	}
	return &s.wpD
}

// squashWrongPath removes every wrong-path instruction from the machine
// and restores the rename map, then resumes correct-path fetch.
func (s *Sim) squashWrongPath() {
	idx := -1
	for i := 0; i < s.window.Len(); i++ {
		if s.window.At(i) == s.wpBranch {
			idx = i
			break
		}
	}
	// Undo dispatched wrong-path entries in reverse dispatch order.
	if idx >= 0 {
		for i := s.window.Len() - 1; i > idx; i-- {
			s.undoEntry(s.window.At(i))
		}
		s.window.Truncate(idx + 1)
	} else {
		// The branch already committed; everything younger is wrong-path.
		for i := s.window.Len() - 1; i >= 0; i-- {
			if !s.window.At(i).wp {
				idx = i
				break
			}
			s.undoEntry(s.window.At(i))
		}
		s.window.Truncate(idx + 1)
	}
	// Fetch-buffer entries were never dispatched: nothing in the machine can
	// reference them (srcProd/consumer links are created only at dispatch),
	// so they return to the pool immediately.
	for s.fetchBuf.Len() > 0 {
		e := s.fetchBuf.PopFront()
		if s.collecting {
			s.emit(telemetry.EvSquash, e.seq, -1, 0, 0)
		}
		s.freeEntry(e)
	}
	if !s.legacy {
		s.scrubMemWatch()
	}
	s.wpFork = nil
	s.wpBranch = nil
	s.wpStopped = false
	s.haveLine = false
	if s.tracing {
		s.trace("wrongpath squashed at cycle %d", s.now)
	}
}

// undoEntry reverses the dispatch-time side effects of a squashed entry.
func (s *Sim) undoEntry(e *entry) {
	if s.collecting {
		s.emit(telemetry.EvSquash, e.seq, -1, 0, 0)
	}
	if d := e.d.Dst; d != isa.RegZero && s.regProd[d] == e {
		s.regProd[d] = liveProd(e.prevDstProd, e.prevDstGen)
	}
	if d2 := e.d.Dst2; d2 != isa.RegZero && s.regProd[d2] == e {
		s.regProd[d2] = liveProd(e.prevDst2Prod, e.prevDst2Gen)
	}
	if e.lsqInserted {
		s.lsq.Remove(e.seq)
	}
	e.squashed = true
	if !s.legacy && !e.execDone {
		s.iqCount--
	}
	// Older in-flight entries may still hold srcProd/consumer references to
	// this entry, so it drains through the retire queue like a committed one
	// (gen tags orphan any wheel candidates that still point at it).
	e.retireTag = s.seqCtr
	s.retireQ.PushBack(e)
}

// liveProd validates a saved rename-map pointer against its generation
// snapshot before it is restored: a producer that has committed — and may
// since have been recycled into an unrelated entry — restores as nil,
// exactly as the dispatch-time rename filter would treat it.
func liveProd(p *entry, gen uint32) *entry {
	if p == nil || p.gen != gen || p.committed {
		return nil
	}
	return p
}

// initEntry decodes the structural properties of an instruction.
func (s *Sim) initEntry(e *entry) {
	op := e.d.Inst.Op
	e.isLoad = op.IsLoad()
	e.isStore = op.IsStore()
	e.isCtrl = op.IsControl()
	e.memPredDone, e.memActualDone = inf, inf
	e.resolveC = inf

	// Identify operand roles. Sources() appends Rs before Rt, dropping
	// $zero, so the data operand of a store (Rt) is the last source when
	// present, and the amount operand of a variable shift (Rs) the first.
	e.dataSrc, e.amountSrc = -1, -1
	if e.isStore && e.d.Inst.Rt != isa.RegZero {
		e.dataSrc = e.d.NSrc - 1
	}
	if needsAmount(op) && e.d.Inst.Rs != isa.RegZero {
		e.amountSrc = 0
	}

	// Narrow-width detection: the destination value's upper bits are all
	// zeros or all ones beyond the low slice.
	if s.cfg.NarrowWidth && s.cfg.Slices > 1 {
		w := uint(s.cfg.SliceWidth())
		v := e.d.DstVal
		upper := v >> w
		mask := uint32(1)<<(32-w) - 1
		e.narrow = upper == 0 || upper == mask
	}

	switch op.Class() {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassLoad, isa.ClassStore:
		if s.cfg.Slices > 1 && sliceable(op) {
			e.nSlices = s.cfg.Slices
		} else {
			e.nSlices = 1
			e.fullLat = 1
		}
	case isa.ClassIntMul:
		e.nSlices = 1
		e.fullLat = s.cfg.IntMulLat
	case isa.ClassIntDiv:
		e.nSlices = 1
		e.fullLat = s.cfg.IntDivLat
	case isa.ClassFP:
		e.nSlices = 1
		e.fullLat = s.cfg.FPALULat
	case isa.ClassFPMulDiv:
		e.nSlices = 1
		switch op {
		case isa.OpMULS:
			e.fullLat = s.cfg.FPMulLat
		case isa.OpSQRTS:
			e.fullLat = s.cfg.FPSqrtLat
		default:
			e.fullLat = s.cfg.FPDivLat
		}
	case isa.ClassJump, isa.ClassSyscall:
		e.nSlices = 1
		e.fullLat = 1
	default:
		e.nSlices = 1
		e.fullLat = 1
	}
	e.fullMask = uint8(1)<<e.nSlices - 1
	if e.nSlices > 1 {
		e.deps = s.depTab[op.SliceProfile()]
	} else {
		e.deps = sliceDeps{in: [8]uint8{0: s.allViews()}}
	}
}

// sliceable reports whether the op's execution decomposes into slice-ops
// in the bit-sliced datapath.
func sliceable(op isa.Op) bool {
	switch op.SliceProfile() {
	case isa.SliceFullWidth, isa.SliceSerialMul:
		return false
	}
	return !op.IsControl() || op.IsBranch() // branches compare per slice; jumps are full-width
}
