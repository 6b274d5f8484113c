// Direct-threaded interpreter for the functional emulator.
//
// The emulator predecodes each static instruction once into a dense
// micro-op (uop) array indexed by (pc-base)>>2 and dispatches through an
// indexed handler table of func(*Emulator, *uop, *DynInst). Decode
// happens lazily at first execution, so programs that modify instruction
// words before first execution see the new words; a decoded uop carries
// the instruction fields, the source-register list and the sign-extended
// immediate / branch target precomputed, and a steady-state Step
// performs zero allocations. testdata/stream_golden.json pins the
// DynInst streams it produces.
package emu

import (
	"fmt"

	"pok/internal/isa"
)

// uop is one predecoded static instruction. target holds the
// precomputed taken-path target for direct branches and jumps (uops are
// per-PC, so the target is a constant).
type uop struct {
	inst   isa.Inst
	state  uint8 // uopEmpty, uopOK or uopBad
	nsrc   uint8
	src    [2]isa.Reg
	immU   uint32 // uint32(inst.Imm): sign-extended immediate as a word
	target uint32
}

const (
	uopEmpty = iota
	uopOK
	uopBad
)

// Predecode-table sizing. The dense window is anchored at the text
// segment holding the entry point and extended over every segment that
// fits; denseSlack pads the end so straight-line overruns past the last
// text byte (which decode as NOPs from zeroed memory) stay on the fast
// path; denseMax caps the window so a program with far-apart segments
// (text at 0x00400000, data at 0x10000000) does not allocate the span
// between them. The window is logical: the backing table covers the
// loaded segments plus densePad uops and doubles on demand (see
// growDense), so a short program never pays for the slack it does not
// execute.
const (
	denseSlack = 64 << 10
	denseMax   = 4 << 20
	densePad   = 64
	// fallCacheMax bounds the out-of-window decode cache, which would
	// otherwise grow without bound on wrong-path or generated programs:
	// beyond this many distinct PCs the fallback decodes into a scratch
	// uop without caching.
	fallCacheMax = 1 << 16
)

// FetchError is the structured error returned when instruction fetch or
// decode fails: the PC is recoverable from the error value rather than
// only from its message. It unwraps to the underlying isa decode error.
type FetchError struct {
	PC  uint32
	Err error
}

func (f *FetchError) Error() string { return fmt.Sprintf("at pc 0x%08x: %v", f.PC, f.Err) }
func (f *FetchError) Unwrap() error { return f.Err }

// initFast sizes the dense uop window [ubase, ubase+4*ulen) for the
// loaded program and materializes the part that covers its segments.
// Forks skip this (ulen 0): they execute a handful of wrong-path
// instructions through the fallback cache, decoding through their own
// overlay.
func (e *Emulator) initFast(prog *Program) {
	lo := e.pc &^ 3
	for _, s := range prog.Segments {
		if s.Addr <= lo && uint64(lo)-uint64(s.Addr) < denseMax {
			lo = s.Addr &^ 3
		}
	}
	hi := uint64(lo)
	for _, s := range prog.Segments {
		end := uint64(s.Addr) + uint64(len(s.Data))
		if s.Addr >= lo && end-uint64(lo) <= denseMax && end > hi {
			hi = end
		}
	}
	loaded := uint32((hi - uint64(lo) + 3) >> 2)
	hi = min(hi+denseSlack, uint64(lo)+denseMax)
	e.ubase = lo
	e.ulen = uint32((hi - uint64(lo) + 3) >> 2)
	e.utab = make([]uop, min(loaded+densePad, e.ulen))
}

// growDense materializes the dense window through index i: the table
// doubles (or reaches i+1, if that is further), capped at ulen. Decoded
// entries move with it; pointers into the old table are only ever held
// for the duration of one step.
func (e *Emulator) growDense(i uint32) {
	utab := make([]uop, min(max(2*uint32(len(e.utab)), i+1, densePad), e.ulen))
	copy(utab, e.utab)
	e.utab = utab
}

// denseUop returns the window entry u for pc, decoding it on first
// execution.
func (e *Emulator) denseUop(u *uop, pc uint32) (*uop, error) {
	switch u.state {
	case uopOK:
		return u, nil
	case uopBad:
		return u, e.badUopError(pc)
	}
	return e.fillUop(u, pc)
}

// lookupUop returns the (decoded) uop for a PC outside the materialized
// part of the dense window. A PC inside the window grows the table to
// cover it; out-of-window or misaligned PCs go through the bounded
// fallback cache.
func (e *Emulator) lookupUop() (*uop, error) {
	pc := e.pc
	if off := pc - e.ubase; off>>2 < e.ulen && off&3 == 0 {
		e.growDense(off >> 2)
		return e.denseUop(&e.utab[off>>2], pc)
	}
	if u, ok := e.ufall[pc]; ok {
		if u.state == uopOK {
			return u, nil
		}
		return u, e.uerr[pc]
	}
	u := &e.uscratch
	*u = uop{}
	if _, err := e.fillUop(u, pc); err != nil {
		if e.cacheFallback(pc) {
			e.uerr[pc] = err
			cached := *u
			e.ufall[pc] = &cached
		}
		return u, err
	}
	if e.cacheFallback(pc) {
		cached := *u
		e.ufall[pc] = &cached
		return e.ufall[pc], nil
	}
	return u, nil
}

func (e *Emulator) cacheFallback(pc uint32) bool {
	if len(e.ufall) >= fallCacheMax {
		return false
	}
	if e.ufall == nil {
		e.ufall = make(map[uint32]*uop)
		e.uerr = make(map[uint32]error)
	}
	return true
}

// fillUop decodes the word at pc into u. The uop caches everything the
// handlers need: instruction fields, the source-register list (the
// Sources() slice allocation moves here, off the per-step path) and the
// constant taken-path target of direct control flow.
func (e *Emulator) fillUop(u *uop, pc uint32) (*uop, error) {
	in, err := isa.Decode(e.Mem.Read32(pc))
	if err != nil {
		u.state = uopBad
		return u, &FetchError{PC: pc, Err: err}
	}
	u.inst = in
	u.nsrc = 0
	for _, s := range in.Sources() {
		if u.nsrc < 2 {
			u.src[u.nsrc] = s
			u.nsrc++
		}
	}
	u.immU = uint32(in.Imm)
	switch in.Op {
	case isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ,
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBC1T, isa.OpBC1F:
		u.target = branchTarget(pc, in.Imm)
	case isa.OpJ, isa.OpJAL:
		u.target = (pc+4)&0xf000_0000 | in.Target<<2
	}
	u.state = uopOK
	return u, nil
}

// badUopError rebuilds the decode error for a dense-window uop that
// failed decode earlier (bad uops are rare enough that re-decoding to
// reconstruct the error costs nothing on the hot path).
func (e *Emulator) badUopError(pc uint32) error {
	_, err := isa.Decode(e.Mem.Read32(pc))
	if err == nil {
		// The word was rewritten into something decodable after the bad
		// decode was cached; preserve cache-forever semantics.
		err = fmt.Errorf("isa: stale bad decode")
	}
	return &FetchError{PC: pc, Err: err}
}

// StepInto executes one instruction, writing its dynamic record into
// *d. It is the allocation-free core of Step: handlers write their
// effects directly into d and the emulator state.
func (e *Emulator) StepInto(d *DynInst) error {
	if e.halted {
		*d = DynInst{}
		return ErrHalted
	}
	pc := e.pc
	var u *uop
	var err error
	if off := pc - e.ubase; off>>2 < uint32(len(e.utab)) && off&3 == 0 {
		u = &e.utab[off>>2]
		if u.state != uopOK {
			u, err = e.denseUop(u, pc)
		}
	} else {
		u, err = e.lookupUop()
	}
	if err != nil {
		*d = DynInst{}
		return err
	}

	// Field by field rather than a composite literal: the literal is
	// built in a temporary and copied, which costs a block zero and a
	// block copy per step.
	d.Seq = e.icount
	d.PC = pc
	d.Inst = u.inst
	d.NSrc = int(u.nsrc)
	d.Src = u.src
	// Unused source slots hold RegZero, whose register value is pinned
	// at 0, so both are read unconditionally.
	d.SrcVal[0] = e.regs[u.src[0]]
	d.SrcVal[1] = e.regs[u.src[1]]
	d.Dst, d.DstVal = isa.RegZero, 0
	d.Dst2, d.Dst2Val = isa.RegZero, 0
	d.EffAddr, d.MemSize = 0, 0
	d.Taken, d.Target, d.NextPC = false, 0, 0

	e.npc = pc + 4
	h := handlers[u.inst.Op]
	if h == nil {
		return fmt.Errorf("emu: unimplemented op %v at 0x%08x", u.inst.Op, pc)
	}
	h(e, u, d)
	if e.trap != nil {
		err := e.trap
		e.trap = nil
		return err
	}
	d.NextPC = e.npc
	e.pc = e.npc
	e.icount++
	return nil
}

// Handler helpers shared by the per-op handlers.

func uSetDst(e *Emulator, d *DynInst, r isa.Reg, v uint32) {
	d.Dst = r
	if r != isa.RegZero {
		d.DstVal = v
		e.regs[r] = v
	}
}

func uSetHILO(e *Emulator, d *DynInst, hi, lo uint32) {
	e.regs[isa.RegHI] = hi
	e.regs[isa.RegLO] = lo
	d.Dst, d.DstVal = isa.RegLO, lo
	d.Dst2, d.Dst2Val = isa.RegHI, hi
}

func uTakeBranch(e *Emulator, d *DynInst, taken bool, target uint32) {
	d.Taken = taken
	d.Target = target
	if taken {
		e.npc = target
	}
}
