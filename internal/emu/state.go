package emu

import (
	"fmt"
	"sort"

	"pok/internal/isa"
)

// MemPage is one serialized memory page: page number (addr >> 12) and
// its full 4KB contents.
type MemPage struct {
	Num  uint32
	Data []byte // len == PageSize
}

// State is the emulator's complete architectural state, captured at an
// instruction boundary: register file (including HI/LO/FCC by index),
// PC, halt status, instruction count, break pointer, program output,
// pending inputs, and the memory image as a sorted page list. A State
// restored with NewFromState executes bit-identically to the emulator
// it was captured from.
//
// Partial marks a delta capture: Pages holds only pages dirtied since
// the previous snapshot, and the checkpoint layer merges the chain back
// into a full image before restore.
type State struct {
	Regs     [isa.NumRegs]uint32
	PC       uint32
	Halted   bool
	ExitCode int32
	ICount   uint64
	Brk      uint32
	Output   string
	Inputs   []int32
	Legacy   bool

	// UBase/ULen record the dense predecode window geometry (ULen in
	// uops) so restore rebuilds an empty window of identical shape
	// (decode is lazy and deterministic from memory, so the table
	// contents need not travel, and the restored table is materialized
	// on demand like a fresh one).
	UBase uint32
	ULen  int

	Partial bool
	Pages   []MemPage // sorted by Num
}

// Snapshot captures the emulator's architectural state. With deltaOnly
// set, only pages dirtied since the previous Snapshot are included
// (State.Partial = true); either way, the dirty bits are cleared so the
// next delta starts from this point. Only an emulator backed by a plain
// *Memory (not a wrong-path overlay fork) can be snapshotted.
func (e *Emulator) Snapshot(deltaOnly bool) (*State, error) {
	mem, ok := e.Mem.(*Memory)
	if !ok {
		return nil, fmt.Errorf("emu: cannot snapshot an overlay-backed (forked) emulator")
	}
	st := &State{
		Regs:     e.regs,
		PC:       e.pc,
		Halted:   e.halted,
		ExitCode: e.exitCode,
		ICount:   e.icount,
		Brk:      e.brk,
		Output:   e.out.String(),
		Inputs:   append([]int32(nil), e.inputs...),
		Legacy:   e.legacy,
		UBase:    e.ubase,
		ULen:     int(e.ulen),
		Partial:  deltaOnly,
	}
	nums := make([]uint32, 0, len(mem.pages))
	for pn, p := range mem.pages {
		if deltaOnly && !p.dirty {
			continue
		}
		nums = append(nums, pn)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	st.Pages = make([]MemPage, len(nums))
	for i, pn := range nums {
		data := make([]byte, pageSize)
		copy(data, mem.pages[pn].data[:])
		st.Pages[i] = MemPage{Num: pn, Data: data}
	}
	mem.clearDirty()
	return st, nil
}

// NewFromState reconstructs an emulator from a full (non-partial)
// snapshot. The dense predecode window is recreated with the captured
// geometry and nothing materialized; decode refills lazily from the
// restored memory, so
// execution from here is bit-identical to the original run. (Programs
// that rewrite instruction words they already executed would re-decode
// the new bytes; the lockstep oracle catches any such divergence.)
func NewFromState(st *State) (*Emulator, error) {
	if st.Partial {
		return nil, fmt.Errorf("emu: cannot restore from a partial (delta) snapshot; merge the chain first")
	}
	if st.ULen < 0 || st.ULen > denseMax>>2 {
		return nil, fmt.Errorf("emu: predecode window of %d uops out of range", st.ULen)
	}
	mem := NewMemory()
	for _, pg := range st.Pages {
		if len(pg.Data) != pageSize {
			return nil, fmt.Errorf("emu: page %#x has %d bytes, want %d", pg.Num, len(pg.Data), pageSize)
		}
		p := new(memPage)
		copy(p.data[:], pg.Data)
		mem.pages[pg.Num] = p
	}
	e := &Emulator{
		Mem:         mem,
		regs:        st.Regs,
		pc:          st.PC,
		halted:      st.Halted,
		exitCode:    st.ExitCode,
		icount:      st.ICount,
		brk:         st.Brk,
		inputs:      append([]int32(nil), st.Inputs...),
		legacy:      st.Legacy,
		decodeCache: make(map[uint32]isa.Inst),
		MaxOutput:   1 << 20,
		ubase:       st.UBase,
		ulen:        uint32(st.ULen),
	}
	e.out.WriteString(st.Output)
	return e, nil
}

// Merge folds a delta snapshot's pages over this (full) snapshot's and
// adopts the delta's architectural fields, producing the full image at
// the delta's capture point. Pages stay sorted and deduplicated.
func (st *State) Merge(delta *State) *State {
	out := &State{
		Regs:     delta.Regs,
		PC:       delta.PC,
		Halted:   delta.Halted,
		ExitCode: delta.ExitCode,
		ICount:   delta.ICount,
		Brk:      delta.Brk,
		Output:   delta.Output,
		Inputs:   delta.Inputs,
		Legacy:   delta.Legacy,
		UBase:    delta.UBase,
		ULen:     delta.ULen,
	}
	merged := make(map[uint32]MemPage, len(st.Pages)+len(delta.Pages))
	for _, pg := range st.Pages {
		merged[pg.Num] = pg
	}
	for _, pg := range delta.Pages {
		merged[pg.Num] = pg
	}
	nums := make([]uint32, 0, len(merged))
	for pn := range merged {
		nums = append(nums, pn)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	out.Pages = make([]MemPage, len(nums))
	for i, pn := range nums {
		out.Pages[i] = merged[pn]
	}
	return out
}
