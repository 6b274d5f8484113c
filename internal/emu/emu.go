package emu

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"pok/internal/isa"
)

// Program is a loadable memory image plus an entry point. The assembler in
// internal/asm produces Programs; the emulator and the timing model load
// them.
type Program struct {
	Entry    uint32
	Segments []Segment
	Symbols  map[string]uint32
}

// Segment is a contiguous chunk of initialized memory.
type Segment struct {
	Addr uint32
	Data []byte
}

// DynInst records one dynamically executed instruction: the decoded
// instruction plus the architectural values it consumed and produced. The
// timing model and the bit-level characterization experiments both consume
// this record — partial-operand analysis needs actual operand values, not
// just register names.
type DynInst struct {
	Seq  uint64
	PC   uint32
	Inst isa.Inst

	NSrc   int
	Src    [2]isa.Reg
	SrcVal [2]uint32

	Dst     isa.Reg
	DstVal  uint32
	Dst2    isa.Reg // second destination (HI for mult/div), RegZero if none
	Dst2Val uint32

	EffAddr uint32 // memory ops: effective address
	MemSize uint8  // memory ops: access width in bytes

	Taken  bool   // control ops: direction actually taken
	Target uint32 // control ops: taken-path target
	NextPC uint32 // architectural next PC
}

// ErrHalted is returned by Step once the program has exited.
var ErrHalted = errors.New("emu: program halted")

// Default memory layout constants for programs assembled without explicit
// origins.
const (
	DefaultTextBase  = 0x0040_0000
	DefaultDataBase  = 0x1000_0000
	DefaultStackTop  = 0x7fff_f000
	DefaultBreakBase = 0x2000_0000
)

// Emulator executes a Program functionally, one instruction at a time.
type Emulator struct {
	Mem Backend

	regs [isa.NumRegs]uint32
	pc   uint32

	halted   bool
	exitCode int32
	icount   uint64
	brk      uint32

	out    strings.Builder
	inputs []int32 // queue consumed by the read_int syscall

	// decodeCache backs the legacy interpreter only; the fast path uses
	// the dense uop window below.
	decodeCache map[uint32]isa.Inst

	// Direct-threaded fast-path state (see uop.go). The dense predecode
	// window covers ulen uops from ubase; utab is its materialized
	// prefix, grown on demand. ufall/uerr are the bounded fallback cache
	// for out-of-window PCs; npc and trap carry the next PC and any
	// fault out of a handler; uscratch is the no-cache decode buffer
	// once ufall is full.
	ubase    uint32
	ulen     uint32
	utab     []uop
	ufall    map[uint32]*uop
	uerr     map[uint32]error
	npc      uint32
	trap     error
	uscratch uop

	// legacy selects the original switch-dispatch interpreter (kept for
	// differential testing of the direct-threaded fast path).
	legacy bool

	// MaxOutput bounds the captured program output (default 1MB).
	MaxOutput int
}

// New creates an emulator with prog loaded, the stack pointer initialized
// and the PC at the entry point.
func New(prog *Program) *Emulator {
	mem := NewMemory()
	for _, s := range prog.Segments {
		mem.WriteBlock(s.Addr, s.Data)
	}
	e := &Emulator{
		Mem:         mem,
		pc:          prog.Entry,
		brk:         DefaultBreakBase,
		decodeCache: make(map[uint32]isa.Inst),
		MaxOutput:   1 << 20,
	}
	e.regs[isa.RegSP] = DefaultStackTop
	e.regs[isa.RegGP] = DefaultDataBase
	e.initFast(prog)
	return e
}

// SetLegacy switches between the direct-threaded fast path (default)
// and the original switch-dispatch interpreter. Both produce identical
// DynInst streams; the legacy path exists as the differential-testing
// reference. Call before execution starts.
func (e *Emulator) SetLegacy(on bool) { e.legacy = on }

// Legacy reports whether the original switch-dispatch interpreter is
// selected.
func (e *Emulator) Legacy() bool { return e.legacy }

// Fork returns a speculative copy of the emulator starting at pc: the
// registers are duplicated and memory writes go to a private
// copy-on-write overlay, so the fork can run down a mispredicted path
// without disturbing this emulator's architectural state. The fork shares
// this emulator's instruction counter baseline but advances its own.
func (e *Emulator) Fork(pc uint32) *Emulator {
	f := &Emulator{
		Mem:         NewOverlay(e.Mem),
		regs:        e.regs,
		pc:          pc,
		brk:         e.brk,
		icount:      e.icount,
		decodeCache: make(map[uint32]isa.Inst),
		legacy:      e.legacy,
		MaxOutput:   1 << 16,
	}
	// No dense predecode window: like the legacy per-fork decode map,
	// the fork decodes lazily (through its overlay) via the fallback
	// cache, so speculative stores to instruction words are honoured.
	return f
}

// SetInput queues values for the read_int syscall.
func (e *Emulator) SetInput(vals ...int32) { e.inputs = append(e.inputs, vals...) }

// Reg returns the current value of architectural register r.
func (e *Emulator) Reg(r isa.Reg) uint32 { return e.regs[r] }

// SetReg sets architectural register r (writes to $zero are ignored).
func (e *Emulator) SetReg(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		e.regs[r] = v
	}
}

// PC returns the current program counter.
func (e *Emulator) PC() uint32 { return e.pc }

// Halted reports whether the program has exited.
func (e *Emulator) Halted() bool { return e.halted }

// ExitCode returns the value passed to the exit syscall.
func (e *Emulator) ExitCode() int32 { return e.exitCode }

// InstCount returns the number of instructions executed so far.
func (e *Emulator) InstCount() uint64 { return e.icount }

// Output returns everything the program printed.
func (e *Emulator) Output() string { return e.out.String() }

func (e *Emulator) decode(pc uint32) (isa.Inst, error) {
	if in, ok := e.decodeCache[pc]; ok {
		return in, nil
	}
	in, err := isa.Decode(e.Mem.Read32(pc))
	if err != nil {
		return in, fmt.Errorf("at pc 0x%08x: %w", pc, err)
	}
	e.decodeCache[pc] = in
	return in, nil
}

func fbits(f float32) uint32 { return math.Float32bits(f) }
func bitsf(b uint32) float32 { return math.Float32frombits(b) }
func branchTarget(pc uint32, imm int32) uint32 {
	return uint32(int64(pc) + 4 + int64(imm)*4)
}

// Step executes one instruction and returns its dynamic record.
func (e *Emulator) Step() (DynInst, error) {
	var d DynInst
	err := e.StepInto(&d)
	return d, err
}

// stepLegacy is the original switch-dispatch interpreter, kept as the
// differential-testing reference for the direct-threaded fast path in
// uop.go (see Config.LegacyEmulator / SetLegacy).
func (e *Emulator) stepLegacy() (DynInst, error) {
	if e.halted {
		return DynInst{}, ErrHalted
	}
	in, err := e.decode(e.pc)
	if err != nil {
		return DynInst{}, err
	}

	d := DynInst{Seq: e.icount, PC: e.pc, Inst: in, Dst: isa.RegZero, Dst2: isa.RegZero}
	for _, s := range in.Sources() {
		if d.NSrc < 2 {
			d.Src[d.NSrc] = s
			d.SrcVal[d.NSrc] = e.regs[s]
			d.NSrc++
		}
	}

	rs := e.regs[in.Rs]
	rt := e.regs[in.Rt]
	nextPC := e.pc + 4

	setDst := func(r isa.Reg, v uint32) {
		d.Dst = r
		d.DstVal = v
		e.SetReg(r, v)
		if r == isa.RegZero {
			d.DstVal = 0
		}
	}
	setHILO := func(hi, lo uint32) {
		e.regs[isa.RegHI] = hi
		e.regs[isa.RegLO] = lo
		d.Dst, d.DstVal = isa.RegLO, lo
		d.Dst2, d.Dst2Val = isa.RegHI, hi
	}
	takeBranch := func(taken bool, target uint32) {
		d.Taken = taken
		d.Target = target
		if taken {
			nextPC = target
		}
	}

	switch in.Op {
	case isa.OpNOP, isa.OpBREAK:
	case isa.OpADD, isa.OpADDU:
		setDst(in.Rd, rs+rt)
	case isa.OpSUB, isa.OpSUBU:
		setDst(in.Rd, rs-rt)
	case isa.OpADDI, isa.OpADDIU:
		setDst(in.Rt, rs+uint32(in.Imm))
	case isa.OpSLT:
		v := uint32(0)
		if int32(rs) < int32(rt) {
			v = 1
		}
		setDst(in.Rd, v)
	case isa.OpSLTU:
		v := uint32(0)
		if rs < rt {
			v = 1
		}
		setDst(in.Rd, v)
	case isa.OpSLTI:
		v := uint32(0)
		if int32(rs) < in.Imm {
			v = 1
		}
		setDst(in.Rt, v)
	case isa.OpSLTIU:
		v := uint32(0)
		if rs < uint32(in.Imm) {
			v = 1
		}
		setDst(in.Rt, v)
	case isa.OpAND:
		setDst(in.Rd, rs&rt)
	case isa.OpOR:
		setDst(in.Rd, rs|rt)
	case isa.OpXOR:
		setDst(in.Rd, rs^rt)
	case isa.OpNOR:
		setDst(in.Rd, ^(rs | rt))
	case isa.OpANDI:
		setDst(in.Rt, rs&uint32(in.Imm))
	case isa.OpORI:
		setDst(in.Rt, rs|uint32(in.Imm))
	case isa.OpXORI:
		setDst(in.Rt, rs^uint32(in.Imm))
	case isa.OpLUI:
		setDst(in.Rt, uint32(in.Imm)<<16)
	case isa.OpSLL:
		setDst(in.Rd, rt<<in.Shamt)
	case isa.OpSRL:
		setDst(in.Rd, rt>>in.Shamt)
	case isa.OpSRA:
		setDst(in.Rd, uint32(int32(rt)>>in.Shamt))
	case isa.OpSLLV:
		setDst(in.Rd, rt<<(rs&31))
	case isa.OpSRLV:
		setDst(in.Rd, rt>>(rs&31))
	case isa.OpSRAV:
		setDst(in.Rd, uint32(int32(rt)>>(rs&31)))
	case isa.OpMULT:
		p := int64(int32(rs)) * int64(int32(rt))
		setHILO(uint32(uint64(p)>>32), uint32(uint64(p)))
	case isa.OpMULTU:
		p := uint64(rs) * uint64(rt)
		setHILO(uint32(p>>32), uint32(p))
	case isa.OpDIV:
		if rt == 0 {
			setHILO(rs, ^uint32(0)) // MIPS leaves this undefined; pick a fixed value
		} else if int32(rs) == math.MinInt32 && int32(rt) == -1 {
			setHILO(0, rs) // overflow case: quotient wraps
		} else {
			setHILO(uint32(int32(rs)%int32(rt)), uint32(int32(rs)/int32(rt)))
		}
	case isa.OpDIVU:
		if rt == 0 {
			setHILO(rs, ^uint32(0))
		} else {
			setHILO(rs%rt, rs/rt)
		}
	case isa.OpMFHI:
		setDst(in.Rd, e.regs[isa.RegHI])
	case isa.OpMFLO:
		setDst(in.Rd, e.regs[isa.RegLO])
	case isa.OpMTHI:
		setDst(isa.RegHI, rs)
	case isa.OpMTLO:
		setDst(isa.RegLO, rs)

	case isa.OpLB:
		d.EffAddr = rs + uint32(in.Imm)
		setDst(in.Rt, uint32(int32(int8(e.Mem.Read8(d.EffAddr)))))
	case isa.OpLBU:
		d.EffAddr = rs + uint32(in.Imm)
		setDst(in.Rt, uint32(e.Mem.Read8(d.EffAddr)))
	case isa.OpLH:
		d.EffAddr = rs + uint32(in.Imm)
		setDst(in.Rt, uint32(int32(int16(e.Mem.Read16(d.EffAddr)))))
	case isa.OpLHU:
		d.EffAddr = rs + uint32(in.Imm)
		setDst(in.Rt, uint32(e.Mem.Read16(d.EffAddr)))
	case isa.OpLW, isa.OpLWC1:
		d.EffAddr = rs + uint32(in.Imm)
		setDst(in.Rt, e.Mem.Read32(d.EffAddr))
	case isa.OpSB:
		d.EffAddr = rs + uint32(in.Imm)
		e.Mem.Write8(d.EffAddr, byte(rt))
	case isa.OpSH:
		d.EffAddr = rs + uint32(in.Imm)
		e.Mem.Write16(d.EffAddr, uint16(rt))
	case isa.OpSW:
		d.EffAddr = rs + uint32(in.Imm)
		e.Mem.Write32(d.EffAddr, rt)
	case isa.OpSWC1:
		d.EffAddr = rs + uint32(in.Imm)
		e.Mem.Write32(d.EffAddr, e.regs[in.Rt])

	case isa.OpBEQ:
		takeBranch(rs == rt, branchTarget(e.pc, in.Imm))
	case isa.OpBNE:
		takeBranch(rs != rt, branchTarget(e.pc, in.Imm))
	case isa.OpBLEZ:
		takeBranch(int32(rs) <= 0, branchTarget(e.pc, in.Imm))
	case isa.OpBGTZ:
		takeBranch(int32(rs) > 0, branchTarget(e.pc, in.Imm))
	case isa.OpBLTZ:
		takeBranch(int32(rs) < 0, branchTarget(e.pc, in.Imm))
	case isa.OpBGEZ:
		takeBranch(int32(rs) >= 0, branchTarget(e.pc, in.Imm))
	case isa.OpBC1T:
		takeBranch(e.regs[isa.RegFCC] != 0, branchTarget(e.pc, in.Imm))
	case isa.OpBC1F:
		takeBranch(e.regs[isa.RegFCC] == 0, branchTarget(e.pc, in.Imm))
	case isa.OpJ:
		takeBranch(true, (e.pc+4)&0xf000_0000|in.Target<<2)
	case isa.OpJAL:
		setDst(isa.RegRA, e.pc+4)
		takeBranch(true, (e.pc+4)&0xf000_0000|in.Target<<2)
	case isa.OpJR:
		takeBranch(true, rs)
	case isa.OpJALR:
		setDst(in.Rd, e.pc+4)
		takeBranch(true, rs)

	case isa.OpADDS:
		setDst(in.Rd, fbits(bitsf(e.regs[in.Rs])+bitsf(e.regs[in.Rt])))
	case isa.OpSUBS:
		setDst(in.Rd, fbits(bitsf(e.regs[in.Rs])-bitsf(e.regs[in.Rt])))
	case isa.OpMULS:
		setDst(in.Rd, fbits(bitsf(e.regs[in.Rs])*bitsf(e.regs[in.Rt])))
	case isa.OpDIVS:
		setDst(in.Rd, fbits(bitsf(e.regs[in.Rs])/bitsf(e.regs[in.Rt])))
	case isa.OpSQRTS:
		setDst(in.Rd, fbits(float32(math.Sqrt(float64(bitsf(e.regs[in.Rs]))))))
	case isa.OpABSS:
		setDst(in.Rd, e.regs[in.Rs]&0x7fff_ffff)
	case isa.OpNEGS:
		setDst(in.Rd, e.regs[in.Rs]^0x8000_0000)
	case isa.OpMOVS:
		setDst(in.Rd, e.regs[in.Rs])
	case isa.OpCVTSW:
		setDst(in.Rd, fbits(float32(int32(e.regs[in.Rs]))))
	case isa.OpCVTWS:
		setDst(in.Rd, uint32(int32(bitsf(e.regs[in.Rs]))))
	case isa.OpCEQS:
		v := uint32(0)
		if bitsf(e.regs[in.Rs]) == bitsf(e.regs[in.Rt]) {
			v = 1
		}
		setDst(isa.RegFCC, v)
	case isa.OpCLTS:
		v := uint32(0)
		if bitsf(e.regs[in.Rs]) < bitsf(e.regs[in.Rt]) {
			v = 1
		}
		setDst(isa.RegFCC, v)
	case isa.OpCLES:
		v := uint32(0)
		if bitsf(e.regs[in.Rs]) <= bitsf(e.regs[in.Rt]) {
			v = 1
		}
		setDst(isa.RegFCC, v)
	case isa.OpMFC1:
		setDst(in.Rt, e.regs[in.Rs])
	case isa.OpMTC1:
		setDst(in.Rd, e.regs[in.Rt])

	case isa.OpSYSCALL:
		if err := e.syscall(&d); err != nil {
			return d, err
		}

	default:
		return d, fmt.Errorf("emu: unimplemented op %v at 0x%08x", in.Op, e.pc)
	}

	d.NextPC = nextPC
	e.pc = nextPC
	e.icount++
	return d, nil
}

// Syscall numbers (SPIM-compatible subset).
const (
	SysPrintInt    = 1
	SysPrintString = 4
	SysReadInt     = 5
	SysSbrk        = 9
	SysExit        = 10
	SysPrintChar   = 11
)

func (e *Emulator) syscall(d *DynInst) error {
	code := e.regs[isa.RegV0]
	a0 := e.regs[isa.RegA0]
	switch code {
	case SysPrintInt:
		e.print(fmt.Sprintf("%d", int32(a0)))
	case SysPrintString:
		s, err := e.Mem.ReadCString(a0)
		if err != nil {
			return err
		}
		e.print(s)
	case SysReadInt:
		var v int32
		if len(e.inputs) > 0 {
			v, e.inputs = e.inputs[0], e.inputs[1:]
		}
		e.regs[isa.RegV0] = uint32(v)
		d.Dst, d.DstVal = isa.RegV0, uint32(v)
	case SysSbrk:
		old := e.brk
		e.brk += a0
		e.regs[isa.RegV0] = old
		d.Dst, d.DstVal = isa.RegV0, old
	case SysExit:
		e.halted = true
		e.exitCode = int32(a0)
	case SysPrintChar:
		e.print(string(rune(a0)))
	default:
		return fmt.Errorf("emu: unknown syscall %d at 0x%08x", code, e.pc)
	}
	return nil
}

func (e *Emulator) print(s string) {
	if e.out.Len()+len(s) <= e.MaxOutput {
		e.out.WriteString(s)
	}
}

// Run executes until the program halts or maxInsts instructions have
// executed (0 means no limit), invoking visit for each instruction if
// visit is non-nil. It returns the number of instructions executed.
// The record passed to visit is reused for the next instruction, so
// visit must copy *d rather than keep the pointer after it returns.
func (e *Emulator) Run(maxInsts uint64, visit func(*DynInst)) (uint64, error) {
	start := e.icount
	if visit == nil {
		// Fast-forward path: reuse one record so the loop stays
		// allocation-free (no caller can observe the discarded records).
		var d DynInst
		for !e.halted {
			if maxInsts > 0 && e.icount-start >= maxInsts {
				break
			}
			if err := e.StepInto(&d); err != nil {
				if errors.Is(err, ErrHalted) {
					break
				}
				return e.icount - start, err
			}
		}
		return e.icount - start, nil
	}
	// One record serves every step: StepInto overwrites all of it, and
	// a per-step record would escape into visit and heap-allocate.
	var d DynInst
	for !e.halted {
		if maxInsts > 0 && e.icount-start >= maxInsts {
			break
		}
		if err := e.StepInto(&d); err != nil {
			if errors.Is(err, ErrHalted) {
				break
			}
			return e.icount - start, err
		}
		visit(&d)
	}
	return e.icount - start, nil
}
