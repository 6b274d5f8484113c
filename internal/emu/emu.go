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
		Mem:       mem,
		pc:        prog.Entry,
		brk:       DefaultBreakBase,
		MaxOutput: 1 << 20,
	}
	e.regs[isa.RegSP] = DefaultStackTop
	e.regs[isa.RegGP] = DefaultDataBase
	e.initFast(prog)
	return e
}

// Fork returns a speculative copy of the emulator starting at pc: the
// registers are duplicated and memory writes go to a private
// copy-on-write overlay, so the fork can run down a mispredicted path
// without disturbing this emulator's architectural state. The fork shares
// this emulator's instruction counter baseline but advances its own.
func (e *Emulator) Fork(pc uint32) *Emulator {
	f := &Emulator{
		Mem:       NewOverlay(e.Mem),
		regs:      e.regs,
		pc:        pc,
		brk:       e.brk,
		icount:    e.icount,
		MaxOutput: 1 << 16,
	}
	// No dense predecode window: the fork decodes lazily (through its
	// overlay) via the fallback cache, so speculative stores to
	// instruction words are honoured.
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
		if visit != nil {
			visit(&d)
		}
	}
	return e.icount - start, nil
}
