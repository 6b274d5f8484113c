package emu

import (
	"math"

	"pok/internal/isa"
)

// handlerFn executes one predecoded instruction: read operands from the
// register file, write effects into the emulator state and the dynamic
// record. Control flow goes through e.npc; faults through e.trap.
type handlerFn func(e *Emulator, u *uop, d *DynInst)

// handlers is the direct-threaded dispatch table, indexed by opcode. A
// nil entry makes StepInto return an "unimplemented op" error (only
// OpInvalid today).
var handlers = [isa.NumOps]handlerFn{
	isa.OpNOP:   hNop,
	isa.OpBREAK: hNop,

	isa.OpADD:   hADD,
	isa.OpADDU:  hADD,
	isa.OpSUB:   hSUB,
	isa.OpSUBU:  hSUB,
	isa.OpADDI:  hADDI,
	isa.OpADDIU: hADDI,
	isa.OpSLT:   hSLT,
	isa.OpSLTU:  hSLTU,
	isa.OpSLTI:  hSLTI,
	isa.OpSLTIU: hSLTIU,
	isa.OpAND:   hAND,
	isa.OpOR:    hOR,
	isa.OpXOR:   hXOR,
	isa.OpNOR:   hNOR,
	isa.OpANDI:  hANDI,
	isa.OpORI:   hORI,
	isa.OpXORI:  hXORI,
	isa.OpLUI:   hLUI,
	isa.OpSLL:   hSLL,
	isa.OpSRL:   hSRL,
	isa.OpSRA:   hSRA,
	isa.OpSLLV:  hSLLV,
	isa.OpSRLV:  hSRLV,
	isa.OpSRAV:  hSRAV,
	isa.OpMULT:  hMULT,
	isa.OpMULTU: hMULTU,
	isa.OpDIV:   hDIV,
	isa.OpDIVU:  hDIVU,
	isa.OpMFHI:  hMFHI,
	isa.OpMFLO:  hMFLO,
	isa.OpMTHI:  hMTHI,
	isa.OpMTLO:  hMTLO,

	isa.OpLB:   hLB,
	isa.OpLBU:  hLBU,
	isa.OpLH:   hLH,
	isa.OpLHU:  hLHU,
	isa.OpLW:   hLW,
	isa.OpLWC1: hLW,
	isa.OpSB:   hSB,
	isa.OpSH:   hSH,
	isa.OpSW:   hSW,
	isa.OpSWC1: hSW,

	isa.OpBEQ:  hBEQ,
	isa.OpBNE:  hBNE,
	isa.OpBLEZ: hBLEZ,
	isa.OpBGTZ: hBGTZ,
	isa.OpBLTZ: hBLTZ,
	isa.OpBGEZ: hBGEZ,
	isa.OpBC1T: hBC1T,
	isa.OpBC1F: hBC1F,
	isa.OpJ:    hJ,
	isa.OpJAL:  hJAL,
	isa.OpJR:   hJR,
	isa.OpJALR: hJALR,

	isa.OpADDS:  hADDS,
	isa.OpSUBS:  hSUBS,
	isa.OpMULS:  hMULS,
	isa.OpDIVS:  hDIVS,
	isa.OpSQRTS: hSQRTS,
	isa.OpABSS:  hABSS,
	isa.OpNEGS:  hNEGS,
	isa.OpMOVS:  hMOVS,
	isa.OpCVTSW: hCVTSW,
	isa.OpCVTWS: hCVTWS,
	isa.OpCEQS:  hCEQS,
	isa.OpCLTS:  hCLTS,
	isa.OpCLES:  hCLES,
	isa.OpMFC1:  hMFC1,
	isa.OpMTC1:  hMTC1,

	isa.OpSYSCALL: hSYSCALL,
}

func hNop(e *Emulator, u *uop, d *DynInst) {}

func hADD(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]+e.regs[u.inst.Rt])
}

func hSUB(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]-e.regs[u.inst.Rt])
}

func hADDI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rt, e.regs[u.inst.Rs]+u.immU)
}

func hSLT(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if int32(e.regs[u.inst.Rs]) < int32(e.regs[u.inst.Rt]) {
		v = 1
	}
	uSetDst(e, d, u.inst.Rd, v)
}

func hSLTU(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if e.regs[u.inst.Rs] < e.regs[u.inst.Rt] {
		v = 1
	}
	uSetDst(e, d, u.inst.Rd, v)
}

func hSLTI(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if int32(e.regs[u.inst.Rs]) < u.inst.Imm {
		v = 1
	}
	uSetDst(e, d, u.inst.Rt, v)
}

func hSLTIU(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if e.regs[u.inst.Rs] < u.immU {
		v = 1
	}
	uSetDst(e, d, u.inst.Rt, v)
}

func hAND(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]&e.regs[u.inst.Rt])
}

func hOR(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]|e.regs[u.inst.Rt])
}

func hXOR(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]^e.regs[u.inst.Rt])
}

func hNOR(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, ^(e.regs[u.inst.Rs] | e.regs[u.inst.Rt]))
}

func hANDI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rt, e.regs[u.inst.Rs]&u.immU)
}

func hORI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rt, e.regs[u.inst.Rs]|u.immU)
}

func hXORI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rt, e.regs[u.inst.Rs]^u.immU)
}

func hLUI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rt, u.immU<<16)
}

func hSLL(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rt]<<u.inst.Shamt)
}

func hSRL(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rt]>>u.inst.Shamt)
}

func hSRA(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, uint32(int32(e.regs[u.inst.Rt])>>u.inst.Shamt))
}

func hSLLV(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rt]<<(e.regs[u.inst.Rs]&31))
}

func hSRLV(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rt]>>(e.regs[u.inst.Rs]&31))
}

func hSRAV(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, uint32(int32(e.regs[u.inst.Rt])>>(e.regs[u.inst.Rs]&31)))
}

func hMULT(e *Emulator, u *uop, d *DynInst) {
	p := int64(int32(e.regs[u.inst.Rs])) * int64(int32(e.regs[u.inst.Rt]))
	uSetHILO(e, d, uint32(uint64(p)>>32), uint32(uint64(p)))
}

func hMULTU(e *Emulator, u *uop, d *DynInst) {
	p := uint64(e.regs[u.inst.Rs]) * uint64(e.regs[u.inst.Rt])
	uSetHILO(e, d, uint32(p>>32), uint32(p))
}

func hDIV(e *Emulator, u *uop, d *DynInst) {
	rs, rt := e.regs[u.inst.Rs], e.regs[u.inst.Rt]
	if rt == 0 {
		uSetHILO(e, d, rs, ^uint32(0)) // MIPS leaves this undefined; pick a fixed value
	} else if int32(rs) == math.MinInt32 && int32(rt) == -1 {
		uSetHILO(e, d, 0, rs) // overflow case: quotient wraps
	} else {
		uSetHILO(e, d, uint32(int32(rs)%int32(rt)), uint32(int32(rs)/int32(rt)))
	}
}

func hDIVU(e *Emulator, u *uop, d *DynInst) {
	rs, rt := e.regs[u.inst.Rs], e.regs[u.inst.Rt]
	if rt == 0 {
		uSetHILO(e, d, rs, ^uint32(0))
	} else {
		uSetHILO(e, d, rs%rt, rs/rt)
	}
}

func hMFHI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[isa.RegHI])
}

func hMFLO(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[isa.RegLO])
}

func hMTHI(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, isa.RegHI, e.regs[u.inst.Rs])
}

func hMTLO(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, isa.RegLO, e.regs[u.inst.Rs])
}

func hLB(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	uSetDst(e, d, u.inst.Rt, uint32(int32(int8(e.Mem.Read8(d.EffAddr)))))
}

func hLBU(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	uSetDst(e, d, u.inst.Rt, uint32(e.Mem.Read8(d.EffAddr)))
}

func hLH(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	uSetDst(e, d, u.inst.Rt, uint32(int32(int16(e.Mem.Read16(d.EffAddr)))))
}

func hLHU(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	uSetDst(e, d, u.inst.Rt, uint32(e.Mem.Read16(d.EffAddr)))
}

func hLW(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	uSetDst(e, d, u.inst.Rt, e.Mem.Read32(d.EffAddr))
}

func hSB(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	e.Mem.Write8(d.EffAddr, byte(e.regs[u.inst.Rt]))
}

func hSH(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	e.Mem.Write16(d.EffAddr, uint16(e.regs[u.inst.Rt]))
}

func hSW(e *Emulator, u *uop, d *DynInst) {
	d.EffAddr = e.regs[u.inst.Rs] + u.immU
	e.Mem.Write32(d.EffAddr, e.regs[u.inst.Rt])
}

func hBEQ(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, e.regs[u.inst.Rs] == e.regs[u.inst.Rt], u.target)
}

func hBNE(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, e.regs[u.inst.Rs] != e.regs[u.inst.Rt], u.target)
}

func hBLEZ(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, int32(e.regs[u.inst.Rs]) <= 0, u.target)
}

func hBGTZ(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, int32(e.regs[u.inst.Rs]) > 0, u.target)
}

func hBLTZ(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, int32(e.regs[u.inst.Rs]) < 0, u.target)
}

func hBGEZ(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, int32(e.regs[u.inst.Rs]) >= 0, u.target)
}

func hBC1T(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, e.regs[isa.RegFCC] != 0, u.target)
}

func hBC1F(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, e.regs[isa.RegFCC] == 0, u.target)
}

func hJ(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, true, u.target)
}

func hJAL(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, isa.RegRA, d.PC+4)
	uTakeBranch(e, d, true, u.target)
}

func hJR(e *Emulator, u *uop, d *DynInst) {
	uTakeBranch(e, d, true, e.regs[u.inst.Rs])
}

func hJALR(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, d.PC+4)
	uTakeBranch(e, d, true, e.regs[u.inst.Rs])
}

func hADDS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, fbits(bitsf(e.regs[u.inst.Rs])+bitsf(e.regs[u.inst.Rt])))
}

func hSUBS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, fbits(bitsf(e.regs[u.inst.Rs])-bitsf(e.regs[u.inst.Rt])))
}

func hMULS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, fbits(bitsf(e.regs[u.inst.Rs])*bitsf(e.regs[u.inst.Rt])))
}

func hDIVS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, fbits(bitsf(e.regs[u.inst.Rs])/bitsf(e.regs[u.inst.Rt])))
}

func hSQRTS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, fbits(float32(math.Sqrt(float64(bitsf(e.regs[u.inst.Rs]))))))
}

func hABSS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]&0x7fff_ffff)
}

func hNEGS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs]^0x8000_0000)
}

func hMOVS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rs])
}

func hCVTSW(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, fbits(float32(int32(e.regs[u.inst.Rs]))))
}

func hCVTWS(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, uint32(int32(bitsf(e.regs[u.inst.Rs]))))
}

func hCEQS(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if bitsf(e.regs[u.inst.Rs]) == bitsf(e.regs[u.inst.Rt]) {
		v = 1
	}
	uSetDst(e, d, isa.RegFCC, v)
}

func hCLTS(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if bitsf(e.regs[u.inst.Rs]) < bitsf(e.regs[u.inst.Rt]) {
		v = 1
	}
	uSetDst(e, d, isa.RegFCC, v)
}

func hCLES(e *Emulator, u *uop, d *DynInst) {
	v := uint32(0)
	if bitsf(e.regs[u.inst.Rs]) <= bitsf(e.regs[u.inst.Rt]) {
		v = 1
	}
	uSetDst(e, d, isa.RegFCC, v)
}

func hMFC1(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rt, e.regs[u.inst.Rs])
}

func hMTC1(e *Emulator, u *uop, d *DynInst) {
	uSetDst(e, d, u.inst.Rd, e.regs[u.inst.Rt])
}

func hSYSCALL(e *Emulator, u *uop, d *DynInst) {
	if err := e.syscall(d); err != nil {
		e.trap = err
	}
}
