package emu

import (
	"runtime"
	"testing"
	"testing/quick"

	"pok/internal/isa"
)

func TestMemoryByteHalfWord(t *testing.T) {
	m := NewMemory()
	m.Write32(0x1000, 0xdeadbeef)
	if got := m.Read32(0x1000); got != 0xdeadbeef {
		t.Fatalf("Read32 = 0x%x", got)
	}
	// Little-endian byte order.
	if m.Read8(0x1000) != 0xef || m.Read8(0x1003) != 0xde {
		t.Fatal("byte order not little-endian")
	}
	if m.Read16(0x1000) != 0xbeef || m.Read16(0x1002) != 0xdead {
		t.Fatal("half order not little-endian")
	}
	m.Write16(0x1002, 0x1234)
	if m.Read32(0x1000) != 0x1234beef {
		t.Fatal("Write16 did not merge")
	}
	// Untouched memory reads as zero.
	if m.Read32(0x9999_0000) != 0 {
		t.Fatal("cold memory not zero")
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint32(pageSize - 2) // straddles the first page boundary
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Fatalf("cross-page word = 0x%x", got)
	}
	if m.PageCount() != 2 {
		t.Fatalf("PageCount = %d, want 2", m.PageCount())
	}
}

func TestMemoryQuickRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint32) bool {
		addr &= 0x0fff_ffff
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBytesAndCString(t *testing.T) {
	m := NewMemory()
	m.WriteBlock(0x2000, []byte("hello\x00world"))
	s, err := m.ReadCString(0x2000)
	if err != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	if got := string(m.ReadBlock(0x2006, 5)); got != "world" {
		t.Fatalf("ReadBlock = %q", got)
	}
}

// TestBlockCopyMatchesByteLoop: WriteBlock and ReadBlock behave exactly
// like Write8 and Read8 loops (same bytes, same materialized pages, same
// dirty flags) across page boundaries and the wrap past 0xFFFFFFFF.
func TestBlockCopyMatchesByteLoop(t *testing.T) {
	cases := []struct {
		name string
		addr uint32
		n    int
	}{
		{"empty", 0x2000, 0},
		{"within one page", 0x2010, 100},
		{"ends on a page boundary", 0x2f00, 0x100},
		{"spans three pages unaligned", 0x2ffd, 2*pageSize + 9},
		{"wraps at 0xFFFFFFFF", 0xfffffff0, 0x20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := make([]byte, c.n)
			for i := range data {
				data[i] = byte(i*7 + 1)
			}
			// Each memory starts with two clean pages, the block's first
			// and the one below it, so the dirty flags show exactly which
			// pages the write touched.
			setup := func() *Memory {
				m := NewMemory()
				m.Write8(c.addr, 0x55)
				m.Write8(c.addr-pageSize, 0x66)
				m.clearDirty()
				return m
			}
			block, loop := setup(), setup()
			block.WriteBlock(c.addr, data)
			for i, b := range data {
				loop.Write8(c.addr+uint32(i), b)
			}
			if len(block.pages) != len(loop.pages) {
				t.Fatalf("%d pages, byte loop has %d", len(block.pages), len(loop.pages))
			}
			for pn, lp := range loop.pages {
				bp := block.pages[pn]
				switch {
				case bp == nil:
					t.Fatalf("page %#x missing", pn)
				case bp.dirty != lp.dirty:
					t.Errorf("page %#x dirty = %v, byte loop %v", pn, bp.dirty, lp.dirty)
				case bp.data != lp.data:
					t.Errorf("page %#x contents differ from the byte loop", pn)
				}
			}
			// Read a window reaching two pages past the block on each side,
			// so it covers materialized and unmaterialized pages alike.
			start, n := c.addr-2*pageSize, c.n+4*pageSize
			got := block.ReadBlock(start, n)
			if len(got) != n {
				t.Fatalf("ReadBlock returned %d bytes, want %d", len(got), n)
			}
			for i, b := range got {
				if want := block.Read8(start + uint32(i)); b != want {
					t.Fatalf("ReadBlock byte %d at %#x = %#x, Read8 %#x", i, start+uint32(i), b, want)
				}
			}
		})
	}
}

// buildProg encodes a list of instructions at the default text base and
// returns a runnable program.
func buildProg(t *testing.T, insts ...isa.Inst) *Program {
	t.Helper()
	var data []byte
	for _, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		data = append(data, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return &Program{
		Entry:    DefaultTextBase,
		Segments: []Segment{{Addr: DefaultTextBase, Data: data}},
	}
}

func exitSeq() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysExit},
		{Op: isa.OpSYSCALL},
	}
}

func TestArithmeticAndHalt(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 40},
		{Op: isa.OpADDIU, Rt: 9, Rs: isa.RegZero, Imm: 2},
		{Op: isa.OpADDU, Rd: 10, Rs: 8, Rt: 9},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	n, err := e.Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Halted() || n != 5 {
		t.Fatalf("halted=%v n=%d", e.Halted(), n)
	}
	if e.Reg(10) != 42 {
		t.Fatalf("$t2 = %d, want 42", e.Reg(10))
	}
}

func TestLoadsStoresSignExtension(t *testing.T) {
	base := uint32(0x1000_0000)
	insts := []isa.Inst{
		{Op: isa.OpLUI, Rt: 8, Imm: int32(base >> 16)},     // $t0 = base
		{Op: isa.OpADDIU, Rt: 9, Rs: isa.RegZero, Imm: -2}, // $t1 = 0xfffffffe
		{Op: isa.OpSW, Rs: 8, Rt: 9, Imm: 0},
		{Op: isa.OpLB, Rs: 8, Rt: 10, Imm: 0},  // 0xfe sign extended
		{Op: isa.OpLBU, Rs: 8, Rt: 11, Imm: 0}, // 0xfe zero extended
		{Op: isa.OpLH, Rs: 8, Rt: 12, Imm: 0},  // 0xfffe sign extended
		{Op: isa.OpLHU, Rs: 8, Rt: 13, Imm: 0},
		{Op: isa.OpLW, Rs: 8, Rt: 14, Imm: 0},
		{Op: isa.OpSB, Rs: 8, Rt: 9, Imm: 5},
		{Op: isa.OpLBU, Rs: 8, Rt: 15, Imm: 5},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	checks := map[isa.Reg]uint32{
		10: 0xffff_fffe, 11: 0xfe, 12: 0xffff_fffe, 13: 0xfffe,
		14: 0xffff_fffe, 15: 0xfe,
	}
	for r, want := range checks {
		if got := e.Reg(r); got != want {
			t.Errorf("reg %v = 0x%x, want 0x%x", r, got, want)
		}
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 with a bne loop.
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 10}, // counter
		{Op: isa.OpADDIU, Rt: 9, Rs: isa.RegZero, Imm: 0},  // sum
		// loop:
		{Op: isa.OpADDU, Rd: 9, Rs: 9, Rt: 8},
		{Op: isa.OpADDIU, Rt: 8, Rs: 8, Imm: -1},
		{Op: isa.OpBNE, Rs: 8, Rt: isa.RegZero, Imm: -3},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Reg(9) != 55 {
		t.Fatalf("sum = %d, want 55", e.Reg(9))
	}
}

func TestJalAndJr(t *testing.T) {
	// main: jal f; exit. f: $t0=7; jr $ra
	fAddr := uint32(DefaultTextBase + 5*4)
	insts := []isa.Inst{
		{Op: isa.OpJAL, Target: fAddr >> 2},
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysExit},
		{Op: isa.OpSYSCALL},
		{Op: isa.OpNOP},
		{Op: isa.OpNOP},
		// f:
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 7},
		{Op: isa.OpJR, Rs: isa.RegRA},
	}
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Reg(8) != 7 {
		t.Fatalf("$t0 = %d, want 7", e.Reg(8))
	}
	if !e.Halted() {
		t.Fatal("did not return from call")
	}
}

func TestMultDivHiLo(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: -7},
		{Op: isa.OpADDIU, Rt: 9, Rs: isa.RegZero, Imm: 3},
		{Op: isa.OpMULT, Rs: 8, Rt: 9},
		{Op: isa.OpMFLO, Rd: 10}, // -21
		{Op: isa.OpMFHI, Rd: 11}, // sign extension: 0xffffffff
		{Op: isa.OpDIV, Rs: 8, Rt: 9},
		{Op: isa.OpMFLO, Rd: 12}, // -2 (trunc toward zero)
		{Op: isa.OpMFHI, Rd: 13}, // -1 remainder
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if int32(e.Reg(10)) != -21 || e.Reg(11) != 0xffff_ffff {
		t.Fatalf("mult: lo=%d hi=0x%x", int32(e.Reg(10)), e.Reg(11))
	}
	if int32(e.Reg(12)) != -2 || int32(e.Reg(13)) != -1 {
		t.Fatalf("div: q=%d r=%d", int32(e.Reg(12)), int32(e.Reg(13)))
	}
}

func TestShifts(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: -8}, // 0xfffffff8
		{Op: isa.OpSLL, Rd: 9, Rt: 8, Shamt: 4},
		{Op: isa.OpSRL, Rd: 10, Rt: 8, Shamt: 4},
		{Op: isa.OpSRA, Rd: 11, Rt: 8, Shamt: 4},
		{Op: isa.OpADDIU, Rt: 12, Rs: isa.RegZero, Imm: 8},
		{Op: isa.OpSLLV, Rd: 13, Rt: 8, Rs: 12},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Reg(9) != 0xffff_ff80 || e.Reg(10) != 0x0fff_ffff ||
		e.Reg(11) != 0xffff_ffff || e.Reg(13) != 0xff_fff800&0xffff_ffff {
		t.Fatalf("shifts: %x %x %x %x", e.Reg(9), e.Reg(10), e.Reg(11), e.Reg(13))
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: isa.RegZero, Rs: isa.RegZero, Imm: 99},
		{Op: isa.OpADDU, Rd: 8, Rs: isa.RegZero, Rt: isa.RegZero},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Reg(isa.RegZero) != 0 || e.Reg(8) != 0 {
		t.Fatal("$zero was written")
	}
}

func TestSyscallsPrintAndInput(t *testing.T) {
	msg := uint32(0x1000_0000)
	insts := []isa.Inst{
		// print_int(-5)
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysPrintInt},
		{Op: isa.OpADDIU, Rt: isa.RegA0, Rs: isa.RegZero, Imm: -5},
		{Op: isa.OpSYSCALL},
		// print_char('!')
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysPrintChar},
		{Op: isa.OpADDIU, Rt: isa.RegA0, Rs: isa.RegZero, Imm: '!'},
		{Op: isa.OpSYSCALL},
		// print_string(msg)
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysPrintString},
		{Op: isa.OpLUI, Rt: isa.RegA0, Imm: int32(msg >> 16)},
		{Op: isa.OpSYSCALL},
		// read_int -> $t0
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysReadInt},
		{Op: isa.OpSYSCALL},
		{Op: isa.OpADDU, Rd: 8, Rs: isa.RegV0, Rt: isa.RegZero},
		// sbrk(16) -> $t1
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysSbrk},
		{Op: isa.OpADDIU, Rt: isa.RegA0, Rs: isa.RegZero, Imm: 16},
		{Op: isa.OpSYSCALL},
		{Op: isa.OpADDU, Rd: 9, Rs: isa.RegV0, Rt: isa.RegZero},
	}
	insts = append(insts, exitSeq()...)
	prog := buildProg(t, insts...)
	prog.Segments = append(prog.Segments,
		Segment{Addr: msg, Data: []byte("ok\x00")})
	e := New(prog)
	e.SetInput(1234)
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Output() != "-5!ok" {
		t.Fatalf("output = %q", e.Output())
	}
	if e.Reg(8) != 1234 {
		t.Fatalf("read_int = %d", e.Reg(8))
	}
	if e.Reg(9) != DefaultBreakBase {
		t.Fatalf("sbrk = 0x%x", e.Reg(9))
	}
}

func TestDynInstRecords(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 0x100},
		{Op: isa.OpSW, Rs: 8, Rt: 8, Imm: 4},
		{Op: isa.OpLW, Rs: 8, Rt: 9, Imm: 4},
		{Op: isa.OpBEQ, Rs: 8, Rt: 9, Imm: 1}, // taken
		{Op: isa.OpNOP},                       // skipped
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	var recs []DynInst
	if _, err := e.Run(0, func(d *DynInst) { recs = append(recs, *d) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 { // nop is skipped by the taken branch
		t.Fatalf("executed %d insts", len(recs))
	}
	sw := recs[1]
	if sw.EffAddr != 0x104 || sw.MemSize != 0 {
		// MemSize is only set via Inst.Op; check via op instead.
		if sw.Inst.Op.MemSize() != 4 {
			t.Fatalf("sw record wrong: %+v", sw)
		}
	}
	lw := recs[2]
	if lw.EffAddr != 0x104 || lw.DstVal != 0x100 || lw.Dst != 9 {
		t.Fatalf("lw record wrong: %+v", lw)
	}
	br := recs[3]
	if !br.Taken || br.Target != br.PC+8 || br.NextPC != br.Target {
		t.Fatalf("branch record wrong: %+v", br)
	}
	if br.NSrc != 2 || br.SrcVal[0] != 0x100 || br.SrcVal[1] != 0x100 {
		t.Fatalf("branch sources wrong: %+v", br)
	}
	// Sequence numbers are dense.
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("seq %d at index %d", r.Seq, i)
		}
	}
}

func TestStepAfterHalt(t *testing.T) {
	e := New(buildProg(t, exitSeq()...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err != ErrHalted {
		t.Fatalf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestRunMaxInsts(t *testing.T) {
	// Infinite loop; Run must stop at the cap.
	insts := []isa.Inst{{Op: isa.OpBEQ, Imm: -1}}
	e := New(buildProg(t, insts...))
	n, err := e.Run(100, nil)
	if err != nil || n != 100 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if e.Halted() {
		t.Fatal("should not be halted")
	}
}

func TestFloatingPoint(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 3},
		{Op: isa.OpMTC1, Rt: 8, Rd: isa.RegF0},
		{Op: isa.OpCVTSW, Rs: isa.RegF0, Rd: isa.RegF0 + 1},                       // f1 = 3.0
		{Op: isa.OpADDS, Rs: isa.RegF0 + 1, Rt: isa.RegF0 + 1, Rd: isa.RegF0 + 2}, // 6.0
		{Op: isa.OpMULS, Rs: isa.RegF0 + 2, Rt: isa.RegF0 + 1, Rd: isa.RegF0 + 3}, // 18.0
		{Op: isa.OpCVTWS, Rs: isa.RegF0 + 3, Rd: isa.RegF0 + 4},
		{Op: isa.OpMFC1, Rt: 9, Rs: isa.RegF0 + 4},
		{Op: isa.OpCLTS, Rs: isa.RegF0 + 1, Rt: isa.RegF0 + 2}, // 3 < 6 -> fcc=1
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Reg(9) != 18 {
		t.Fatalf("fp chain = %d, want 18", e.Reg(9))
	}
	if e.Reg(isa.RegFCC) != 1 {
		t.Fatal("fcc not set")
	}
}

func TestUndecodableFaults(t *testing.T) {
	prog := &Program{
		Entry: DefaultTextBase,
		Segments: []Segment{{Addr: DefaultTextBase,
			Data: []byte{0xff, 0xff, 0xff, 0xff}}},
	}
	e := New(prog)
	if _, err := e.Step(); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestForkIsolation(t *testing.T) {
	// Parent computes a value; fork overwrites memory and registers and
	// must not leak back.
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 0x1000},
		{Op: isa.OpADDIU, Rt: 9, Rs: isa.RegZero, Imm: 77},
		{Op: isa.OpSW, Rs: 8, Rt: 9, Imm: 0},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	for i := 0; i < 3; i++ { // run the three setup instructions
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Mem.Read32(0x1000) != 77 {
		t.Fatal("setup failed")
	}

	// Fork re-pointed at the sw so it overwrites the word speculatively.
	f2 := e.Fork(swPC())
	f2.SetReg(9, 999)
	if _, err := f2.Step(); err != nil {
		t.Fatal(err)
	}
	if f2.Mem.Read32(0x1000) != 999 {
		t.Fatal("fork store not visible in fork")
	}
	if e.Mem.Read32(0x1000) != 77 {
		t.Fatal("fork store leaked into parent")
	}
	if e.Reg(9) != 77 {
		t.Fatal("fork register write leaked")
	}
	// Fork reads through to parent memory it never wrote.
	if f2.Mem.Read32(0x1000+4) != 0 {
		t.Fatal("read-through wrong")
	}
}

// swPC returns the address of the sw instruction in TestForkIsolation.
func swPC() uint32 { return DefaultTextBase + 2*4 }

func TestOverlayBasics(t *testing.T) {
	base := NewMemory()
	base.Write32(0x100, 0xaabbccdd)
	o := NewOverlay(base)
	if o.Read32(0x100) != 0xaabbccdd {
		t.Fatal("read-through failed")
	}
	o.Write8(0x101, 0xff)
	if o.Read32(0x100) != 0xaabbffdd {
		t.Fatalf("merged read = %x", o.Read32(0x100))
	}
	if base.Read32(0x100) != 0xaabbccdd {
		t.Fatal("overlay leaked")
	}
	o.Write16(0x200, 0x1234)
	o.Write32(0x204, 0xdeadbeef)
	if o.Read16(0x200) != 0x1234 || o.Read32(0x204) != 0xdeadbeef {
		t.Fatal("private reads")
	}
	if o.WriteCount() != 7 {
		t.Fatalf("write count %d", o.WriteCount())
	}
	base.WriteBlock(0x300, []byte("hi\x00"))
	s, err := o.ReadCString(0x300)
	if err != nil || s != "hi" {
		t.Fatal("cstring through overlay")
	}
	// Nested overlays compose.
	o2 := NewOverlay(o)
	o2.Write8(0x101, 0x11)
	if o.Read8(0x101) != 0xff || o2.Read8(0x101) != 0x11 {
		t.Fatal("nesting broken")
	}
}

// TestRemainingOpsAndAccessors sweeps the ops and accessors not covered
// by the focused tests: HI/LO moves, unsigned compares, remaining shifts
// and FP transfers, plus the small introspection methods.
func TestRemainingOpsAndAccessors(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 5},
		{Op: isa.OpMTHI, Rs: 8}, // hi = 5
		{Op: isa.OpMTLO, Rs: 8}, // lo = 5
		{Op: isa.OpMFHI, Rd: 9}, // 5
		{Op: isa.OpADDIU, Rt: 10, Rs: isa.RegZero, Imm: -1},
		{Op: isa.OpSLTU, Rd: 11, Rs: 8, Rt: 10},    // 5 <u 0xffffffff = 1
		{Op: isa.OpSLTIU, Rt: 12, Rs: 8, Imm: 4},   // 5 <u 4 = 0
		{Op: isa.OpSLT, Rd: 13, Rs: 10, Rt: 8},     // -1 < 5 = 1
		{Op: isa.OpSLTI, Rt: 14, Rs: 10, Imm: 0},   // -1 < 0 = 1
		{Op: isa.OpSRAV, Rd: 15, Rt: 10, Rs: 8},    // -1 >> 5 = -1
		{Op: isa.OpSRLV, Rd: 24, Rt: 10, Rs: 8},    // logical
		{Op: isa.OpXORI, Rt: 25, Rs: 8, Imm: 0xff}, // 0xfa
		{Op: isa.OpNOR, Rd: 16, Rs: 8, Rt: isa.RegZero},
		{Op: isa.OpDIVU, Rs: 10, Rt: 8}, // 0xffffffff / 5
		{Op: isa.OpMFLO, Rd: 17},
		{Op: isa.OpMULTU, Rs: 10, Rt: 10},
		{Op: isa.OpMFHI, Rd: 18},
		{Op: isa.OpBLTZ, Rs: 10, Imm: 1},          // taken
		{Op: isa.OpNOP},                           // skipped
		{Op: isa.OpBGEZ, Rs: 8, Imm: 1},           // taken
		{Op: isa.OpNOP},                           // skipped
		{Op: isa.OpBLEZ, Rs: isa.RegZero, Imm: 1}, // taken
		{Op: isa.OpNOP},                           // skipped
		{Op: isa.OpBGTZ, Rs: 8, Imm: 1},           // taken
		{Op: isa.OpNOP},                           // skipped
		{Op: isa.OpBREAK},
		// FP corners.
		{Op: isa.OpMTC1, Rt: 8, Rd: isa.RegF0},
		{Op: isa.OpCVTSW, Rs: isa.RegF0, Rd: isa.RegF0 + 1}, // 5.0
		{Op: isa.OpSQRTS, Rs: isa.RegF0 + 1, Rd: isa.RegF0 + 2},
		{Op: isa.OpNEGS, Rs: isa.RegF0 + 1, Rd: isa.RegF0 + 3},
		{Op: isa.OpABSS, Rs: isa.RegF0 + 3, Rd: isa.RegF0 + 4},
		{Op: isa.OpMOVS, Rs: isa.RegF0 + 4, Rd: isa.RegF0 + 5},
		{Op: isa.OpSUBS, Rs: isa.RegF0 + 1, Rt: isa.RegF0 + 1, Rd: isa.RegF0 + 6},
		{Op: isa.OpDIVS, Rs: isa.RegF0 + 1, Rt: isa.RegF0 + 1, Rd: isa.RegF0 + 7},
		{Op: isa.OpCEQS, Rs: isa.RegF0 + 1, Rt: isa.RegF0 + 1}, // fcc=1
		{Op: isa.OpBC1T, Imm: 1},                               // taken
		{Op: isa.OpNOP},
		{Op: isa.OpCLES, Rs: isa.RegF0 + 1, Rt: isa.RegF0 + 6}, // 5<=0? no
		{Op: isa.OpBC1F, Imm: 1},                               // taken
		{Op: isa.OpNOP},
		{Op: isa.OpLWC1, Rs: isa.RegGP, Rt: isa.RegF0 + 8, Imm: 0},
		{Op: isa.OpSWC1, Rs: isa.RegGP, Rt: isa.RegF0 + 5, Imm: 4},
		{Op: isa.OpSH, Rs: isa.RegGP, Rt: 8, Imm: 8},
		{Op: isa.OpLH, Rs: isa.RegGP, Rt: 19, Imm: 8},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if e.PC() != DefaultTextBase {
		t.Fatal("PC accessor")
	}
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.InstCount() == 0 || e.ExitCode() != 0 {
		t.Fatal("accessors")
	}
	checks := map[isa.Reg]uint32{
		9: 5, 11: 1, 12: 0, 13: 1, 14: 1,
		15: 0xffff_ffff, 24: 0x07ff_ffff, 25: 0xfa,
		16: ^uint32(5), 17: 0xffff_ffff / 5, 19: 5,
	}
	for r, want := range checks {
		if got := e.Reg(r); got != want {
			t.Errorf("reg %v = 0x%x, want 0x%x", r, got, want)
		}
	}
	if e.Reg(isa.RegF0+5) != e.Reg(isa.RegF0+1) {
		t.Error("FP move chain broken")
	}
	// sw via swc1 landed at gp+4.
	if e.Mem.Read32(DefaultDataBase+4) != e.Reg(isa.RegF0+5) {
		t.Error("swc1 value wrong")
	}
}

func TestDivCorners(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: 8, Rs: isa.RegZero, Imm: 7},
		{Op: isa.OpDIV, Rs: 8, Rt: isa.RegZero}, // div by zero: fixed values
		{Op: isa.OpMFLO, Rd: 9},
		{Op: isa.OpMFHI, Rd: 10},
		{Op: isa.OpLUI, Rt: 11, Imm: 0x8000}, // INT_MIN
		{Op: isa.OpADDIU, Rt: 12, Rs: isa.RegZero, Imm: -1},
		{Op: isa.OpDIV, Rs: 11, Rt: 12}, // overflow case
		{Op: isa.OpMFLO, Rd: 13},
		{Op: isa.OpDIVU, Rs: 8, Rt: isa.RegZero},
		{Op: isa.OpMFLO, Rd: 14},
	}
	insts = append(insts, exitSeq()...)
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if e.Reg(9) != ^uint32(0) || e.Reg(10) != 7 {
		t.Fatalf("div-by-zero convention: lo=%x hi=%x", e.Reg(9), e.Reg(10))
	}
	if e.Reg(13) != 0x8000_0000 {
		t.Fatalf("INT_MIN/-1 = %x", e.Reg(13))
	}
	if e.Reg(14) != ^uint32(0) {
		t.Fatalf("divu-by-zero = %x", e.Reg(14))
	}
}

func TestUnknownSyscallAndUnterminatedString(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: 99},
		{Op: isa.OpSYSCALL},
	}
	e := New(buildProg(t, insts...))
	if _, err := e.Run(0, nil); err == nil {
		t.Fatal("unknown syscall accepted")
	}
	// print_string on a string with no NUL within 1MB.
	m := NewMemory()
	for a := uint32(0); a < 1<<20+8; a++ {
		m.Write8(0x1000+a, 'x')
	}
	if _, err := m.ReadCString(0x1000); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestOutputCap(t *testing.T) {
	// Printing beyond MaxOutput truncates rather than grows.
	insts := []isa.Inst{
		{Op: isa.OpADDIU, Rt: isa.RegV0, Rs: isa.RegZero, Imm: SysPrintChar},
		{Op: isa.OpADDIU, Rt: isa.RegA0, Rs: isa.RegZero, Imm: 'x'},
		{Op: isa.OpSYSCALL},
		{Op: isa.OpBEQ, Imm: -4}, // loop forever
	}
	e := New(buildProg(t, insts...))
	e.MaxOutput = 10
	if _, err := e.Run(1000, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Output()) > 10 {
		t.Fatalf("output grew to %d bytes", len(e.Output()))
	}
}

// TestNewAllocBound: building an emulator for a short program allocates
// what the program uses, not the predecode window's 64 KB of slack
// (about 450 KB of uops when it was allocated whole), while the window
// a snapshot records keeps its geometry: text plus slack, in uops. The
// table covers the rest of the window only as execution reaches it.
func TestNewAllocBound(t *testing.T) {
	const n = 100
	text := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		in := isa.Inst{Op: isa.OpADDIU, Rs: isa.RegZero, Rt: isa.RegV0, Imm: 10}
		if i == n-1 {
			in = isa.Inst{Op: isa.OpSYSCALL}
		}
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	prog := &Program{Entry: DefaultTextBase, Segments: []Segment{
		{Addr: DefaultTextBase, Data: text},
		{Addr: DefaultDataBase, Data: make([]byte, 64)},
	}}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New(prog)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes", got)
	if got >= 64<<10 {
		t.Errorf("New allocated %d bytes for a %d-instruction program, want < 64 KB", got, n)
	}
	st, err := e.Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := (4*n + denseSlack + 3) >> 2; st.UBase != DefaultTextBase || st.ULen != want {
		t.Errorf("window %#x+%d uops, want %#x+%d", st.UBase, st.ULen, DefaultTextBase, want)
	}
	if len(e.utab) >= st.ULen {
		t.Errorf("New materialized %d of the window's %d uops", len(e.utab), st.ULen)
	}
	if _, err := e.Run(0, nil); err != nil || !e.Halted() || e.InstCount() != n {
		t.Fatalf("run: %v, halted %v after %d insts", err, e.Halted(), e.InstCount())
	}

	// A restored window is materialized on demand too, so a snapshot
	// claiming more than the largest window is refused, not trusted.
	for _, ulen := range []int{-1, denseMax>>2 + 1} {
		bad := *st
		bad.ULen = ulen
		if _, err := NewFromState(&bad); err == nil {
			t.Errorf("NewFromState accepted a %d-uop window", ulen)
		}
	}
}
