package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randInst generates a random but well-formed instruction for op.
func randInst(op Op, r *rand.Rand) Inst {
	gpr := func() Reg { return Reg(r.Intn(32)) }
	fpr := func() Reg { return RegF0 + Reg(r.Intn(32)) }
	imm := func() int32 { return int32(int16(r.Uint32())) }
	uimm := func() int32 { return int32(r.Uint32() & 0xffff) }
	in := Inst{Op: op}
	switch op {
	case OpADD, OpADDU, OpSUB, OpSUBU, OpSLT, OpSLTU,
		OpAND, OpOR, OpXOR, OpNOR, OpSLLV, OpSRLV, OpSRAV:
		in.Rs, in.Rt, in.Rd = gpr(), gpr(), gpr()
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU:
		in.Rs, in.Rt, in.Imm = gpr(), gpr(), imm()
	case OpANDI, OpORI, OpXORI, OpLUI:
		in.Rs, in.Rt, in.Imm = gpr(), gpr(), uimm()
		if op == OpLUI {
			in.Rs = 0
		}
	case OpSLL, OpSRL, OpSRA:
		in.Rt, in.Rd, in.Shamt = gpr(), gpr(), uint8(r.Intn(32))
	case OpMULT, OpMULTU, OpDIV, OpDIVU:
		in.Rs, in.Rt = gpr(), gpr()
	case OpMFHI, OpMFLO:
		in.Rd = gpr()
	case OpMTHI, OpMTLO, OpJR:
		in.Rs = gpr()
	case OpJALR:
		in.Rs, in.Rd = gpr(), gpr()
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpSB, OpSH, OpSW:
		in.Rs, in.Rt, in.Imm = gpr(), gpr(), imm()
	case OpLWC1, OpSWC1:
		in.Rs, in.Rt, in.Imm = gpr(), fpr(), imm()
	case OpBEQ, OpBNE:
		in.Rs, in.Rt, in.Imm = gpr(), gpr(), imm()
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		in.Rs, in.Imm = gpr(), imm()
	case OpJ, OpJAL:
		in.Target = r.Uint32() & 0x03ffffff
	case OpBC1T, OpBC1F:
		in.Imm = imm()
	case OpADDS, OpSUBS, OpMULS, OpDIVS:
		in.Rs, in.Rt, in.Rd = fpr(), fpr(), fpr()
	case OpSQRTS, OpABSS, OpNEGS, OpMOVS, OpCVTSW, OpCVTWS:
		in.Rs, in.Rd = fpr(), fpr()
	case OpCEQS, OpCLTS, OpCLES:
		in.Rs, in.Rt = fpr(), fpr()
	case OpMFC1:
		in.Rs, in.Rt = fpr(), gpr()
	case OpMTC1:
		in.Rt, in.Rd = gpr(), fpr()
	}
	return in
}

var allEncodableOps = []Op{
	OpADD, OpADDU, OpSUB, OpSUBU, OpADDI, OpADDIU, OpSLT, OpSLTU, OpSLTI,
	OpSLTIU, OpMULT, OpMULTU, OpDIV, OpDIVU, OpMFHI, OpMFLO, OpMTHI, OpMTLO,
	OpAND, OpOR, OpXOR, OpNOR, OpANDI, OpORI, OpXORI, OpLUI,
	OpSLL, OpSRL, OpSRA, OpSLLV, OpSRLV, OpSRAV,
	OpLB, OpLBU, OpLH, OpLHU, OpLW, OpSB, OpSH, OpSW, OpLWC1, OpSWC1,
	OpBEQ, OpBNE, OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ, OpJ, OpJAL, OpJR, OpJALR,
	OpBC1T, OpBC1F,
	OpADDS, OpSUBS, OpMULS, OpDIVS, OpSQRTS, OpABSS, OpNEGS, OpMOVS,
	OpCVTSW, OpCVTWS, OpCEQS, OpCLTS, OpCLES, OpMFC1, OpMTC1,
	OpSYSCALL, OpBREAK, OpNOP,
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, op := range allEncodableOps {
		for trial := 0; trial < 64; trial++ {
			want := randInst(op, r)
			word, err := Encode(want)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			got, err := Decode(word)
			if err != nil {
				t.Fatalf("%v: decode 0x%08x: %v", op, word, err)
			}
			// SLL r0,r0,0 is the canonical NOP encoding.
			if want.Op == OpSLL && want.Rt == 0 && want.Rd == 0 && want.Shamt == 0 {
				if got.Op != OpNOP {
					t.Fatalf("sll $0,$0,0 should decode to nop, got %v", got)
				}
				continue
			}
			if got != want {
				t.Fatalf("%v roundtrip mismatch:\n want %+v\n got  %+v (word 0x%08x)",
					op, want, got, word)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := []uint32{
		0xfc000000,            // unused primary opcode 63
		popSpecial<<26 | 63,   // unused funct
		popRegimm<<26 | 5<<16, // unused regimm selector
	}
	for _, w := range bad {
		if in, err := Decode(w); err == nil {
			t.Errorf("Decode(0x%08x) = %v, want error", w, in)
		}
	}
}

func TestNopEncodesToZero(t *testing.T) {
	w, err := Encode(Inst{Op: OpNOP})
	if err != nil || w != 0 {
		t.Fatalf("Encode(nop) = 0x%08x, %v; want 0", w, err)
	}
}

func TestSourcesAndDest(t *testing.T) {
	cases := []struct {
		in   Inst
		srcs []Reg
		dst  Reg
	}{
		{Inst{Op: OpADDU, Rs: 2, Rt: 3, Rd: 4}, []Reg{2, 3}, 4},
		{Inst{Op: OpADDIU, Rs: 2, Rt: 3, Imm: 5}, []Reg{2}, 3},
		{Inst{Op: OpADDU, Rs: 0, Rt: 3, Rd: 4}, []Reg{3}, 4}, // $zero dropped
		{Inst{Op: OpLUI, Rt: 7, Imm: 0x1002}, nil, 7},
		{Inst{Op: OpLW, Rs: 29, Rt: 8, Imm: 4}, []Reg{29}, 8},
		{Inst{Op: OpSW, Rs: 29, Rt: 8, Imm: 4}, []Reg{29, 8}, RegZero},
		{Inst{Op: OpBEQ, Rs: 5, Rt: 6}, []Reg{5, 6}, RegZero},
		{Inst{Op: OpJAL, Target: 64}, nil, RegRA},
		{Inst{Op: OpJR, Rs: 31}, []Reg{31}, RegZero},
		{Inst{Op: OpMULT, Rs: 4, Rt: 5}, []Reg{4, 5}, RegLO},
		{Inst{Op: OpMFLO, Rd: 9}, []Reg{RegLO}, 9},
		{Inst{Op: OpSLL, Rt: 3, Rd: 4, Shamt: 2}, []Reg{3}, 4},
		{Inst{Op: OpCEQS, Rs: RegF0, Rt: RegF0 + 1}, []Reg{RegF0, RegF0 + 1}, RegFCC},
		{Inst{Op: OpBC1T}, []Reg{RegFCC}, RegZero},
	}
	for _, c := range cases {
		got := c.in.Sources()
		if len(got) != len(c.srcs) {
			t.Errorf("%v Sources() = %v, want %v", c.in.Op, got, c.srcs)
			continue
		}
		for i := range got {
			if got[i] != c.srcs[i] {
				t.Errorf("%v Sources() = %v, want %v", c.in.Op, got, c.srcs)
			}
		}
		if d := c.in.Dest(); d != c.dst {
			t.Errorf("%v Dest() = %v, want %v", c.in.Op, d, c.dst)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !OpLW.IsLoad() || OpLW.IsStore() || !OpSW.IsStore() {
		t.Fatal("load/store predicates wrong")
	}
	if !OpBEQ.IsBranch() || !OpBEQ.IsControl() || OpJ.IsBranch() || !OpJ.IsControl() {
		t.Fatal("branch/control predicates wrong")
	}
	if OpLW.MemSize() != 4 || OpLH.MemSize() != 2 || OpSB.MemSize() != 1 ||
		OpADD.MemSize() != 0 {
		t.Fatal("MemSize wrong")
	}
	if OpMULT.Class() != ClassIntMul || OpDIVU.Class() != ClassIntDiv ||
		OpSQRTS.Class() != ClassFPMulDiv || OpSYSCALL.Class() != ClassSyscall {
		t.Fatal("Class wrong")
	}
}

func TestSliceProfiles(t *testing.T) {
	cases := map[Op]SliceProfile{
		OpAND: SliceLogic, OpORI: SliceLogic, OpLUI: SliceLogic,
		OpADDU: SliceCarry, OpSUB: SliceCarry, OpLW: SliceCarry, OpSW: SliceCarry,
		OpSLT: SliceCompareLow, OpBLEZ: SliceCompareLow,
		OpSLL: SliceShiftLeft, OpSRAV: SliceShiftRight,
		OpMULT: SliceSerialMul, OpDIV: SliceFullWidth, OpADDS: SliceFullWidth,
		OpBEQ: SliceLogic, OpJR: SliceFullWidth,
	}
	for op, want := range cases {
		if got := op.SliceProfile(); got != want {
			t.Errorf("%v.SliceProfile() = %v, want %v", op, got, want)
		}
	}
	if !OpBEQ.EqualityBranch() || !OpBNE.EqualityBranch() || OpBLEZ.EqualityBranch() {
		t.Fatal("EqualityBranch wrong")
	}
	if !OpBGEZ.NeedsSignBit() || OpBEQ.NeedsSignBit() {
		t.Fatal("NeedsSignBit wrong")
	}
}

func TestInputSliceRange(t *testing.T) {
	type rng struct {
		lo, hi int
		carry  bool
	}
	// want[profile][nSlices] lists the requirement of each output slice.
	want := map[SliceProfile]map[int][]rng{
		SliceLogic: {
			2: {{0, 1, false}, {1, 2, false}},
			4: {{0, 1, false}, {1, 2, false}, {2, 3, false}, {3, 4, false}},
		},
		SliceCarry: {
			2: {{0, 1, false}, {1, 2, true}},
			4: {{0, 1, false}, {1, 2, true}, {2, 3, true}, {3, 4, true}},
		},
		SliceCompareLow: {
			2: {{0, 2, false}, {0, 0, false}},
			4: {{0, 4, false}, {0, 0, false}, {0, 0, false}, {0, 0, false}},
		},
		SliceShiftLeft: {
			2: {{0, 1, false}, {0, 2, false}},
			4: {{0, 1, false}, {0, 2, false}, {0, 3, false}, {0, 4, false}},
		},
		SliceShiftRight: {
			2: {{0, 2, false}, {1, 2, false}},
			4: {{0, 4, false}, {1, 4, false}, {2, 4, false}, {3, 4, false}},
		},
		SliceSerialMul: {
			2: {{0, 2, false}, {0, 2, false}},
			4: {{0, 4, false}, {0, 4, false}, {0, 4, false}, {0, 4, false}},
		},
		SliceFullWidth: {
			2: {{0, 2, false}, {0, 2, false}},
			4: {{0, 4, false}, {0, 4, false}, {0, 4, false}, {0, 4, false}},
		},
	}
	for p := SliceLogic; p <= SliceFullWidth; p++ {
		for _, n := range []int{2, 4} {
			rs, ok := want[p][n]
			if !ok || len(rs) != n {
				t.Fatalf("profile %d x%d: table incomplete", p, n)
			}
			for out, w := range rs {
				lo, hi, carry := p.InputSliceRange(out, n)
				if lo != w.lo || hi != w.hi || carry != w.carry {
					t.Errorf("profile %d x%d slice %d: got [%d,%d) carry=%v, want [%d,%d) carry=%v",
						p, n, out, lo, hi, carry, w.lo, w.hi, w.carry)
				}
			}
		}
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		0: "$zero", 2: "$v0", 29: "$sp", 31: "$ra",
		RegHI: "$hi", RegLO: "$lo", RegF0 + 2: "$f2", RegFCC: "$fcc",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestGPRByName(t *testing.T) {
	for _, c := range []struct {
		name string
		reg  Reg
		ok   bool
	}{
		{"$t0", 8, true}, {"t0", 8, true}, {"$31", 31, true}, {"5", 5, true},
		{"$zero", 0, true}, {"$f2", 0, false}, {"$xx", 0, false}, {"32", 0, false},
		{"", 0, false},
	} {
		r, ok := GPRByName(c.name)
		if ok != c.ok || (ok && r != c.reg) {
			t.Errorf("GPRByName(%q) = %v,%v; want %v,%v", c.name, r, ok, c.reg, c.ok)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for _, op := range allEncodableOps {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v", op.String(), got, ok)
		}
	}
}

// Property: decoding any encodable word never panics and re-encoding a
// successfully decoded instruction reproduces the word (for canonical
// encodings produced by Encode).
func TestQuickEncodeStability(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(opIdx uint8, seed int64) bool {
		op := allEncodableOps[int(opIdx)%len(allEncodableOps)]
		in := randInst(op, r)
		w1, err := Encode(in)
		if err != nil {
			return false
		}
		dec, err := Decode(w1)
		if err != nil {
			return false
		}
		w2, err := Encode(dec)
		return err == nil && w1 == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDisassembly checks the printable form of every instruction format.
func TestDisassembly(t *testing.T) {
	cases := map[string]Inst{
		"addu $t2,$t0,$t1":  {Op: OpADDU, Rd: 10, Rs: 8, Rt: 9},
		"sllv $t2,$t1,$t0":  {Op: OpSLLV, Rd: 10, Rt: 9, Rs: 8},
		"addiu $t1,$t0,-4":  {Op: OpADDIU, Rt: 9, Rs: 8, Imm: -4},
		"lui $t0,0x1002":    {Op: OpLUI, Rt: 8, Imm: 0x1002},
		"sll $t1,$t0,3":     {Op: OpSLL, Rd: 9, Rt: 8, Shamt: 3},
		"mult $t0,$t1":      {Op: OpMULT, Rs: 8, Rt: 9},
		"mflo $t0":          {Op: OpMFLO, Rd: 8},
		"mthi $t0":          {Op: OpMTHI, Rs: 8},
		"jr $ra":            {Op: OpJR, Rs: RegRA},
		"jalr $t0,$t1":      {Op: OpJALR, Rd: 8, Rs: 9},
		"lw $t0,8($sp)":     {Op: OpLW, Rt: 8, Rs: RegSP, Imm: 8},
		"sb $t0,-1($sp)":    {Op: OpSB, Rt: 8, Rs: RegSP, Imm: -1},
		"beq $t0,$t1,-3":    {Op: OpBEQ, Rs: 8, Rt: 9, Imm: -3},
		"blez $t0,5":        {Op: OpBLEZ, Rs: 8, Imm: 5},
		"j 0x100":           {Op: OpJ, Target: 0x100},
		"bc1t 2":            {Op: OpBC1T, Imm: 2},
		"mfc1 $t0,$f2":      {Op: OpMFC1, Rt: 8, Rs: RegF0 + 2},
		"mtc1 $t0,$f2":      {Op: OpMTC1, Rt: 8, Rd: RegF0 + 2},
		"add.s $f3,$f1,$f2": {Op: OpADDS, Rd: RegF0 + 3, Rs: RegF0 + 1, Rt: RegF0 + 2},
		"nop":               {Op: OpNOP},
		"syscall":           {Op: OpSYSCALL},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	// Every encodable op has a printable, non-panicking form.
	for _, op := range allEncodableOps {
		in := Inst{Op: op, Rs: 1, Rt: 2, Rd: 3, Imm: 4, Target: 5}
		if in.String() == "" {
			t.Errorf("%v prints empty", op)
		}
	}
	if Op(250).String() == "" || Reg(200).String() == "" {
		t.Error("unknown op/reg must still print")
	}
}

// TestSourcesDestSweep drives Sources/Dest across every encodable op to
// guarantee no panics and basic sanity ($zero never appears, at most one
// explicit destination plus HI for multiply/divide).
func TestSourcesDestSweep(t *testing.T) {
	for _, op := range allEncodableOps {
		in := Inst{Op: op, Rs: 4, Rt: 5, Rd: 6}
		if op == OpMFC1 || op == OpSQRTS || op == OpADDS {
			in.Rs = RegF0 + 4
		}
		for _, s := range in.Sources() {
			if s == RegZero {
				t.Errorf("%v: Sources contains $zero", op)
			}
		}
		_ = in.Dest()
	}
}

// TestGoldenMIPSEncodings pins our binary format against real MIPS-I
// machine words (cross-checked with standard assembler output).
func TestGoldenMIPSEncodings(t *testing.T) {
	golden := map[uint32]Inst{
		0x01095021: {Op: OpADDU, Rd: 10, Rs: 8, Rt: 9},   // addu $t2,$t0,$t1
		0x8fa80004: {Op: OpLW, Rt: 8, Rs: RegSP, Imm: 4}, // lw $t0,4($sp)
		0xafa80004: {Op: OpSW, Rt: 8, Rs: RegSP, Imm: 4}, // sw $t0,4($sp)
		0x11090001: {Op: OpBEQ, Rs: 8, Rt: 9, Imm: 1},    // beq $t0,$t1,+1
		0x0c100000: {Op: OpJAL, Target: 0x100000},        // jal 0x400000
		0x00094080: {Op: OpSLL, Rd: 8, Rt: 9, Shamt: 2},  // sll $t0,$t1,2
		0x3c011001: {Op: OpLUI, Rt: 1, Imm: 0x1001},      // lui $at,0x1001
		0x25080001: {Op: OpADDIU, Rt: 8, Rs: 8, Imm: 1},  // addiu $t0,$t0,1
		0x03e00008: {Op: OpJR, Rs: RegRA},                // jr $ra
		0x0000000c: {Op: OpSYSCALL},                      // syscall
		0x01094824: {Op: OpAND, Rd: 9, Rs: 8, Rt: 9},     // and $t1,$t0,$t1
		0x0109001a: {Op: OpDIV, Rs: 8, Rt: 9},            // div $t0,$t1
	}
	for word, in := range golden {
		got, err := Encode(in)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		if got != word {
			t.Errorf("%v encodes to 0x%08x, real MIPS is 0x%08x", in, got, word)
		}
		dec, err := Decode(word)
		if err != nil || dec != in {
			t.Errorf("0x%08x decodes to %+v (%v), want %+v", word, dec, err, in)
		}
	}
}
