package asm

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pok/internal/emu"
	"pok/internal/isa"
)

// run assembles source, executes it to completion and returns the emulator.
func run(t *testing.T, source string) *emu.Emulator {
	t.Helper()
	prog, err := Assemble(source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e := emu.New(prog)
	if _, err := e.Run(5_000_000, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !e.Halted() {
		t.Fatal("program did not halt")
	}
	return e
}

const exitAsm = `
	li $v0, 10
	syscall
`

func TestHelloWorld(t *testing.T) {
	e := run(t, `
.data
msg: .asciiz "hello, world\n"
.text
main:
	li $v0, 4
	la $a0, msg
	syscall
`+exitAsm)
	if e.Output() != "hello, world\n" {
		t.Fatalf("output = %q", e.Output())
	}
}

func TestArithmeticPseudos(t *testing.T) {
	e := run(t, `
main:
	li $t0, 6
	li $t1, 7
	mul $t2, $t0, $t1     # 42
	li $t3, 100
	div $t4, $t3, $t1     # 14
	rem $t5, $t3, $t1     # 2
	move $t6, $t2
	not $t7, $zero        # 0xffffffff
	neg $t8, $t0          # -6
	li $s0, 0x12345678    # 32-bit li
	li $s1, 40000         # fits unsigned 16 only
	li $s2, -5
`+exitAsm)
	checks := map[isa.Reg]uint32{
		10: 42, 12: 14, 13: 2, 14: 42,
		15: 0xffff_ffff, 24: 0xffff_fffa,
		16: 0x1234_5678, 17: 40000, 18: 0xffff_fffb,
	}
	for r, want := range checks {
		if got := e.Reg(r); got != want {
			t.Errorf("%v = 0x%x, want 0x%x", r, got, want)
		}
	}
}

func TestBranchPseudosAndLoops(t *testing.T) {
	// Count down with blt/bge family; compute fib(10) iteratively.
	e := run(t, `
main:
	li $t0, 0     # a
	li $t1, 1     # b
	li $t2, 10    # n
	li $t3, 0     # i
fib:
	bge $t3, $t2, done
	addu $t4, $t0, $t1
	move $t0, $t1
	move $t1, $t4
	addiu $t3, $t3, 1
	b fib
done:
	# $t0 = fib(10) = 55
	li $t5, 3
	li $t6, 5
	blt $t5, $t6, less
	li $t7, 0
	b out
less:
	li $t7, 1
out:
	bgt $t6, $t5, gtr
	li $s0, 0
	b out2
gtr:
	li $s0, 1
out2:
	ble $t5, $t5, leq
	li $s1, 0
	b out3
leq:
	li $s1, 1
out3:
	beqz $zero, z1
	li $s2, 0
	b out4
z1:
	li $s2, 1
out4:
	bnez $t5, nz1
	li $s3, 0
	b out5
nz1:
	li $s3, 1
out5:
`+exitAsm)
	if e.Reg(8) != 55 {
		t.Fatalf("fib(10) = %d, want 55", e.Reg(8))
	}
	for _, r := range []isa.Reg{15, 16, 17, 18, 19} {
		if e.Reg(r) != 1 {
			t.Errorf("branch pseudo result %v = %d, want 1", r, e.Reg(r))
		}
	}
}

func TestUnsignedBranchPseudos(t *testing.T) {
	e := run(t, `
main:
	li $t0, -1        # 0xffffffff: huge unsigned
	li $t1, 1
	bltu $t1, $t0, a  # 1 <u 0xffffffff -> taken
	li $s0, 0
	b next
a:	li $s0, 1
next:
	bgtu $t0, $t1, c
	li $s1, 0
	b next2
c:	li $s1, 1
next2:
`+exitAsm)
	if e.Reg(16) != 1 || e.Reg(17) != 1 {
		t.Fatalf("unsigned branches: %d %d", e.Reg(16), e.Reg(17))
	}
}

func TestDataDirectives(t *testing.T) {
	e := run(t, `
.data
words:  .word 1, -2, 0x30, sym
bytes:  .byte 'a', 'b', 0
halves: .half 0x1234, 0x5678
        .align 3
sym:    .space 8
str:    .ascii "ab"
str2:   .asciiz "cd"
.text
main:
	la $t0, words
	lw $t1, 0($t0)
	lw $t2, 4($t0)
	lw $t3, 8($t0)
	lw $t4, 12($t0)   # address of sym
	la $t5, bytes
	lbu $t6, 1($t5)   # 'b'
	la $t7, halves
	lhu $s0, 2($t7)   # 0x5678
	la $s1, sym
`+exitAsm)
	if e.Reg(9) != 1 || int32(e.Reg(10)) != -2 || e.Reg(11) != 0x30 {
		t.Fatalf("words: %d %d %d", e.Reg(9), int32(e.Reg(10)), e.Reg(11))
	}
	if e.Reg(12) != e.Reg(17) {
		t.Fatalf("sym pointer %x != la %x", e.Reg(12), e.Reg(17))
	}
	if e.Reg(17)%8 != 0 {
		t.Fatalf("sym not 8-aligned: %x", e.Reg(17))
	}
	if e.Reg(14) != 'b' || e.Reg(16) != 0x5678 {
		t.Fatalf("bytes/halves: %x %x", e.Reg(14), e.Reg(16))
	}
}

func TestCallAndStack(t *testing.T) {
	e := run(t, `
# Recursive factorial via the stack.
main:
	li $a0, 6
	jal fact
	move $s0, $v0
	li $v0, 10
	syscall
fact:
	addiu $sp, $sp, -8
	sw $ra, 4($sp)
	sw $a0, 0($sp)
	li $v0, 1
	blez $a0, fbase
	addiu $a0, $a0, -1
	jal fact
	lw $a0, 0($sp)
	mul $v0, $v0, $a0
fbase:
	lw $ra, 4($sp)
	addiu $sp, $sp, 8
	jr $ra
`)
	if e.Reg(16) != 720 {
		t.Fatalf("6! = %d, want 720", e.Reg(16))
	}
}

func TestMemOperandForms(t *testing.T) {
	e := run(t, `
.data
v: .word 11, 22
.text
main:
	la $t0, v
	lw $t1, ($t0)      # empty offset
	lw $t2, 4($t0)
	la $t3, v+4        # symbol arithmetic via la
	lw $t4, 0($t3)
`+exitAsm)
	if e.Reg(9) != 11 || e.Reg(10) != 22 || e.Reg(12) != 22 {
		t.Fatalf("mem operands: %d %d %d", e.Reg(9), e.Reg(10), e.Reg(12))
	}
	// Offsets larger than 16 bits must be rejected.
	if _, err := Assemble("main:\n\tlw $t0, 0x10000004($zero)\n"); err == nil {
		t.Fatal("expected out-of-range offset error")
	}
}

func TestFloatingPointAsm(t *testing.T) {
	e := run(t, `
main:
	li.s $f1, 2.5
	li.s $f2, 4.0
	add.s $f3, $f1, $f2
	mul.s $f4, $f3, $f2    # 26.0
	cvt.w.s $f5, $f4
	mfc1 $t0, $f5
	c.lt.s $f1, $f2
	bc1t yes
	li $t1, 0
	b end
yes:
	li $t1, 1
end:
`+exitAsm)
	if e.Reg(8) != 26 {
		t.Fatalf("fp = %d, want 26", e.Reg(8))
	}
	if e.Reg(9) != 1 {
		t.Fatal("bc1t not taken")
	}
}

func TestJalr(t *testing.T) {
	e := run(t, `
main:
	la $t0, target
	jalr $t1, $t0
after:
	li $v0, 10
	syscall
target:
	li $s0, 9
	jr $t1
`)
	if e.Reg(16) != 9 {
		t.Fatalf("jalr result = %d", e.Reg(16))
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"dup label":      "x:\nx:\n" + exitAsm,
		"bad mnemonic":   "main:\n\tfrobnicate $t0\n",
		"bad register":   "main:\n\tadd $t0, $qq, $t1\n",
		"undef symbol":   "main:\n\tla $t0, nosuch\n",
		"operand count":  "main:\n\tadd $t0, $t1\n",
		"bad directive":  ".frob 3\n",
		"bad shamt":      "main:\n\tsll $t0, $t1, 99\n",
		"data inst":      ".data\n\tadd $t0, $t1, $t2\n",
		"mem no parens":  "main:\n\tlw $t0, faraway\nfaraway: .word 0\n",
		"bad string":     `.data` + "\ns: .asciiz unquoted\n",
		"branch too far": "main:\n\tbeq $t0, $t1, far\n.text 0x500000\nfar:\n" + exitAsm,
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("%s: error %q lacks line info", name, err)
		}
	}
}

func TestCommentsAndLabelsOnSameLine(t *testing.T) {
	e := run(t, `
# full line comment
main: li $t0, 1  # trailing comment
      li $t1, '#'   ; alt comment
`+exitAsm)
	if e.Reg(8) != 1 || e.Reg(9) != '#' {
		t.Fatalf("got %d %d", e.Reg(8), e.Reg(9))
	}
}

func TestSymbolsExported(t *testing.T) {
	prog, err := Assemble(`
.data
d1: .word 5
.text
main:
	nop
f:
	nop
` + exitAsm)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Symbols["main"] != emu.DefaultTextBase {
		t.Fatalf("main at 0x%x", prog.Symbols["main"])
	}
	if prog.Symbols["f"] != emu.DefaultTextBase+4 {
		t.Fatalf("f at 0x%x", prog.Symbols["f"])
	}
	if prog.Symbols["d1"] != emu.DefaultDataBase {
		t.Fatalf("d1 at 0x%x", prog.Symbols["d1"])
	}
	if prog.Entry != prog.Symbols["main"] {
		t.Fatal("entry != main")
	}
}

func TestEntryDefaultsToTextStart(t *testing.T) {
	prog, err := Assemble("start:\n\tnop\n" + exitAsm)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Entry != emu.DefaultTextBase {
		t.Fatalf("entry = 0x%x", prog.Entry)
	}
}

func TestExplicitSectionAddresses(t *testing.T) {
	prog, err := Assemble(`
.text 0x00500000
main:
	nop
` + exitAsm + `
.data 0x11000000
x: .word 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Symbols["main"] != 0x0050_0000 || prog.Symbols["x"] != 0x1100_0000 {
		t.Fatalf("symbols: %x %x", prog.Symbols["main"], prog.Symbols["x"])
	}
}

func TestFloatDirective(t *testing.T) {
	e := run(t, `
.data
vals: .float 1.5, -2.25
.text
main:
	la $t0, vals
	l.s $f1, 0($t0)
	l.s $f2, 4($t0)
	add.s $f3, $f1, $f2    # -0.75
	li.s $f4, -0.75
	c.eq.s $f3, $f4
	bc1t ok
	li $s0, 0
	b end
ok:
	li $s0, 1
end:
`+exitAsm)
	if e.Reg(16) != 1 {
		t.Fatal(".float values wrong")
	}
	if _, err := Assemble(".data\nx: .float nope\n"); err == nil {
		t.Fatal("bad float accepted")
	}
}

// TestMoreErrors drives the remaining operand-shape error paths.
func TestMoreErrors(t *testing.T) {
	cases := map[string]string{
		"rrr bad count":   "main:\n\taddu $t0, $t1\n",
		"rvv bad reg":     "main:\n\tsllv $t0, $t1, $zz\n",
		"rri bad reg":     "main:\n\taddiu $q, $t1, 1\n",
		"ri bad":          "main:\n\tlui $qq, 1\n",
		"mem bad reg":     "main:\n\tlw $qq, 0($t0)\n",
		"mem bad base":    "main:\n\tlw $t0, 0($qq)\n",
		"branch bad reg":  "main:\n\tbeq $qq, $t0, main\n",
		"rb bad reg":      "main:\n\tblez $qq, main\n",
		"jmp undef":       "main:\n\tj nowhere\n",
		"jalr 3 args":     "main:\n\tjalr $t0, $t1, $t2\n",
		"fff bad":         "main:\n\tadd.s $f1, $t0, $f2\n",
		"ff bad":          "main:\n\tsqrt.s $t0, $f1\n",
		"ffc bad":         "main:\n\tc.eq.s $t0, $f1\n",
		"rf bad":          "main:\n\tmfc1 $f0, $f1\n",
		"li bad reg":      "main:\n\tli $qq, 5\n",
		"li bad imm":      "main:\n\tli $t0, banana\n",
		"la bad reg":      "main:\n\tla $qq, main\n",
		"la undef":        "main:\n\tla $t0, nosuchsym\n",
		"li.s bad":        "main:\n\tli.s $f1, pie\n",
		"move bad":        "main:\n\tmove $t0, $qq\n",
		"blt bad":         "main:\n\tblt $t0, $qq, main\n",
		"mul bad":         "main:\n\tmul $t0, $qq, $t1\n",
		"beqz bad":        "main:\n\tbeqz $qq, main\n",
		"b undef":         "main:\n\tb nowhere\n",
		"mult count":      "main:\n\tmult $t0\n",
		"mfhi count":      "main:\n\tmfhi\n",
		"word undef sym":  ".data\nw: .word nosuch\n",
		"align bad":       ".data\n.align x\n",
		"space bad":       ".data\n.space x\n",
		"text bad addr":   ".text banana\nmain:\n\tnop\n",
		"data bad addr":   ".data banana\n",
		"ascii bad count": ".data\ns: .ascii \"a\", \"b\"\n",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestPseudoDivForms covers 2- and 3-operand div plus remu.
func TestPseudoDivForms(t *testing.T) {
	e := run(t, `
main:
	li $t0, 100
	li $t1, 9
	div $t0, $t1        # real divide: lo/hi
	mflo $t2            # 11
	mfhi $t3            # 1
	remu $t4, $t0, $t1  # 1
`+exitAsm)
	if e.Reg(10) != 11 || e.Reg(11) != 1 || e.Reg(12) != 1 {
		t.Fatalf("div forms: %d %d %d", e.Reg(10), e.Reg(11), e.Reg(12))
	}
}

// TestSpaceAllocBound: a 64 KB .space grows its segment in one step, so
// assembling it allocates a small multiple of the image rather than one
// growth per zero byte, and the image holds the bytes around it intact.
func TestSpaceAllocBound(t *testing.T) {
	const arena = 64 << 10
	src := fmt.Sprintf(`
.data
head:  .word 0x11223344
arena: .space %d
tail:  .word 0x55667788
.text
main:`+exitAsm, arena)
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4+arena+4)
	copy(want, []byte{0x44, 0x33, 0x22, 0x11})
	copy(want[4+arena:], []byte{0x88, 0x77, 0x66, 0x55})
	var data []byte
	for _, s := range prog.Segments {
		if s.Addr == prog.Symbols["head"] {
			data = s.Data
		}
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("data segment of %d bytes differs from the %d-byte image", len(data), len(want))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Assemble(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(want)) {
		t.Fatalf("assembling a %d-byte image allocates %d bytes, want at most %d",
			len(want), got, 4*len(want))
	}
}
