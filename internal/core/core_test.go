package core

import (
	"fmt"
	"strings"
	"testing"

	"pok/internal/asm"
	"pok/internal/emu"
	"pok/internal/workload"
)

func mustProg(t *testing.T, src string) *emu.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// chainProg builds a loop whose body is a serial dependence chain of
// body single-cycle ALU ops (looping keeps the I-cache warm).
func chainProg(t *testing.T, iters, body int) *emu.Program {
	var b strings.Builder
	b.WriteString("main:\n\tli $t0, 1\n\tli $t1, 1\n")
	fmt.Fprintf(&b, "\tli $s0, %d\nloop:\n", iters)
	for i := 0; i < body; i++ {
		b.WriteString("\taddu $t0, $t0, $t1\n")
	}
	b.WriteString("\taddiu $s0, $s0, -1\n\tbne $s0, $zero, loop\n")
	b.WriteString("\tli $v0, 10\n\tsyscall\n")
	return mustProg(t, b.String())
}

// independentProg builds a loop whose body is 8 independent chains —
// enough instruction-level parallelism to hide a 2-cycle ALU latency on a
// 4-wide machine.
func independentProg(t *testing.T, iters, body int) *emu.Program {
	var b strings.Builder
	b.WriteString("main:\n\tli $s1, 1\n")
	fmt.Fprintf(&b, "\tli $s0, %d\nloop:\n", iters)
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"}
	for i := 0; i < body; i++ {
		r := regs[i%len(regs)]
		b.WriteString("\taddu " + r + ", " + r + ", $s1\n")
	}
	b.WriteString("\taddiu $s0, $s0, -1\n\tbne $s0, $zero, loop\n")
	b.WriteString("\tli $v0, 10\n\tsyscall\n")
	return mustProg(t, b.String())
}

func run(t *testing.T, prog *emu.Program, cfg Config) *Result {
	t.Helper()
	r, err := Run(prog, cfg, 0)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return r
}

// TestDependentChainLatencies verifies the paper's core premise: naive
// pipelining of the execution stage stretches dependence chains by the
// slice count, and partial operand bypassing recovers them.
func TestDependentChainLatencies(t *testing.T) {
	prog := func() *emu.Program { return chainProg(t, 400, 16) }

	base := run(t, prog(), BaseConfig())
	if base.IPC < 0.95 || base.IPC > 1.35 {
		t.Fatalf("base chain IPC = %.3f, want ~1.1", base.IPC)
	}

	simple2 := run(t, prog(), SimplePipelined(2))
	if r := base.IPC / simple2.IPC; r < 1.7 || r > 2.2 {
		t.Fatalf("simple-pipe-x2 chain IPC = %.3f (base %.3f), want ~half",
			simple2.IPC, base.IPC)
	}

	simple4 := run(t, prog(), SimplePipelined(4))
	if r := base.IPC / simple4.IPC; r < 3.0 || r > 4.5 {
		t.Fatalf("simple-pipe-x4 chain IPC = %.3f (base %.3f), want ~quarter",
			simple4.IPC, base.IPC)
	}

	cfg2 := SimplePipelined(2)
	cfg2.Name = "bypass-x2"
	cfg2.PartialBypass = true
	bypass2 := run(t, prog(), cfg2)
	if bypass2.IPC < 0.9*base.IPC {
		t.Fatalf("partial bypassing x2 chain IPC = %.3f, want ~%.3f",
			bypass2.IPC, base.IPC)
	}

	cfg4 := SimplePipelined(4)
	cfg4.Name = "bypass-x4"
	cfg4.PartialBypass = true
	bypass4 := run(t, prog(), cfg4)
	if bypass4.IPC < 0.85*base.IPC {
		t.Fatalf("partial bypassing x4 chain IPC = %.3f, want ~%.3f",
			bypass4.IPC, base.IPC)
	}
}

// TestIndependentInstructionsHideLatency: with 4 independent chains the
// pipelined execution stage costs (almost) nothing even without partial
// operand knowledge — throughput, not latency, is the limit.
func TestIndependentInstructionsHideLatency(t *testing.T) {
	base := run(t, independentProg(t, 300, 16), BaseConfig())
	simple2 := run(t, independentProg(t, 300, 16), SimplePipelined(2))
	if base.IPC < 2.5 {
		t.Fatalf("base independent IPC = %.3f, want ~3-4", base.IPC)
	}
	if simple2.IPC < 0.9*base.IPC {
		t.Fatalf("independent code slowed by pipelining: %.3f vs %.3f",
			simple2.IPC, base.IPC)
	}
}

// TestLogicChainOutOfOrderSlices: a chain of xors has no carry chain, so
// with partial bypassing each link still costs one cycle per slice wave;
// out-of-order slices cannot make it worse.
func TestLogicChainConfigsRun(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\n\tli $t0, 0x1234\n\tli $t1, 0x00ff\n\tli $s0, 300\nloop:\n")
	for i := 0; i < 16; i++ {
		b.WriteString("\txor $t0, $t0, $t1\n")
	}
	b.WriteString("\taddiu $s0, $s0, -1\n\tbne $s0, $zero, loop\n")
	b.WriteString("\tli $v0, 10\n\tsyscall\n")
	prog := b.String()

	cfg := BitSliced(2)
	r := run(t, mustProg(t, prog), cfg)
	if r.IPC < 0.9 {
		t.Fatalf("bit-sliced logic chain IPC = %.3f", r.IPC)
	}
}

func TestBudgetLimitsInstructions(t *testing.T) {
	// Endless loop; the budget must stop the run.
	prog := mustProg(t, "main:\n\tb main\n")
	r, err := Run(prog, BaseConfig(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 500 {
		t.Fatalf("committed %d, want 500", r.Insts)
	}
}

func TestCountersAndAccuracy(t *testing.T) {
	src := `
.data
v: .word 0
.text
main:
	li $t0, 200
	la $t1, v
loop:
	lw $t2, 0($t1)
	addiu $t2, $t2, 1
	sw $t2, 0($t1)
	addiu $t0, $t0, -1
	bne $t0, $zero, loop
	li $v0, 10
	syscall
`
	r := run(t, mustProg(t, src), BaseConfig())
	if r.Loads < 200 || r.Stores < 200 {
		t.Fatalf("loads=%d stores=%d", r.Loads, r.Stores)
	}
	if r.Branches < 200 || r.BranchAccuracy < 0.9 {
		t.Fatalf("branches=%d acc=%.2f", r.Branches, r.BranchAccuracy)
	}
	if r.Insts == 0 || r.Cycles == 0 || r.IPC <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
}

func TestStoreForwarding(t *testing.T) {
	// A tight store->load same-address pattern must forward, not stall.
	// The store data comes off a multiply (slow), so the same-address load
	// must wait in the LSQ and then forward from the store.
	src := `
.data
v: .space 64
.text
main:
	li $t0, 500
	la $t1, v
	li $t3, 3
loop:
	mult $t0, $t3
	mflo $t4
	sw $t4, 0($t1)
	lw $t2, 0($t1)
	addiu $t0, $t0, -1
	bne $t0, $zero, loop
	li $v0, 10
	syscall
`
	cfg := BitSliced(2)
	r := run(t, mustProg(t, src), cfg)
	if r.StoreForwards < 400 {
		t.Fatalf("forwards = %d, want ~500", r.StoreForwards)
	}
}

// TestEarlyBranchResolutionHelps: a branch-mispredict-heavy kernel whose
// comparisons differ in the low bits should resolve faster with early
// branch resolution, reducing total cycles.
func TestEarlyBranchResolutionHelps(t *testing.T) {
	// Data-dependent unpredictable branch: tests the low bit of an LCG.
	src := `
main:
	li $s0, 3000
	li $s7, 12345
loop:
	li $t8, 1103515245
	mult $s7, $t8
	mflo $s7
	addiu $s7, $s7, 12345
	srl $t0, $s7, 16
	andi $t0, $t0, 1
	bne $t0, $zero, odd
	addiu $s1, $s1, 1
odd:
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	with := SimplePipelined(4)
	with.PartialBypass = true
	with.EarlyBranch = true
	with.Name = "early-branch"
	without := SimplePipelined(4)
	without.PartialBypass = true
	without.Name = "no-early-branch"

	rw := run(t, mustProg(t, src), with)
	ro := run(t, mustProg(t, src), without)
	if rw.EarlyResolved == 0 {
		t.Fatal("no branches resolved early")
	}
	if ro.EarlyResolved != 0 {
		t.Fatal("early resolution counted while disabled")
	}
	if rw.Cycles >= ro.Cycles {
		t.Fatalf("early branch resolution did not help: %d vs %d cycles",
			rw.Cycles, ro.Cycles)
	}
}

// TestPartialTagSavesLoadLatency: a load-to-use chain is one cycle shorter
// with partial tag matching.
func TestPartialTagSavesLoadLatency(t *testing.T) {
	// Pointer-chase through L1-resident memory: load latency dominates.
	src := `
.data
p: .space 64
.text
main:
	la $t0, p
	sw $t0, 0($t0)       # self loop
	li $s0, 1000
loop:
	lw $t0, 0($t0)
	lw $t0, 0($t0)
	lw $t0, 0($t0)
	lw $t0, 0($t0)
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	with := SimplePipelined(2)
	with.PartialBypass = true
	with.PartialTag = true
	with.Name = "ptag"
	without := SimplePipelined(2)
	without.PartialBypass = true
	without.Name = "no-ptag"

	rw := run(t, mustProg(t, src), with)
	ro := run(t, mustProg(t, src), without)
	if rw.PartialTagAccess == 0 {
		t.Fatal("no partial tag accesses recorded")
	}
	if rw.Cycles >= ro.Cycles {
		t.Fatalf("partial tag matching did not help: %d vs %d cycles",
			rw.Cycles, ro.Cycles)
	}
}

// TestEarlyLSDisambiguationHelps: a load following stores to clearly
// different low addresses can issue before the stores' full addresses
// resolve.
func TestEarlyLSDisambiguationHelps(t *testing.T) {
	// The store address depends on a long dependence chain (slow agen);
	// the load's address is ready early and differs in the low bits.
	src := `
.data
a: .space 256
b: .space 256
.text
main:
	li $s0, 1000
	la $s1, a
	la $s2, b
loop:
	addu $t0, $s1, $zero  # slow chain feeding the store address
	addu $t0, $t0, $zero
	addu $t0, $t0, $zero
	addu $t0, $t0, $zero
	sw $s0, 4($t0)
	lw $t1, 8($s2)        # provably different low bits
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	with := SimplePipelined(4)
	with.PartialBypass = true
	with.EarlyLSDisambig = true
	with.Name = "early-ls"
	without := SimplePipelined(4)
	without.PartialBypass = true
	without.Name = "no-early-ls"

	rw := run(t, mustProg(t, src), with)
	ro := run(t, mustProg(t, src), without)
	if rw.LoadsEarlyRelease == 0 {
		t.Fatal("no early releases recorded")
	}
	if rw.Cycles > ro.Cycles {
		t.Fatalf("early disambiguation hurt: %d vs %d cycles", rw.Cycles, ro.Cycles)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := BaseConfig()
	bad.Slices = 3
	if _, err := Run(chainProg(t, 5, 4), bad, 0); err == nil {
		t.Fatal("slice count 3 accepted")
	}
	bad = BaseConfig()
	bad.PartialBypass = true // techniques need Slices > 1
	if err := bad.Validate(); err == nil {
		t.Fatal("techniques with Slices=1 accepted")
	}
	good := BitSliced(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := BitSliced(4)
	r1 := run(t, chainProg(t, 50, 8), cfg)
	r2 := run(t, chainProg(t, 50, 8), cfg)
	if *r1 != *r2 {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", r1, r2)
	}
}

func TestSliceBy4LoadsUse2CycleL1(t *testing.T) {
	cfg := SimplePipelined(4)
	if cfg.L1DLat != 2 {
		t.Fatalf("slice-by-4 L1D latency = %d, want 2", cfg.L1DLat)
	}
	if SimplePipelined(2).L1DLat != 1 {
		t.Fatal("slice-by-2 L1D latency changed")
	}
}

func TestMispredictionPenaltyVisible(t *testing.T) {
	// Alternating branch is learnable by gshare; a random one is not.
	// The random version must burn more cycles per instruction.
	rnd := `
main:
	li $s0, 2000
	li $s7, 987
loop:
	li $t8, 1103515245
	mult $s7, $t8
	mflo $s7
	addiu $s7, $s7, 12345
	srl $t0, $s7, 13
	andi $t0, $t0, 1
	beq $t0, $zero, skip
	nop
skip:
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	steady := strings.Replace(rnd, "andi $t0, $t0, 1", "andi $t0, $t0, 0", 1)
	r1 := run(t, mustProg(t, rnd), BaseConfig())
	r2 := run(t, mustProg(t, steady), BaseConfig())
	if r1.BranchAccuracy > 0.95 {
		t.Fatalf("random branch predicted too well: %.3f", r1.BranchAccuracy)
	}
	if r2.BranchAccuracy < 0.95 {
		t.Fatalf("steady branch predicted too poorly: %.3f", r2.BranchAccuracy)
	}
	if r1.IPC >= r2.IPC {
		t.Fatalf("mispredictions free: rnd %.3f vs steady %.3f IPC", r1.IPC, r2.IPC)
	}
}

// TestPartialTagMissHeavyCompletes is a regression test: a load that
// misses the cache after issuing a partial-tag access (before its full
// address exists) must still complete — its miss confirmation is deferred
// to full-address time, not dropped.
func TestPartialTagMissHeavyCompletes(t *testing.T) {
	// Stride larger than the L1 so almost every load misses.
	src := `
.data
base: .space 16
.text
main:
	li $s0, 400
	li $t0, 0x10000000
	li $t1, 0x20000       # 128KB stride
loop:
	lw $t2, 0($t0)
	addu $t0, $t0, $t1
	lw $t3, 64($t0)
	addu $t0, $t0, $t2    # data-dependent address: agen waits on the load
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	r := run(t, mustProg(t, src), BitSliced(2))
	if r.Loads < 800 {
		t.Fatalf("loads = %d", r.Loads)
	}
	if r.L1DMissRate < 0.5 {
		t.Fatalf("expected miss-heavy run, miss rate %.2f", r.L1DMissRate)
	}
	r4 := run(t, mustProg(t, src), BitSliced(4))
	if r4.Insts != r.Insts {
		t.Fatalf("slice-by-4 committed %d vs %d", r4.Insts, r.Insts)
	}
}

// TestNarrowWidthRelaxesInterSliceDeps: a chain alternating small-valued
// adds with slt (whose result needs every input slice) collapses when the
// machine knows the add results are narrow.
func TestNarrowWidthRelaxesInterSliceDeps(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\n\tli $t0, 1\n\tli $t2, 100\n\tli $s0, 300\nloop:\n")
	for i := 0; i < 8; i++ {
		b.WriteString("\taddiu $t0, $t0, 1\n")
		b.WriteString("\tandi $t0, $t0, 127\n") // keep the value narrow
		b.WriteString("\tslt $t1, $t0, $t2\n")  // needs all slices of $t0
		b.WriteString("\taddu $t0, $t0, $t1\n") // chain through the compare
	}
	b.WriteString("\taddiu $s0, $s0, -1\n\tbne $s0, $zero, loop\n")
	b.WriteString("\tli $v0, 10\n\tsyscall\n")
	src := b.String()

	with := SimplePipelined(4)
	with.PartialBypass = true
	with.NarrowWidth = true
	with.Name = "narrow"
	without := SimplePipelined(4)
	without.PartialBypass = true
	without.Name = "no-narrow"

	rw := run(t, mustProg(t, src), with)
	ro := run(t, mustProg(t, src), without)
	if float64(rw.Cycles) > 0.8*float64(ro.Cycles) {
		t.Fatalf("narrow-width did not help: %d vs %d cycles", rw.Cycles, ro.Cycles)
	}
}

// TestNarrowWidthValidation: the extension needs slice-granular bypass.
func TestNarrowWidthValidation(t *testing.T) {
	cfg := SimplePipelined(2)
	cfg.NarrowWidth = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("NarrowWidth without PartialBypass accepted")
	}
}

// TestBimodalAblation: swapping gshare for bimodal must run and (on an
// alternating-pattern branch) lose accuracy.
func TestBimodalAblation(t *testing.T) {
	src := `
main:
	li $s0, 2000
loop:
	andi $t0, $s0, 1
	beq $t0, $zero, even
	nop
even:
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	g := BaseConfig()
	bi := BaseConfig()
	bi.UseBimodal = true
	bi.Name = "bimodal"
	rg := run(t, mustProg(t, src), g)
	rb := run(t, mustProg(t, src), bi)
	if rb.BranchAccuracy >= rg.BranchAccuracy {
		t.Fatalf("bimodal (%.3f) not worse than gshare (%.3f) on alternating branch",
			rb.BranchAccuracy, rg.BranchAccuracy)
	}
}

// TestSerialMulReleasesLowSliceEarly: a chain through the low bits of a
// multiply shortens when the multiplier is bit-serial.
func TestSerialMulReleasesLowSliceEarly(t *testing.T) {
	src := `
main:
	li $s0, 800
	li $t0, 3
	li $t1, 5
loop:
	mult $t0, $t1
	mflo $t2
	andi $t0, $t2, 15     # consume only the low slice
	ori $t0, $t0, 3
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	with := SimplePipelined(4)
	with.PartialBypass = true
	with.SerialMul = true
	with.Name = "serial-mul"
	without := SimplePipelined(4)
	without.PartialBypass = true
	without.Name = "parallel-mul"

	rw := run(t, mustProg(t, src), with)
	ro := run(t, mustProg(t, src), without)
	if rw.Cycles >= ro.Cycles {
		t.Fatalf("serial multiplier did not help: %d vs %d cycles",
			rw.Cycles, ro.Cycles)
	}
	// Sanity: validation requires bypass.
	bad := SimplePipelined(2)
	bad.SerialMul = true
	if err := bad.Validate(); err == nil {
		t.Fatal("SerialMul without PartialBypass accepted")
	}
}

// TestSumAddressedBeatsPlainPartialTag: folding address generation into
// the cache decoder removes one more cycle from the load-to-use chain.
func TestSumAddressedBeatsPlainPartialTag(t *testing.T) {
	src := `
.data
p: .space 64
.text
main:
	la $t0, p
	sw $t0, 0($t0)
	li $s0, 1200
loop:
	lw $t0, 0($t0)
	lw $t0, 0($t0)
	lw $t0, 0($t0)
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	ptag := SimplePipelined(2)
	ptag.PartialBypass = true
	ptag.PartialTag = true
	ptag.Name = "ptag"
	sum := ptag
	sum.SumAddressed = true
	sum.Name = "ptag+sum"

	rp := run(t, mustProg(t, src), ptag)
	rs := run(t, mustProg(t, src), sum)
	if rs.Cycles >= rp.Cycles {
		t.Fatalf("sum-addressed did not help: %d vs %d cycles", rs.Cycles, rp.Cycles)
	}
	bad := SimplePipelined(2)
	bad.SumAddressed = true
	if err := bad.Validate(); err == nil {
		t.Fatal("SumAddressed without PartialTag accepted")
	}
}

// TestRunSampledApproximatesFullRun: SMARTS-style sampling with
// functional warming must estimate the full-run IPC closely on a
// steady-state workload, while simulating far fewer instructions in
// detail.
func TestRunSampledApproximatesFullRun(t *testing.T) {
	// A steady loop mixing ALU, loads, stores and branches.
	src := `
.data
buf: .space 4096
.text
main:
	li $s0, 60000
	la $s1, buf
loop:
	andi $t0, $s0, 1023
	addu $t1, $s1, $t0
	lbu $t2, 0($t1)
	addiu $t2, $t2, 1
	sb $t2, 0($t1)
	addu $t3, $t3, $t2
	xor $t3, $t3, $t0
	addiu $s0, $s0, -1
	bne $s0, $zero, loop
	li $v0, 10
	syscall
`
	cfg := BitSliced(2)
	full, err := Run(mustProg(t, src), cfg, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunSampled(mustProg(t, src), cfg, 10_000, 2_000, 8_000, 15)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Insts >= full.Insts/2 {
		t.Fatalf("sampling simulated too much: %d vs %d", sampled.Insts, full.Insts)
	}
	relErr := (sampled.IPC - full.IPC) / full.IPC
	if relErr < -0.12 || relErr > 0.12 {
		t.Fatalf("sampled IPC %.3f vs full %.3f (err %+.1f%%)",
			sampled.IPC, full.IPC, 100*relErr)
	}
}

// TestRunSampledValidation: bad parameters are rejected.
func TestRunSampledValidation(t *testing.T) {
	if _, err := RunSampled(chainProg(t, 5, 4), BaseConfig(), 0, 0, 10, 1); err == nil {
		t.Fatal("sampleLen 0 accepted")
	}
	if _, err := RunSampled(chainProg(t, 5, 4), BaseConfig(), 0, 10, 10, 0); err == nil {
		t.Fatal("nSamples 0 accepted")
	}
}

// TestRunSampledShortProgram: a program that ends mid-window terminates
// cleanly.
func TestRunSampledShortProgram(t *testing.T) {
	r, err := RunSampled(chainProg(t, 10, 4), BitSliced(4), 0, 1_000_000, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts == 0 || r.IPC <= 0 {
		t.Fatalf("result %+v", r)
	}
}

// TestSliceBy8Extrapolation: the 4-bit-slice machine (beyond the paper's
// study) follows the same trend — simple pipelining costs ~8x on chains,
// bit slicing recovers most of it.
func TestSliceBy8Extrapolation(t *testing.T) {
	prog := func() *emu.Program { return chainProg(t, 200, 16) }
	base := run(t, prog(), BaseConfig())
	simple8 := run(t, prog(), SimplePipelined(8))
	if r := base.IPC / simple8.IPC; r < 5.5 || r > 9.0 {
		t.Fatalf("simple-pipe-x8 chain ratio %.2f, want ~8", r)
	}
	full := BitSliced(8)
	sliced8 := run(t, prog(), full)
	if sliced8.IPC < 0.8*base.IPC {
		t.Fatalf("bit-slice-x8 chain IPC %.3f vs base %.3f", sliced8.IPC, base.IPC)
	}
	// Architectural invariance holds at 8 slices too.
	if sliced8.Insts != base.Insts {
		t.Fatalf("committed counts diverge: %d vs %d", sliced8.Insts, base.Insts)
	}
}

// TestRunSampledWithWrongPath: sampling and wrong-path simulation
// compose — windows drain even when a misprediction shadow spans the
// window boundary.
func TestRunSampledWithWrongPath(t *testing.T) {
	cfg := BitSliced(2)
	cfg.WrongPath = true
	r, err := RunSampled(mustProg(t, mispredictHeavy), cfg, 1000, 1500, 3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts == 0 || r.IPC <= 0 {
		t.Fatalf("result %+v", r)
	}
}

// TestResultSummary locks the report format's key lines.
func TestResultSummary(t *testing.T) {
	r := run(t, mustProg(t, mispredictHeavy), BitSliced(2))
	r.Benchmark = "probe"
	s := r.Summary()
	for _, want := range []string{"config", "benchmark         probe", "IPC",
		"stall cycles", "store forwards"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestFastForwardZeroIsNoop: li's FastForward is 0, and passing it
// straight through must execute nothing (emu.Run would read 0 as "no
// limit" and run li to its exit before timing began); the timed run is
// then the plain run.
func TestFastForwardZeroIsNoop(t *testing.T) {
	w := workload.MustGet("li")
	if w.FastForward != 0 {
		t.Fatalf("li fast-forwards %d instructions; the test needs 0", w.FastForward)
	}
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5_000
	s, err := NewSim(prog, BitSliced(2), budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FastForward(w.FastForward); err != nil {
		t.Fatal(err)
	}
	if n := s.em.InstCount(); n != 0 {
		t.Fatalf("FastForward(0) executed %d instructions", n)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(prog, BitSliced(2), budget)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultDigest(t, got), resultDigest(t, want); a != b {
		t.Fatalf("result digest %s after FastForward(0), %s for a plain run", a, b)
	}
}

// TestRunWarmSkipsInitialization: fast-forward executes functionally and
// the timed region starts afterwards.
func TestRunWarmSkipsInitialization(t *testing.T) {
	r, err := RunWarm(chainProg(t, 100, 8), BaseConfig(), 300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 200 {
		t.Fatalf("timed %d insts, want 200", r.Insts)
	}
	// FastForward after the simulation started is rejected.
	s, err := NewSim(chainProg(t, 10, 2), BaseConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.FastForward(10); err == nil {
		t.Fatal("FastForward after Run accepted")
	}
	// Warmup failures propagate (undecodable program).
	bad := &emu.Program{Entry: 0x400000, Segments: []emu.Segment{
		{Addr: 0x400000, Data: []byte{0xff, 0xff, 0xff, 0xff}}}}
	if _, err := RunWarm(bad, BaseConfig(), 5, 5); err == nil {
		t.Fatal("warmup decode fault swallowed")
	}
}
