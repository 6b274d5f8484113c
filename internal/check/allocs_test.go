package check_test

import (
	"testing"

	"pok/internal/asm"
	"pok/internal/check"
	"pok/internal/core"
	"pok/internal/emu"
)

// TestCheckCommitZeroAllocs: the oracle runs once per committed
// instruction of every checked run, so a matching commit must not
// allocate. The records come from a second emulator stepping the same
// loop; the oracle is warmed past its first page touches first.
func TestCheckCommitZeroAllocs(t *testing.T) {
	prog, err := asm.Assemble(`main:
	li $t0, 0
	li $t1, 100000
loop:
	addiu $t0, $t0, 1
	sw $t0, 0($sp)
	lw $t2, 0($sp)
	mult $t0, $t2
	mflo $t3
	bne $t0, $t1, loop
	li $v0, 10
	syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	const warm, runs = 100, 500
	ref := emu.New(prog)
	recs := make([]core.CommitRecord, warm+runs+1)
	for i := range recs {
		var d emu.DynInst
		if err := ref.StepInto(&d); err != nil {
			t.Fatal(err)
		}
		recs[i] = core.CommitRecord{
			Seq: d.Seq, Index: uint64(i), PC: d.PC, Inst: d.Inst,
			NSrc: d.NSrc, SrcVal: d.SrcVal,
			Dst: d.Dst, DstVal: d.DstVal, Dst2: d.Dst2, Dst2Val: d.Dst2Val,
			EffAddr: d.EffAddr, Taken: d.Taken, NextPC: d.NextPC,
		}
	}
	o, err := check.NewOracle(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	commit := func() {
		if err := o.CheckCommit(&recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < warm {
		commit()
	}
	if allocs := testing.AllocsPerRun(runs, commit); allocs != 0 {
		t.Fatalf("CheckCommit allocates %.1f objects per matching commit, want 0", allocs)
	}
}
