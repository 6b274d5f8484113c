package emu_test

import (
	"fmt"
	"testing"

	"pok/internal/asm"
	"pok/internal/ckpt"
	"pok/internal/emu"
	"pok/internal/isa"
)

// farRunProg is a few instructions that plant an exit sequence at
// 0x0040f000 and then fall off the end of the text into zeroed memory,
// which decodes as NOPs: about 15k instructions run past the loaded
// text, all inside the predecode window (text plus 64 KB), so the
// window's table grows on demand several times before the exit.
func farRunProg(t *testing.T) *emu.Program {
	t.Helper()
	word := func(in isa.Inst) uint32 {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	exit := word(isa.Inst{Op: isa.OpADDIU, Rt: isa.RegV0, Imm: 10})
	sys := word(isa.Inst{Op: isa.OpSYSCALL})
	prog, err := asm.Assemble(fmt.Sprintf(`main:
	lui $t0, 0x0040
	ori $t0, $t0, 0xf000
	li $t1, %#x
	sw $t1, 0($t0)
	li $t1, %#x
	sw $t1, 4($t0)
	li $t2, 7 # register 10
`, exit, sys))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPredecodeGrowth: a program that runs far past its text, inside
// the window, gives the same DynInst stream on the fast path (whose
// table grows as it goes) as on the legacy interpreter; and a snapshot
// taken mid-run, encoded and restored, reports the window a fresh
// emulator reports and continues bit-identically.
func TestPredecodeGrowth(t *testing.T) {
	prog := farRunProg(t)
	diffEmulators(t, prog, 1<<20)

	fresh, err := emu.New(prog).Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	orig := emu.New(prog)
	if _, err := orig.Run(5000, nil); err != nil {
		t.Fatal(err)
	}
	st, err := orig.Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ckpt.Decode(ckpt.Encode(&ckpt.Snapshot{Meta: ckpt.Meta{ID: 1}, Emu: st}))
	if err != nil {
		t.Fatal(err)
	}
	if st.ULen != fresh.ULen || dec.Emu.ULen != fresh.ULen {
		t.Fatalf("window of %d uops mid-run, %d decoded, %d fresh", st.ULen, dec.Emu.ULen, fresh.ULen)
	}
	restored, err := emu.NewFromState(dec.Emu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !orig.Halted(); i++ {
		var want, got emu.DynInst
		errW := orig.StepInto(&want)
		errG := restored.StepInto(&got)
		if errW != nil || errG != nil {
			t.Fatalf("step %d after restore: %v / %v", i, errW, errG)
		}
		if got != want {
			t.Fatalf("step %d after restore:\nrestored: %+v\noriginal: %+v", i, got, want)
		}
	}
	if !restored.Halted() || restored.InstCount() != orig.InstCount() || restored.Reg(10) != 7 {
		t.Fatalf("restored run: halted %v after %d insts ($t2 %d), original %d",
			restored.Halted(), restored.InstCount(), restored.Reg(10), orig.InstCount())
	}
	if n := orig.InstCount(); n < 15_000 {
		t.Fatalf("program halted after %d instructions; it should run far past its text", n)
	}
	after, err := restored.Snapshot(false)
	if err != nil {
		t.Fatal(err)
	}
	if after.ULen != fresh.ULen {
		t.Fatalf("window of %d uops after the restored run, %d fresh", after.ULen, fresh.ULen)
	}
}
