package emu_test

// The emulator decodes an instruction on one of three paths: the dense
// predecode window of a freshly loaded program, the bounded fallback
// cache a wrong-path fork decodes through over its overlay, and the
// window an emulator restored from a snapshot rebuilds on demand. A
// generated program must give the same DynInst stream on all three.

import (
	"fmt"
	"testing"

	"pok/internal/asm"
	"pok/internal/emu"
	"pok/internal/gen"
	"pok/internal/isa"
)

// runStream steps e for up to budget instructions, stopping at the first
// error or at the halt, and returns the records and a rendering of the
// end state: registers, PC, instruction count, halt state, exit code,
// output and the terminating error.
func runStream(e *emu.Emulator, budget uint64) ([]emu.DynInst, string) {
	var recs []emu.DynInst
	var err error
	for i := uint64(0); i < budget; i++ {
		var d emu.DynInst
		if err = e.StepInto(&d); err != nil {
			break
		}
		recs = append(recs, d)
		if e.Halted() {
			break
		}
	}
	var regs [isa.NumRegs]uint32
	for r := range regs {
		regs[r] = e.Reg(isa.Reg(r))
	}
	return recs, fmt.Sprintf("regs %x pc %#x icount %d halted %v exit %d output %q err %v",
		regs, e.PC(), e.InstCount(), e.Halted(), e.ExitCode(), e.Output(), err)
}

// FuzzEmuDecodePaths runs generated programs down the three decode
// paths and fails on the first DynInst, or end state, that differs from
// the dense window's.
func FuzzEmuDecodePaths(f *testing.F) {
	f.Add(uint64(1), uint8(24))
	f.Add(uint64(0xfeed), uint8(8))
	f.Add(uint64(0xdecade), uint8(48))
	f.Fuzz(func(t *testing.T, seed uint64, frags uint8) {
		p := gen.New(gen.Options{
			Seed:      seed,
			Fragments: int(frags%64) + 1,
			MaxInsts:  20_000,
		})
		prog, err := asm.Assemble(p.Source())
		if err != nil {
			t.Skip() // generator emits assemblable programs by construction
		}
		const budget = 30_000
		want, wantEnd := runStream(emu.New(prog), budget)

		// Fork at the entry point: no dense window, every PC decodes
		// through the fallback cache.
		ref := emu.New(prog)
		fork := ref.Fork(prog.Entry)
		fork.MaxOutput = ref.MaxOutput
		got, gotEnd := runStream(fork, budget)
		compareStreams(t, "fork", want, got, wantEnd, gotEnd)

		// Restored from a snapshot taken halfway through the run.
		half := uint64(len(want) / 2)
		orig := emu.New(prog)
		if half > 0 {
			if _, err := orig.Run(half, nil); err != nil {
				t.Fatalf("run to the snapshot point: %v", err)
			}
		}
		st, err := orig.Snapshot(false)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := emu.NewFromState(st)
		if err != nil {
			t.Fatal(err)
		}
		got, gotEnd = runStream(restored, budget-half)
		compareStreams(t, "restored", want[half:], got, wantEnd, gotEnd)
	})
}

func compareStreams(t *testing.T, path string, want, got []emu.DynInst, wantEnd, gotEnd string) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d: DynInst divergence:\n%s:%+v\ndense:  %+v", path, i, path, got[i], want[i])
		}
	}
	if len(got) != len(want) || gotEnd != wantEnd {
		t.Fatalf("%s: %d steps, dense %d; end state\n%s: %s\ndense:  %s",
			path, len(got), len(want), path, gotEnd, wantEnd)
	}
}

// hotLoop is a tight infinite loop touching ALU, load, store and
// branch paths, with its predecode window already warm.
func hotLoop(t *testing.T) *emu.Emulator {
	t.Helper()
	words := make([]byte, 0, 8*4)
	enc := func(in isa.Inst) {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	enc(isa.Inst{Op: isa.OpADDIU, Rt: isa.RegT0, Rs: isa.RegT0, Imm: 1})
	enc(isa.Inst{Op: isa.OpSW, Rt: isa.RegT0, Rs: isa.RegGP, Imm: 0x40})
	enc(isa.Inst{Op: isa.OpLW, Rt: isa.RegT0 + 1, Rs: isa.RegGP, Imm: 0x40})
	enc(isa.Inst{Op: isa.OpADDU, Rd: isa.RegT0 + 2, Rs: isa.RegT0, Rt: isa.RegT0 + 1})
	enc(isa.Inst{Op: isa.OpBEQ, Rs: isa.RegZero, Rt: isa.RegZero, Imm: -5})
	prog := &emu.Program{
		Entry:    emu.DefaultTextBase,
		Segments: []emu.Segment{{Addr: emu.DefaultTextBase, Data: words}},
	}
	e := emu.New(prog)
	if _, err := e.Run(64, nil); err != nil { // warm the predecode window
		t.Fatal(err)
	}
	return e
}

// TestStepZeroAlloc is the allocation regression gate for the fast
// path: a steady-state Step (ALU, memory and branch traffic) must not
// allocate.
func TestStepZeroAlloc(t *testing.T) {
	e := hotLoop(t)
	var d emu.DynInst
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.StepInto(&d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Emulator.Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestWriteBlockZeroAlloc: a block write into pages that already exist
// allocates nothing, however many pages it spans.
func TestWriteBlockZeroAlloc(t *testing.T) {
	m := emu.NewMemory()
	data := make([]byte, 3*emu.PageSize)
	m.WriteBlock(0x10000ffd, data)
	allocs := testing.AllocsPerRun(100, func() { m.WriteBlock(0x10000ffd, data) })
	if allocs != 0 {
		t.Fatalf("WriteBlock into existing pages allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRunVisitorAllocs: a visited Run reuses one record, so its
// allocations are a per-call constant rather than one per instruction.
func TestRunVisitorAllocs(t *testing.T) {
	e := hotLoop(t)
	var sink uint32
	visit := func(d *emu.DynInst) { sink += d.DstVal }
	allocs := testing.AllocsPerRun(20, func() {
		if n, err := e.Run(10_000, visit); err != nil || n != 10_000 {
			t.Fatalf("Run = %d, %v; want 10000 instructions", n, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Run(10000, visit) allocates %.1f times per call, want at most 2", allocs)
	}
}
