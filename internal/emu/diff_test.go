package emu_test

// Differential tests for the direct-threaded fast path: every workload,
// every checked-in repro bundle and a fuzzed population of generated
// programs must produce DynInst streams bit-identical to the legacy
// switch-dispatch interpreter's.

import (
	"os"
	"path/filepath"
	"testing"

	"pok/internal/asm"
	"pok/internal/emu"
	"pok/internal/gen"
	"pok/internal/isa"
	"pok/internal/workload"
)

// diffEmulators steps the fast-path and legacy interpreters in lockstep
// for up to budget instructions, failing on the first divergence in the
// dynamic record, the error, or the final architectural state.
func diffEmulators(t *testing.T, prog *emu.Program, budget uint64) {
	t.Helper()
	fast := emu.New(prog)
	ref := emu.New(prog)
	ref.SetLegacy(true)
	for i := uint64(0); i < budget; i++ {
		df, errF := fast.Step()
		dr, errR := ref.Step()
		if (errF == nil) != (errR == nil) {
			t.Fatalf("step %d: error mismatch: fast=%v legacy=%v", i, errF, errR)
		}
		if errF != nil {
			if errF.Error() != errR.Error() {
				t.Fatalf("step %d: error text mismatch:\nfast:   %v\nlegacy: %v", i, errF, errR)
			}
			break
		}
		if df != dr {
			t.Fatalf("step %d: DynInst divergence:\nfast:   %+v\nlegacy: %+v", i, df, dr)
		}
		if fast.Halted() {
			break
		}
	}
	if fast.Halted() != ref.Halted() || fast.ExitCode() != ref.ExitCode() ||
		fast.InstCount() != ref.InstCount() || fast.Output() != ref.Output() {
		t.Fatalf("final state mismatch: halted %v/%v exit %d/%d icount %d/%d",
			fast.Halted(), ref.Halted(), fast.ExitCode(), ref.ExitCode(),
			fast.InstCount(), ref.InstCount())
	}
	for r := 0; r < isa.NumRegs; r++ {
		if fast.Reg(isa.Reg(r)) != ref.Reg(isa.Reg(r)) {
			t.Fatalf("final reg %v mismatch: fast=%#x legacy=%#x",
				isa.Reg(r), fast.Reg(isa.Reg(r)), ref.Reg(isa.Reg(r)))
		}
	}
}

func TestEmuDiffWorkloads(t *testing.T) {
	budget := uint64(100_000)
	if testing.Short() {
		budget = 20_000
	}
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workload.MustGet(name)
			prog, err := w.Program(w.DefaultScale)
			if err != nil {
				t.Fatal(err)
			}
			diffEmulators(t, prog, budget)
		})
	}
}

// TestEmuDiffRepros replays the checked-in soak repro bundles (minimized
// generated programs) through both interpreters.
func TestEmuDiffRepros(t *testing.T) {
	root := filepath.Join("..", "gen", "testdata", "repros")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(root, e.Name(), "prog.s"))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(string(src))
			if err != nil {
				t.Fatal(err)
			}
			diffEmulators(t, prog, 200_000)
		})
	}
}

// TestEmuDiffForks checks that speculative forks of the fast-path
// emulator (which decode through the wrong-path overlay, off the dense
// window) match legacy forks instruction for instruction.
func TestEmuDiffForks(t *testing.T) {
	prog, err := workload.MustGet("li").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	fast := emu.New(prog)
	ref := emu.New(prog)
	ref.SetLegacy(true)
	if _, err := fast.Run(500, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(500, nil); err != nil {
		t.Fatal(err)
	}
	// Fork down a deliberately wrong path: an offset into the data
	// segment and a misaligned PC both leave the dense window.
	for _, pc := range []uint32{fast.PC() + 8, emu.DefaultDataBase, fast.PC() + 2} {
		ff := fast.Fork(pc)
		fr := ref.Fork(pc)
		for i := 0; i < 64; i++ {
			df, errF := ff.Step()
			dr, errR := fr.Step()
			if (errF == nil) != (errR == nil) {
				t.Fatalf("fork pc=%#x step %d: error mismatch: fast=%v legacy=%v", pc, i, errF, errR)
			}
			if errF != nil {
				if errF.Error() != errR.Error() {
					t.Fatalf("fork pc=%#x step %d: error text mismatch:\nfast:   %v\nlegacy: %v",
						pc, i, errF, errR)
				}
				break
			}
			if df != dr {
				t.Fatalf("fork pc=%#x step %d: DynInst divergence:\nfast:   %+v\nlegacy: %+v",
					pc, i, df, dr)
			}
		}
	}
}

// FuzzEmuDiff runs arbitrary generated programs through both
// interpreters and fails on the first DynInst divergence.
func FuzzEmuDiff(f *testing.F) {
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
		diffEmulators(t, prog, 30_000)
	})
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
