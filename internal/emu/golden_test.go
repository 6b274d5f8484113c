package emu_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pok/internal/asm"
	"pok/internal/emu"
	"pok/internal/isa"
	"pok/internal/workload"
)

// Golden DynInst streams: the functional emulator's behaviour pinned by
// hashes rather than by one interpreter agreeing with another. Each
// entry is fnv64a over a fixed little-endian encoding of every DynInst
// field of every step, followed by the final registers, PC, instruction
// count, halt state, exit code, output and any terminating error text.
// The streams are every workload at its default scale, both checked-in
// repro bundles, farRunProg to its exit and three wrong-path forks of
// li; testdata/stream_golden.json holds their digests.
//
// The table was generated while a second, switch-dispatch interpreter
// still existed, and an entry was only written where both interpreters
// produced the same digest. On any mismatch the test prints the complete
// table it computed, ready to replace the file, which is done by hand
// only when a change is meant to alter what the emulator executes.

const streamGoldenFile = "testdata/stream_golden.json"

// Stream budgets: the workload budget is trimmed to its -short value
// under -short; the full run computes both.
const (
	streamWorkloadInsts = 100_000
	streamShortInsts    = 20_000
	streamReproInsts    = 200_000
	streamFarRunInsts   = 1 << 20
	streamForkSteps     = 64
)

// stream is one pinned DynInst stream: mk builds the emulator at the
// stream's first instruction.
type stream struct {
	key    string
	budget uint64
	mk     func(t *testing.T) *emu.Emulator
}

// goldenStreams lists the table's streams; short mode keeps the
// -short workload budget and drops the full one.
func goldenStreams(t *testing.T) []stream {
	t.Helper()
	var out []stream
	budgets := []uint64{streamShortInsts}
	if !testing.Short() {
		budgets = append(budgets, streamWorkloadInsts)
	}
	for _, name := range workload.Names() {
		w := workload.MustGet(name)
		for _, b := range budgets {
			out = append(out, stream{fmt.Sprintf("workload/%s/%d", name, b), b,
				func(t *testing.T) *emu.Emulator {
					prog, err := w.Program(w.DefaultScale)
					if err != nil {
						t.Fatal(err)
					}
					return emu.New(prog)
				}})
		}
	}

	root := filepath.Join("..", "gen", "testdata", "repros")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		src, err := os.ReadFile(filepath.Join(root, e.Name(), "prog.s"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stream{fmt.Sprintf("repro/%s/%d", e.Name(), streamReproInsts), streamReproInsts,
			func(t *testing.T) *emu.Emulator {
				prog, err := asm.Assemble(string(src))
				if err != nil {
					t.Fatal(err)
				}
				return emu.New(prog)
			}})
	}

	out = append(out, stream{"farrun", streamFarRunInsts,
		func(t *testing.T) *emu.Emulator { return emu.New(farRunProg(t)) }})

	// li's wrong-path forks after 500 instructions: one a little ahead
	// in the text, one in the data segment and one misaligned, so all
	// three decode through the fallback cache over an overlay.
	forkPCs := []func(pc uint32) uint32{
		func(pc uint32) uint32 { return pc + 8 },
		func(uint32) uint32 { return emu.DefaultDataBase },
		func(pc uint32) uint32 { return pc + 2 },
	}
	for i, fpc := range forkPCs {
		fpc := fpc
		out = append(out, stream{fmt.Sprintf("fork/li/%d", i), streamForkSteps,
			func(t *testing.T) *emu.Emulator {
				prog, err := workload.MustGet("li").Program(1)
				if err != nil {
					t.Fatal(err)
				}
				e := emu.New(prog)
				if _, err := e.Run(500, nil); err != nil {
					t.Fatal(err)
				}
				return e.Fork(fpc(e.PC()))
			}})
	}
	return out
}

// streamDigest steps e for up to budget instructions, stopping at the
// first error or at the halt, and hashes the stream and the end state.
func streamDigest(e *emu.Emulator, budget uint64) string {
	h := fnv.New64a()
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u8 := func(v uint8) { buf = append(buf, v) }
	flag := func(b bool) {
		if b {
			u8(1)
		} else {
			u8(0)
		}
	}
	str := func(s string) { u32(uint32(len(s))); buf = append(buf, s...) }
	var stepErr error
	var d emu.DynInst
	for i := uint64(0); i < budget; i++ {
		if stepErr = e.StepInto(&d); stepErr != nil {
			break
		}
		buf = buf[:0]
		u64(d.Seq)
		u32(d.PC)
		in := d.Inst
		u8(uint8(in.Op))
		u8(uint8(in.Rs))
		u8(uint8(in.Rt))
		u8(uint8(in.Rd))
		u8(in.Shamt)
		u32(uint32(in.Imm))
		u32(in.Target)
		u8(uint8(d.NSrc))
		u8(uint8(d.Src[0]))
		u8(uint8(d.Src[1]))
		u32(d.SrcVal[0])
		u32(d.SrcVal[1])
		u8(uint8(d.Dst))
		u32(d.DstVal)
		u8(uint8(d.Dst2))
		u32(d.Dst2Val)
		u32(d.EffAddr)
		u8(d.MemSize)
		flag(d.Taken)
		u32(d.Target)
		u32(d.NextPC)
		h.Write(buf)
		if e.Halted() {
			break
		}
	}
	buf = buf[:0]
	for r := 0; r < isa.NumRegs; r++ {
		u32(e.Reg(isa.Reg(r)))
	}
	u32(e.PC())
	u64(e.InstCount())
	flag(e.Halted())
	u32(uint32(e.ExitCode()))
	str(e.Output())
	if stepErr != nil {
		str(stepErr.Error())
	} else {
		str("")
	}
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestStreamGolden(t *testing.T) {
	want := map[string]string{}
	if b, err := os.ReadFile(filepath.FromSlash(streamGoldenFile)); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", streamGoldenFile, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}

	got := map[string]string{}
	for _, s := range goldenStreams(t) {
		got[s.key] = streamDigest(s.mk(t), s.budget)
	}

	mismatch := false
	for k, d := range got {
		if want[k] != d {
			mismatch = true
			t.Errorf("%s: digest %s, golden %q", k, d, want[k])
		}
	}
	if !testing.Short() {
		for k := range want {
			if _, ok := got[k]; !ok {
				mismatch = true
				t.Errorf("%s: golden entry no longer computed", k)
			}
		}
	}
	if mismatch {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		table := "{\n"
		for i, k := range keys {
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			table += fmt.Sprintf("  %q: %q%s\n", k, got[k], sep)
		}
		t.Logf("computed table (%d entries):\n%s}\n", len(got), table)
	}
}
