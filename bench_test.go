package pok

import (
	"fmt"
	"runtime"
	"testing"

	"pok/internal/asm"
	"pok/internal/bitslice"
	"pok/internal/bpred"
	"pok/internal/cache"
	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/exp"
	"pok/internal/lsq"
	"pok/internal/metrics"
	"pok/internal/soak"
	"pok/internal/workload"
)

// Benchmark budgets are reduced relative to cmd/pok-bench so that
// `go test -bench=.` completes in minutes; run cmd/pok-bench for the
// full-budget regeneration of the paper's evaluation.
const benchBudget = 60_000

// The experiment benchmarks fan each suite out over all cores: per-
// benchmark simulations are independent, so wall-clock scales with the
// machine while results stay identical (TestBenchOptParallelIdentity).
var benchOpt = Options{MaxInsts: benchBudget, Parallel: runtime.NumCPU()}

// ---------------------------------------------------------------------------
// One benchmark per paper table/figure.
// ---------------------------------------------------------------------------

// BenchmarkTable1 regenerates Table 1 (baseline IPC, %loads, branch
// accuracy for the whole suite) once per iteration.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := Table1(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var ipc float64
			for _, r := range rows {
				ipc += r.IPC
			}
			b.ReportMetric(ipc/float64(len(rows)), "meanIPC")
		}
	}
}

// BenchmarkFigure2 regenerates the early load-store disambiguation
// characterization on the paper's two example benchmarks.
func BenchmarkFigure2(b *testing.B) {
	opt := benchOpt
	opt.Benchmarks = []string{"bzip", "gcc"}
	for i := 0; i < b.N; i++ {
		res, err := Figure2(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res[0].ResolvedFrac(9), "%resolved@bit9")
		}
	}
}

// BenchmarkFigure4 regenerates the partial tag matching characterization
// on the paper's two example benchmarks across all six geometries.
func BenchmarkFigure4(b *testing.B) {
	opt := benchOpt
	opt.Benchmarks = []string{"mcf", "twolf"}
	for i := 0; i < b.N; i++ {
		res, err := Figure4(opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res[0].UniqueFrac(2), "%unique@2tagbits")
		}
	}
}

// BenchmarkFigure6 regenerates the early branch misprediction detection
// characterization over the full suite.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure6(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*exp.AverageCumFrac(res, 7), "%detected@8bits")
		}
	}
}

// benchFigure11 runs the Figure 11 ladder at one slice count and reports
// the paper's headline metrics.
func benchFigure11(b *testing.B, sliceBy int) {
	opt := benchOpt
	opt.Benchmarks = []string{"gzip", "li", "vortex"} // representative subset
	for i := 0; i < b.N; i++ {
		rows, err := Figure11(opt, sliceBy)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var vsBase, speedup float64
			for _, r := range rows {
				vsBase += r.VsBase()
				speedup += r.SpeedupOverSimple()
			}
			n := float64(len(rows))
			b.ReportMetric(vsBase/n, "IPCvsIdeal")
			b.ReportMetric(100*(speedup/n-1), "%speedupVsSimple")
		}
	}
}

// BenchmarkFigure11SliceBy2 regenerates the slice-by-2 IPC stacks.
func BenchmarkFigure11SliceBy2(b *testing.B) { benchFigure11(b, 2) }

// BenchmarkFigure11SliceBy4 regenerates the slice-by-4 IPC stacks.
func BenchmarkFigure11SliceBy4(b *testing.B) { benchFigure11(b, 4) }

// BenchmarkSoakCheckpointed runs a checked soak campaign shaped like a
// fleet worker's: four generated programs over the default config ×
// scheduler matrix, metrics on, a drain every 256 instructions, and a
// CellCursor hook that holds each snapshot as the worker holds its
// resume cursor. Unlike the worker, which captures a snapshot only when
// a keepalive could send it (soak.Options.CursorDue), it leaves
// CursorDue nil and so captures every one: it times the
// every-snapshot path that pok-soak's cursor file takes. It is the
// soak-side counterpart of the Figure 11 benchmarks for `make prof`,
// and reports allocations per campaign next to its time.
func BenchmarkSoakCheckpointed(b *testing.B) {
	b.ReportAllocs()
	opts := soak.Options{
		BaseSeed: 901, Programs: 4, CkptInsts: 256, NoReduce: true,
		OutDir:   b.TempDir(),
		Snapshot: func(int, *metrics.Snapshot) {},
	}
	var held *ckpt.Snapshot
	opts.CellCursor = func(_, _ int, _ *soak.Report, s *ckpt.Snapshot) bool {
		held = s
		return false
	}
	for i := 0; i < b.N; i++ {
		rep, err := soak.Run(opts, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) > 0 || held == nil {
			b.Fatalf("campaign: %d findings, snapshot held: %v", len(rep.Findings), held != nil)
		}
	}
}

// BenchmarkFigure12 derives the per-technique speedup breakdown from a
// Figure 11 run and reports the contribution of the newly proposed
// techniques (the paper: +8% for slice-by-2, +13% for slice-by-4).
func BenchmarkFigure12(b *testing.B) {
	opt := benchOpt
	opt.Benchmarks = []string{"gzip", "li", "vortex"}
	for i := 0; i < b.N; i++ {
		rows, err := Figure11(opt, 2)
		if err != nil {
			b.Fatal(err)
		}
		f12 := Figure12(rows)
		if i == 0 {
			var nw float64
			for _, r := range f12 {
				nw += r.NewTechniques
			}
			b.ReportMetric(100*nw/float64(len(f12)), "%newTechniques")
		}
	}
}

// TestBenchOptParallelIdentity pins the claim benchOpt relies on: the
// worker pool changes wall-clock, never results. Table 1 under the
// benchmark options (full parallelism) must match a sequential run row
// for row.
func TestBenchOptParallelIdentity(t *testing.T) {
	opt := benchOpt
	opt.Benchmarks = []string{"bzip", "li", "mcf", "vpr"}
	opt.MaxInsts = 20_000
	seq := opt
	seq.Parallel = 1
	par := opt
	if par.Parallel < 2 {
		par.Parallel = 2 // keep the pool engaged even on one-CPU runners
	}
	rs, err := Table1(seq)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Table1(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(rp) {
		t.Fatalf("row count differs: %d vs %d", len(rs), len(rp))
	}
	for i := range rs {
		if rs[i] != rp[i] {
			t.Errorf("row %d differs:\nsequential %+v\nparallel   %+v", i, rs[i], rp[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks (throughput of the building blocks).
// ---------------------------------------------------------------------------

// BenchmarkEmulator measures functional emulation speed.
func BenchmarkEmulator(b *testing.B) {
	w := workload.MustGet("gcc")
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		e := emu.New(prog)
		n, err := e.Run(benchBudget, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTimingSim measures cycle-level simulation speed on the full
// bit-sliced configuration.
func BenchmarkTimingSim(b *testing.B) {
	w := workload.MustGet("gcc")
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.BitSliced(2)
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		r, err := core.Run(prog, cfg, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkAssembler measures assembly throughput on the largest kernel.
func BenchmarkAssembler(b *testing.B) {
	src := workload.MustGet("vortex").Source(1000)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachePartialClassify measures the partial tag classification
// hot path used by Figure 4 and the timing model.
func BenchmarkCachePartialClassify(b *testing.B) {
	c := cache.MustNew(cache.Config{Name: "b", SizeBytes: 64 << 10, LineBytes: 64,
		Assoc: 4, HitLatency: 1})
	for a := uint32(0); a < 1<<16; a += 64 {
		c.Access(a * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ClassifyPartial(uint32(i*64), 2)
	}
}

// BenchmarkGshare measures direction predictor throughput.
func BenchmarkGshare(b *testing.B) {
	g := bpred.NewGshare(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint32(i * 4)
		g.Update(pc, g.Predict(pc) != (i&3 == 0))
	}
}

// BenchmarkSlicedAdd measures the slice-arithmetic substrate.
func BenchmarkSlicedAdd(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("x%d", n), func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				sums, _ := bitslice.Add(uint32(i), uint32(i)*2654435761, n)
				sink += sums[0]
			}
			_ = sink
		})
	}
}

// BenchmarkLSQDisambiguate measures the partial disambiguation hot path.
func BenchmarkLSQDisambiguate(b *testing.B) {
	q := newBenchLSQ(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Disambiguate(31, true)
	}
}

func newBenchLSQ(b *testing.B) *lsqQueue {
	q := lsqNew(32)
	for i := uint64(0); i < 31; i++ {
		err := q.Insert(&lsqEntry{Seq: i, IsStore: i%2 == 0,
			Addr: uint32(i * 4096), Size: 4, KnownBits: 16, DataReady: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := q.Insert(&lsqEntry{Seq: 31, Addr: 0x1234, Size: 4, KnownBits: 16}); err != nil {
		b.Fatal(err)
	}
	return q
}

// Aliases keeping the LSQ micro-benchmark tidy.
type (
	lsqQueue = lsq.Queue
	lsqEntry = lsq.Entry
)

var lsqNew = lsq.New
