package exp

import (
	"fmt"
	"time"

	"pok/internal/emu"
	"pok/internal/stats"
)

// EmuBenchRow is one mode of the pok-bench `emu` experiment: the
// standalone functional-emulator throughput, measured independently of
// the timing core so a regression in the direct-threaded fast path is
// visible even when timing-core noise would hide it.
type EmuBenchRow struct {
	Mode        string
	Insts       uint64
	WallMS      int64
	InstsPerSec float64
}

// The two ways the rest of the stack drives the emulator: bare
// (fast-forward) and with a DynInst stream visitor attached (telemetry,
// trace export, the timing front end).
const (
	EmuModeBare    = "bare"
	EmuModeVisitor = "visitor"
)

// EmuBench measures functional-emulator throughput on the first selected
// benchmark in each attachment mode. The instruction budget is the
// experiment budget, floored at DefaultMaxInsts so the measurement is
// long enough to be meaningful even under a small -insts.
func EmuBench(opt Options) ([]EmuBenchRow, error) {
	name := opt.benchmarks()[0]
	budget := opt.budget()
	if budget < DefaultMaxInsts {
		budget = DefaultMaxInsts
	}
	rows := make([]EmuBenchRow, 0, 2)

	run := func(mode string, f func(prog *emu.Program) (uint64, error)) error {
		prog, _, err := opt.program(name)
		if err != nil {
			return err
		}
		start := time.Now()
		n, err := f(prog)
		if err != nil {
			return fmt.Errorf("exp: emu %s/%s: %w", name, mode, err)
		}
		wall := time.Since(start)
		row := EmuBenchRow{Mode: mode, Insts: n, WallMS: wall.Milliseconds()}
		if wall > 0 {
			row.InstsPerSec = float64(n) / wall.Seconds()
		}
		rows = append(rows, row)
		return nil
	}

	if err := run(EmuModeBare, func(prog *emu.Program) (uint64, error) {
		return emu.New(prog).Run(budget, nil)
	}); err != nil {
		return nil, err
	}
	if err := run(EmuModeVisitor, func(prog *emu.Program) (uint64, error) {
		var sink uint64
		n, err := emu.New(prog).Run(budget, func(d *emu.DynInst) {
			sink += uint64(d.DstVal)
		})
		_ = sink
		return n, err
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderEmuBench prints the emulator-throughput rows.
func RenderEmuBench(rows []EmuBenchRow) string {
	t := stats.NewTable("Functional emulator throughput",
		"mode", "insts", "wall ms", "Minst/s")
	for _, r := range rows {
		t.AddRow(r.Mode,
			fmt.Sprintf("%d", r.Insts),
			fmt.Sprintf("%d", r.WallMS),
			fmt.Sprintf("%.2f", r.InstsPerSec/1e6))
	}
	return t.Render()
}
