package exp

import (
	"fmt"
	"time"

	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/stats"
)

// CkptBenchRow is one mode of the pok-bench `ckpt` experiment: the
// cost of architectural checkpointing on the headline machine, with
// the feature off (the hot loop must not pay for a disarmed sink) and
// at a fixed snapshot cadence (drain + capture + encode cost).
type CkptBenchRow struct {
	Mode         string
	Insts        uint64
	Cycles       int64
	WallMS       int64
	CyclesPerSec float64
	// Snapshots and SnapBytes cover the armed mode: how many captures
	// the cadence produced and their total encoded size (delta chain
	// with a full rebase every 8th capture, like the on-disk Writer).
	Snapshots int
	SnapBytes int64
	// Overhead is this mode's wall time over the off mode's (1.00 for
	// off itself). The off mode's throughput also lands in the BENCH
	// record, so CI's -compare gate catches a disarmed-path slowdown
	// against the committed baseline.
	Overhead float64
}

// countSink mimics the on-disk Writer's delta chain (full rebase every
// 8th capture) but only counts encoded bytes, so the measurement is
// capture + serialization + hashing without disk noise.
type countSink struct {
	n     int
	bytes int64
}

func (c *countSink) WantFull() bool { return c.n%8 == 0 }

func (c *countSink) Write(s *ckpt.Snapshot) error {
	c.bytes += int64(len(ckpt.Encode(s)))
	c.n++
	return nil
}

// CkptBench measures checkpointing cost on the first selected benchmark
// under the bit-slice-x4 machine. The instruction budget is floored at
// DefaultMaxInsts (like EmuBench) so the cadence produces a meaningful
// snapshot count even under a small -insts.
func CkptBench(opt Options) ([]CkptBenchRow, error) {
	name := opt.benchmarks()[0]
	budget := opt.budget()
	if budget < DefaultMaxInsts {
		budget = DefaultMaxInsts
	}
	every := budget / 8

	run := func(mode string, sink *countSink, every uint64) (CkptBenchRow, time.Duration, error) {
		prog, ff, err := opt.program(name)
		if err != nil {
			return CkptBenchRow{}, 0, err
		}
		sim, err := core.NewSim(prog, core.BitSliced(4), budget)
		if err != nil {
			return CkptBenchRow{}, 0, err
		}
		if err := sim.FastForward(ff); err != nil {
			return CkptBenchRow{}, 0, fmt.Errorf("exp: ckpt %s/%s: %w", name, mode, err)
		}
		if sink != nil {
			sim.SetCheckpoint(every, sink, name)
		}
		start := time.Now()
		r, err := sim.Run()
		if err != nil {
			return CkptBenchRow{}, 0, fmt.Errorf("exp: ckpt %s/%s: %w", name, mode, err)
		}
		wall := time.Since(start)
		row := CkptBenchRow{Mode: mode, Insts: r.Insts, Cycles: r.Cycles,
			WallMS: wall.Milliseconds()}
		if wall > 0 {
			row.CyclesPerSec = float64(r.Cycles) / wall.Seconds()
		}
		if sink != nil {
			row.Snapshots = sink.n
			row.SnapBytes = sink.bytes
		}
		return row, wall, nil
	}

	off, offWall, err := run("off", nil, 0)
	if err != nil {
		return nil, err
	}
	off.Overhead = 1
	armed, armedWall, err := run(fmt.Sprintf("every %d", every), &countSink{}, every)
	if err != nil {
		return nil, err
	}
	if offWall > 0 {
		armed.Overhead = armedWall.Seconds() / offWall.Seconds()
	}
	return []CkptBenchRow{off, armed}, nil
}

// RenderCkptBench prints the checkpointing-cost rows.
func RenderCkptBench(rows []CkptBenchRow) string {
	t := stats.NewTable("Architectural checkpointing cost (bit-slice-x4)",
		"mode", "insts", "cycles", "wall ms", "Mcyc/s", "snapshots", "snap KB", "overhead")
	for _, r := range rows {
		t.AddRow(r.Mode,
			fmt.Sprintf("%d", r.Insts),
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%d", r.WallMS),
			fmt.Sprintf("%.2f", r.CyclesPerSec/1e6),
			fmt.Sprintf("%d", r.Snapshots),
			fmt.Sprintf("%d", r.SnapBytes/1024),
			fmt.Sprintf("%.2fx", r.Overhead))
	}
	return t.Render()
}
