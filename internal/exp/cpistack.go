package exp

import (
	"fmt"
	"strings"

	"pok/internal/core"
	"pok/internal/profile"
)

// CPIStackRow is one benchmark's cycle-accounting breakdown across the
// Figure 11/12 technique ladder: one CPI stack per ladder step, so the
// per-technique IPC deltas of Figure 12 come with an explanation of
// *which* component each technique shrank (branch-resolution for early
// branch resolution, lsq-disambig for early disambiguation, dcache/way
// for partial tag matching, ...).
type CPIStackRow struct {
	Benchmark string
	SliceBy   int
	// Configs holds the ladder step names (same order as Stacks).
	Configs []string
	// Stacks[i] is the CPI stack under Configs[i].
	Stacks []*profile.CPIStack
}

// CPIStackReport runs the selected benchmarks through the cumulative
// technique ladder with the streaming CPI-stack accountant attached.
// The accountant only reads events, so the underlying Results are
// identical to Figure 11's.
//
// Without an explicit benchmark selection it defaults to a small
// representative subset (the full suite x full ladder is Figure 11's
// job; this report is the attribution companion).
func CPIStackReport(opt Options, sliceBy int) ([]CPIStackRow, error) {
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = []string{"gzip", "gcc", "mcf"}
	}
	ladder := ConfigLadder(sliceBy)
	rows := make([]CPIStackRow, len(opt.benchmarks()))
	err := opt.forEachBenchmark(func(idx int, name string) error {
		row := CPIStackRow{Benchmark: name, SliceBy: sliceBy}
		for _, cfg := range ladder {
			prog, ff, err := opt.program(name)
			if err != nil {
				return err
			}
			acct := profile.NewAccountant(nil)
			cfg.Collector = acct
			r, err := core.RunWarm(prog, cfg, ff, opt.budget())
			if err != nil {
				return fmt.Errorf("exp: cpistack %s %s: %w", name, cfg.Name, err)
			}
			st, err := acct.Stack(r.Cycles)
			if err != nil {
				return fmt.Errorf("exp: cpistack %s %s: %w", name, cfg.Name, err)
			}
			st.Benchmark, st.Config = name, cfg.Name
			row.Configs = append(row.Configs, cfg.Name)
			row.Stacks = append(row.Stacks, st)
		}
		rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderCPIStackReport prints one attribution table per benchmark:
// components as rows, ladder steps as columns, cycles (and % of the
// run) as cells — the per-technique companion to Figure 12.
func RenderCPIStackReport(rows []CPIStackRow) string {
	var b strings.Builder
	for ri, row := range rows {
		if ri > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "CPI-stack attribution: %s, slice-by-%d (cycles, %% of run)\n",
			row.Benchmark, row.SliceBy)
		fmt.Fprintf(&b, "  %-18s", "component")
		for i := range row.Configs {
			fmt.Fprintf(&b, " %15s", fmt.Sprintf("step%d", i))
		}
		b.WriteByte('\n')
		for c := 0; c < profile.NumComponents; c++ {
			fmt.Fprintf(&b, "  %-18s", profile.Component(c).Label())
			for _, st := range row.Stacks {
				pct := 0.0
				if st.Cycles > 0 {
					pct = 100 * float64(st.Comp[c]) / float64(st.Cycles)
				}
				fmt.Fprintf(&b, " %15s", fmt.Sprintf("%d (%4.1f%%)", st.Comp[c], pct))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  %-18s", "total cycles")
		for _, st := range row.Stacks {
			fmt.Fprintf(&b, " %15d", st.Cycles)
		}
		b.WriteByte('\n')
		for i, name := range row.Configs {
			fmt.Fprintf(&b, "  step%d = %s\n", i, name)
		}
	}
	return b.String()
}
