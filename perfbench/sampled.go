package main

import (
	"fmt"
	"os"
	"time"

	"pok/internal/core"
	"pok/internal/workload"
)

type sampledKernel struct {
	id           int
	kernel       *workload.Workload
	warmup, skip uint64
}

// sampledProbe splits core.RunSampled, the functional-warming path, from
// outside. It runs on the bit-sliced x4 machine over every kernel, with
// the shape a sampled simulation has: short detailed windows separated
// by functionally warmed skips at least 50 times longer. The seed
// lengthens each kernel's warm-up by 1 to 8192 instructions and its skip
// by up to 499.
//
// It is a layer probe of the ladder's traced runs rather than a workload
// of its own: a whole sampled simulation is mostly emulator dispatch,
// which the machine's slow phases move by a third between runs of
// identical code (NOTES.md).
type sampledProbe struct {
	cfg     core.Config
	window  uint64
	n       int // windows per sampled simulation
	reps    int // timings of each kind per kernel; their medians are reported
	kernels []sampledKernel
}

func newSampledProbe(r *rng, names []string, small bool) (*sampledProbe, error) {
	s := &sampledProbe{cfg: core.BitSliced(4), window: 1000, n: 10, reps: 3}
	if small {
		s.n, s.reps = 2, 1
	}
	for i, n := range names {
		k, err := workload.Get(n)
		if err != nil {
			return nil, err
		}
		s.kernels = append(s.kernels, sampledKernel{id: i, kernel: k,
			warmup: k.FastForward + 1 + uint64(r.intn(8192)),
			skip:   50*s.window + uint64(r.intn(500))})
	}
	return s, nil
}

// probe times three RunSampled calls per kernel, each checked to commit
// every window it asks for, so no program ends early:
//
//   - base: the warm-up and one window;
//   - warm: as base, with the warm-up lengthened by the n skips of a
//     sampled simulation, so the difference to base is pure functional
//     warming;
//   - windows: as base, with n more windows back to back, so the
//     difference to base is n detailed windows.
//
// Each difference is summed over the kernels and its median over the
// repetitions is reported.
func (s *sampledProbe) probe(tr *tracer) (map[string]float64, []string, error) {
	var problems []string
	var warmSec, windowSec []float64
	var warmInsts uint64
	for _, k := range s.kernels {
		warmInsts += uint64(s.n) * k.skip
	}
	for rep := 0; rep < s.reps; rep++ {
		var base, warm, windows time.Duration
		for _, k := range s.kernels {
			prog, err := k.kernel.Program(k.kernel.DefaultScale)
			if err != nil {
				return nil, nil, err
			}
			for _, c := range []struct {
				name    string
				d       *time.Duration
				warmup  uint64
				windows int
			}{
				{"sample.base", &base, k.warmup, 1},
				{"sample.warm", &warm, k.warmup + uint64(s.n)*k.skip, 1},
				{"sample.windows", &windows, k.warmup, 1 + s.n},
			} {
				sp := tr.begin(c.name, k.id)
				t0 := time.Now()
				r, err := core.RunSampled(prog, s.cfg, c.warmup, s.window, 0, c.windows)
				*c.d += time.Since(t0)
				tr.end(sp)
				if err != nil {
					return nil, nil, fmt.Errorf("%s on %s: %w", c.name, k.kernel.Name, err)
				}
				if want := uint64(c.windows) * s.window; r.Insts != want {
					problems = append(problems, fmt.Sprintf("%s on %s committed %d instructions, want %d",
						c.name, k.kernel.Name, r.Insts, want))
				}
			}
		}
		warmSec = append(warmSec, (warm - base).Seconds())
		windowSec = append(windowSec, (windows - base).Seconds())
	}
	vals := map[string]float64{"emu.warm_minst_s": 0, "sample.window_ms": 0}
	// Either difference can come out non-positive if the machine slowed
	// down during the base timings; report 0 rather than a nonsense rate.
	if d := median(warmSec); d > 0 {
		vals["emu.warm_minst_s"] = float64(warmInsts) / d / 1e6
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: warming time %.3fs not positive; emu.warm_minst_s reported as 0\n", d)
	}
	if d := median(windowSec); d > 0 {
		vals["sample.window_ms"] = d * 1e3 / float64(len(s.kernels)*s.n)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: window time %.3fs not positive; sample.window_ms reported as 0\n", d)
	}
	return vals, problems, nil
}
