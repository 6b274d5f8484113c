package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/exp"
	"pok/internal/workload"
)

// ladderSim is one simulation of the ladder workload.
type ladderSim struct {
	id     int // position in the canonical kernel × config order
	kernel *workload.Workload
	cfg    core.Config
	family string // base, x2 or x4
	ff     uint64
}

// ladder runs the Table 1 base machine plus the Figure 11 slice-by-2
// and slice-by-4 ladders over every kernel, each at a fixed budget after
// its fast-forward. The seed lengthens each kernel's fast-forward by 1
// to 4096 instructions and shuffles the order the simulations run in.
// Its traced runs also probe the functional-warming path through
// core.RunSampled on the same kernels.
type ladder struct {
	budget  uint64
	sims    []ladderSim // in run order
	sampled *sampledProbe
}

func newLadder(seed uint64, small bool) (*ladder, error) {
	names := workload.Names()
	budget := uint64(20_000)
	if small {
		names, budget = names[:2], 2_000
	}
	type fam struct {
		name string
		cfgs []core.Config
	}
	fams := []fam{{"base", []core.Config{core.BaseConfig()}},
		{"x2", exp.ConfigLadder(2)}, {"x4", exp.ConfigLadder(4)}}
	r := rng{s: seed}
	l := &ladder{budget: budget}
	for _, n := range names {
		k, err := workload.Get(n)
		if err != nil {
			return nil, err
		}
		// Never 0: Sim.FastForward(0) would run the kernel to its end.
		ff := k.FastForward + 1 + uint64(r.intn(4096))
		for _, f := range fams {
			for _, c := range f.cfgs {
				l.sims = append(l.sims, ladderSim{id: len(l.sims), kernel: k, cfg: c, family: f.name, ff: ff})
			}
		}
	}
	for i := len(l.sims) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		l.sims[i], l.sims[j] = l.sims[j], l.sims[i]
	}
	var err error
	l.sampled, err = newSampledProbe(&r, names, small)
	return l, err
}

// prepare assembles the simulation's kernel, builds the simulator and
// fast-forwards it: the set-up work of one simulation.
func (l *ladder) prepare(tr *tracer, s ladderSim) (*core.Sim, error) {
	sp := tr.begin("asm", s.id)
	prog, err := s.kernel.Program(s.kernel.DefaultScale)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.newsim", s.id)
	sim, err := core.NewSim(prog, s.cfg, l.budget)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("emu.ff", s.id)
	err = sim.FastForward(s.ff)
	tr.end(sp)
	return sim, err
}

func (l *ladder) unit(tr *tracer) (unitResult, error) {
	u := unitResult{counts: map[string]float64{}, layer: map[string]float64{}}
	res := make([]*core.Result, len(l.sims))
	var runMS []float64
	fam := map[string][2]float64{} // insts, run seconds
	start := time.Now()
	for _, s := range l.sims {
		sim, err := l.prepare(tr, s)
		t1 := time.Now()
		u.ops++
		if err != nil {
			u.failed++
			continue
		}
		sp := tr.begin("core.run", s.id)
		r, err := sim.Run()
		tr.end(sp)
		d := time.Since(t1)
		if err != nil || r.Insts != l.budget {
			u.failed++
			continue
		}
		res[s.id] = r
		u.insts += r.Insts
		runMS = append(runMS, ms(d))
		f := fam[s.family]
		fam[s.family] = [2]float64{f[0] + float64(r.Insts), f[1] + d.Seconds()}
	}
	u.total = time.Since(start)

	h := fnv.New64a()
	var cycles int64
	var mispredicts uint64
	var l1dRate float64
	for id, r := range res {
		if r == nil {
			fmt.Fprintf(h, "%d failed\n", id)
			continue
		}
		fmt.Fprintf(h, "%d %d %d %d %d\n", id, r.Insts, r.Cycles, r.Mispredicts,
			math.Float64bits(r.L1DMissRate))
		u.counts["core.insts"] += float64(r.Insts)
		cycles += r.Cycles
		mispredicts += r.Mispredicts
		// core.Result has the L1D miss rate but no miss count.
		l1dRate += r.L1DMissRate / float64(len(res))
	}
	u.digest = fmt.Sprintf("%016x", h.Sum64())
	u.counts["core.cycles"] = float64(cycles)
	u.counts["core.mispredicts"] = float64(mispredicts)
	if tr == nil {
		return u, nil
	}
	u.layer["core.l1d_miss_rate"] = l1dRate
	self := tr.openSelf()
	var ffInsts uint64
	for _, s := range l.sims {
		ffInsts += s.ff
	}
	for k, v := range fam {
		u.layer["core.kips."+k] = v[0] / v[1] / 1e3
	}
	u.layer["asm.ms"] = ms(self["asm"])
	u.layer["core.newsim_ms"] = ms(self["core.newsim"])
	u.layer["emu.ff_ms"] = ms(self["emu.ff"])
	u.layer["emu.ff_minst_s"] = float64(ffInsts) / self["emu.ff"].Seconds() / 1e6
	u.layer["core.run_s"] = self["core.run"].Seconds()
	u.layer["core.host_ns_per_cycle"] = float64(self["core.run"]) / float64(cycles)
	u.layer["core.sim_ms_p50"] = quantile(runMS, 0.5)
	u.layer["core.sim_ms_p90"] = quantile(runMS, 0.9)
	return u, nil
}

// probe times emu.New, the predecode inside core.NewSim, on every
// simulation's freshly assembled kernel, then splits core.RunSampled.
func (l *ladder) probe(tr *tracer) (map[string]float64, []string, error) {
	var d time.Duration
	for _, s := range l.sims {
		prog, err := s.kernel.Program(s.kernel.DefaultScale)
		if err != nil {
			return nil, nil, err
		}
		sp := tr.begin("emu.predecode", s.id)
		t0 := time.Now()
		emu.New(prog)
		d += time.Since(t0)
		tr.end(sp)
	}
	vals, problems, err := l.sampled.probe(tr)
	if err != nil {
		return nil, nil, err
	}
	vals["emu.predecode_ms"] = ms(d)
	return vals, problems, nil
}
