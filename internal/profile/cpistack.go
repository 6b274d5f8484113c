package profile

import (
	"fmt"
	"strings"

	"pok/internal/telemetry"
)

// CPIStack is one run's cycle-accounting breakdown: every cycle of the
// run attributed to exactly one Component, so Comp sums to Cycles by
// construction (the invariant test in cpistack_test.go holds this
// against core.Result.Cycles for every baked-in workload).
type CPIStack struct {
	// Benchmark / Config label the run (from the dump meta or caller).
	Benchmark string `json:"benchmark,omitempty"`
	Config    string `json:"config,omitempty"`
	// Cycles is the attributed total (== the run's cycle count).
	Cycles int64 `json:"cycles"`
	// Insts counts committed instructions observed in the stream.
	Insts uint64 `json:"insts"`
	// Comp holds per-component attributed cycles, indexed by Component.
	Comp [NumComponents]int64 `json:"components"`
}

// CPI returns cycles per committed instruction.
func (st *CPIStack) CPI() float64 {
	if st.Insts == 0 {
		return 0
	}
	return float64(st.Cycles) / float64(st.Insts)
}

// Sum returns the attributed-cycle total (== Cycles by construction;
// exported so tests and the pok-prof self-check can assert it).
func (st *CPIStack) Sum() int64 {
	var n int64
	for _, c := range st.Comp {
		n += c
	}
	return n
}

// Merge folds o into st component-by-component, summing Cycles and
// Insts. Because each side's Comp sums to its Cycles by construction,
// the merged stack keeps the invariant (Sum() == Cycles) — the exported
// mergeable accumulator the fleet metrics pipeline aggregates across
// cells and workers. Merge is associative and commutative; a nil o is
// a no-op. Benchmark/Config labels are kept when they agree and
// cleared when they conflict.
func (st *CPIStack) Merge(o *CPIStack) {
	if o == nil {
		return
	}
	st.Benchmark = mergeLabel(st.Benchmark, o.Benchmark)
	st.Config = mergeLabel(st.Config, o.Config)
	st.Cycles += o.Cycles
	st.Insts += o.Insts
	for i := range st.Comp {
		st.Comp[i] += o.Comp[i]
	}
}

// mergeLabel keeps a label two sides agree on; "" is the identity and
// the result of a conflict (a merged stack spanning two benchmarks has
// no single benchmark).
func mergeLabel(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "" || a == b:
		return a
	}
	return ""
}

// Clone returns an independent copy (nil in, nil out).
func (st *CPIStack) Clone() *CPIStack {
	if st == nil {
		return nil
	}
	c := *st
	return &c
}

// Accountant is the streaming CPI-stack builder: a chained
// telemetry.Collector that attributes each commit gap as the commit
// arrives and forwards every event and sample unchanged to an inner
// collector (typically the standard Recorder; nil to account alone).
// It keeps state only for instructions in flight plus a few counters,
// never the stream itself, so a run of any length accounts in constant
// memory. It only reads value-typed events, so attaching it cannot
// perturb simulated timing.
//
// Cycles in which an instruction committed are CompBase. Every
// zero-commit gap cycle is attributed through the *next* committing
// instruction — with in-order commit the next committer is exactly the
// window head during the gap, so its oldest-unresolved obligation is
// what the machine was waiting for:
//
//   - before its dispatch, when the previous commit was a mispredicted
//     branch: CompBranch — the gap is the mispredict shadow (resolve
//     wait plus refetch and front-end refill), the penalty §5's early
//     resolution shrinks; interval accounting charges the whole refill
//     to the mispredict;
//   - otherwise before its fetch, or fetched but within the front-end
//     pipeline depth: CompFetch;
//   - front end cleared but not dispatched: CompWindow;
//   - dispatched: the component of the commit's dependence class
//     (EvCommit.Arg2) — slice, replay, LSQ, D-cache, branch, DRAM.
//
// Cycles after the last commit (pipeline drain) are CompFetch.
//
// The front-end depth is the one whole-run quantity: the minimum
// fetch-to-dispatch distance over every commit (the first instruction
// after a quiet front end dispatches unblocked). It only decides how a
// fetched-but-undispatched stretch splits between CompFetch and
// CompWindow, so such cycles are booked to CompWindow as they arrive,
// and those within the running minimum of their instruction's fetch
// are also counted by that offset; Stack moves the ones below the
// final minimum to CompFetch.
type Accountant struct {
	inner    telemetry.Collector
	inflight map[uint64]instRec

	acc      CPIStack // Insts and Comp so far; Cycles is set by Stack
	prev     int64    // last attributed cycle (commit or gap)
	shadowed bool     // previous commit was a mispredicted branch
	maxCycle int64    // latest event cycle
	frontLat int64    // running minimum fetch-to-dispatch depth
	// early[o] counts the CompWindow cycles booked o cycles after
	// their instruction's fetch, for o below frontLat.
	early []int64
}

// instRec is one in-flight correct-path instruction's timing.
type instRec struct {
	fetchC  int64
	dispC   int64
	hasDisp bool
	mispred bool
}

// NewAccountant chains a streaming CPI-stack accountant in front of
// inner (which may be nil).
func NewAccountant(inner telemetry.Collector) *Accountant {
	return &Accountant{
		inner:    inner,
		inflight: make(map[uint64]instRec),
		prev:     -1,
		frontLat: 1 << 62,
	}
}

// Event implements telemetry.Collector.
func (a *Accountant) Event(ev telemetry.Event) {
	if a.inner != nil {
		a.inner.Event(ev)
	}
	if ev.Cycle > a.maxCycle {
		a.maxCycle = ev.Cycle
	}
	switch ev.Kind {
	case telemetry.EvFetch:
		if ev.Arg2 == 0 { // a wrong-path fetch never commits
			a.inflight[ev.Seq] = instRec{fetchC: ev.Cycle}
		}
	case telemetry.EvDispatch:
		if r, ok := a.inflight[ev.Seq]; ok {
			r.dispC, r.hasDisp = ev.Cycle, true
			a.inflight[ev.Seq] = r
		}
	case telemetry.EvBranchResolve:
		if r, ok := a.inflight[ev.Seq]; ok {
			r.mispred = ev.Arg2&telemetry.ResolveMispredict != 0
			a.inflight[ev.Seq] = r
		}
	case telemetry.EvSquash:
		delete(a.inflight, ev.Seq)
	case telemetry.EvCommit:
		r, ok := a.inflight[ev.Seq]
		delete(a.inflight, ev.Seq)
		if !ok || !r.hasDisp || r.dispC < r.fetchC {
			// Fetch or dispatch unseen (a stream that starts mid-run)
			// or out of order: clamp both to the commit cycle so the
			// gap stays well-formed.
			r.fetchC, r.dispC = ev.Cycle, ev.Cycle
		}
		a.commit(ev.Cycle, ev.Arg2, r)
	}
}

// commit accounts the gap before one commit at cycle end, whose
// dependence class is dep.
func (a *Accountant) commit(end, dep int64, r instRec) {
	a.acc.Insts++
	if d := r.dispC - r.fetchC; d < a.frontLat {
		a.frontLat = d
		if int64(len(a.early)) > d {
			a.early = a.early[:d]
		}
	}
	lo := a.prev + 1
	span := func(from, to int64) int64 { return max(0, min(end, to)-max(lo, from)) }
	if a.shadowed {
		a.acc.Comp[CompBranch] += span(lo, r.dispC)
	} else {
		a.acc.Comp[CompFetch] += span(lo, r.fetchC)
		a.acc.Comp[CompWindow] += span(r.fetchC, r.dispC)
		for x := max(lo, r.fetchC); x < min(end, r.dispC, r.fetchC+a.frontLat); x++ {
			o := x - r.fetchC
			for int64(len(a.early)) <= o {
				a.early = append(a.early, 0)
			}
			a.early[o]++
		}
	}
	a.acc.Comp[depComponent(dep)] += span(r.dispC, end)
	if end > a.prev {
		a.acc.Comp[CompBase]++ // first commit in this cycle
		a.prev = end
	}
	a.shadowed = r.mispred
}

// CycleSample implements telemetry.Collector.
func (a *Accountant) CycleSample(cs telemetry.CycleSample) {
	if a.inner != nil {
		a.inner.CycleSample(cs)
	}
}

// Summary implements telemetry.Collector by forwarding the inner
// collector's aggregation (nil when accounting without a Recorder).
func (a *Accountant) Summary() *telemetry.Summary {
	if a.inner != nil {
		return a.inner.Summary()
	}
	return nil
}

// Stack returns the run's CPI stack so far. totalCycles is the run's
// cycle count (core.Result.Cycles, or the dump meta's cycles field);
// when <= 0 it is inferred as the last event cycle + 1, which
// undercounts only the silent drain tail. It is an error for the
// stream to commit at or after totalCycles.
func (a *Accountant) Stack(totalCycles int64) (*CPIStack, error) {
	if totalCycles <= 0 {
		totalCycles = a.maxCycle + 1
	}
	if a.prev >= totalCycles {
		return nil, fmt.Errorf("profile: commit at cycle %d in a run of %d cycles", a.prev, totalCycles)
	}
	st := a.acc
	st.Cycles = totalCycles
	for _, n := range a.early {
		st.Comp[CompWindow] -= n
		st.Comp[CompFetch] += n
	}
	st.Comp[CompFetch] += totalCycles - (a.prev + 1) // drain tail
	return &st, nil
}

// BuildCPIStack replays a stored event stream through an Accountant:
// the offline (dump) path and the live path share one implementation.
// totalCycles is as for Accountant.Stack.
func BuildCPIStack(events []telemetry.Event, totalCycles int64) (*CPIStack, error) {
	a := NewAccountant(nil)
	for i := range events {
		a.Event(events[i])
	}
	return a.Stack(totalCycles)
}

// Render formats the stack as the fixed-width report pok-prof prints.
func (st *CPIStack) Render() string {
	var b strings.Builder
	name := st.Benchmark
	if st.Config != "" {
		if name != "" {
			name += " / "
		}
		name += st.Config
	}
	if name == "" {
		name = "run"
	}
	fmt.Fprintf(&b, "CPI stack: %s\n", name)
	fmt.Fprintf(&b, "  cycles %d  insts %d  CPI %.4f\n", st.Cycles, st.Insts, st.CPI())
	for i := 0; i < NumComponents; i++ {
		cyc := st.Comp[i]
		pct := 0.0
		if st.Cycles > 0 {
			pct = 100 * float64(cyc) / float64(st.Cycles)
		}
		bar := strings.Repeat("#", int(pct/2.5+0.5))
		fmt.Fprintf(&b, "  %-18s %10d  %5.1f%%  %s\n",
			Component(i).Label(), cyc, pct, bar)
	}
	fmt.Fprintf(&b, "  %-18s %10d  100.0%%\n", "total", st.Sum())
	return b.String()
}

// RenderCompare formats a side-by-side CPI-stack diff between two
// runs (pok-prof -compare). Deltas are relative to a.
func RenderCompare(a, b *CPIStack) string {
	var sb strings.Builder
	la, lb := a.label(), b.label()
	fmt.Fprintf(&sb, "CPI-stack compare: %s vs %s\n", la, lb)
	fmt.Fprintf(&sb, "  %-18s %12s %12s %9s\n", "component", la, lb, "delta")
	for i := 0; i < NumComponents; i++ {
		ca, cb := a.Comp[i], b.Comp[i]
		var delta string
		switch {
		case ca == 0 && cb == 0:
			delta = "-"
		case ca == 0:
			delta = "new"
		default:
			delta = fmt.Sprintf("%+.1f%%", 100*float64(cb-ca)/float64(ca))
		}
		fmt.Fprintf(&sb, "  %-18s %12d %12d %9s\n",
			Component(i).Label(), ca, cb, delta)
	}
	fmt.Fprintf(&sb, "  %-18s %12d %12d %9s\n", "total", a.Cycles, b.Cycles,
		fmt.Sprintf("%+.1f%%", pctDelta(a.Cycles, b.Cycles)))
	fmt.Fprintf(&sb, "  %-18s %12.4f %12.4f %9s\n", "CPI", a.CPI(), b.CPI(), "")
	return sb.String()
}

func pctDelta(a, b int64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * float64(b-a) / float64(a)
}

func (st *CPIStack) label() string {
	switch {
	case st.Benchmark != "" && st.Config != "":
		return st.Benchmark + "/" + st.Config
	case st.Benchmark != "":
		return st.Benchmark
	case st.Config != "":
		return st.Config
	}
	return "run"
}
