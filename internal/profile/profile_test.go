package profile

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pok/internal/telemetry"
)

// Synthetic-stream unit tests for the attribution logic itself: the
// workload sweep in cpistack_test.go proves conservation at scale, and
// these pin *which* component individual gap cycles land in.

// TestCPIStackGapAttribution builds a hand-written stream:
//
//	#1: fetch 0, dispatch 1, commits at 3 waiting on nothing
//	#2: fetch 1, dispatch 2, commits at 9 waiting on DRAM
//	#3: fetch 10, dispatch 12, commits at 15 as a mispredicted branch
//	#4: fetch 16, dispatch 19, commits at 22 (in #3's shadow)
//
// with 24 total cycles. frontLat = min(disp-fetch) = 1.
func TestCPIStackGapAttribution(t *testing.T) {
	evs := []telemetry.Event{
		{Cycle: 0, Seq: 1, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 1, Seq: 1, Kind: telemetry.EvDispatch, Slice: -1},
		{Cycle: 3, Seq: 1, Kind: telemetry.EvCommit, Slice: -1, Arg: 2, Arg2: telemetry.CommitDepNone},
		{Cycle: 1, Seq: 2, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 2, Seq: 2, Kind: telemetry.EvDispatch, Slice: -1},
		{Cycle: 9, Seq: 2, Kind: telemetry.EvCommit, Slice: -1, Arg: 9, Arg2: telemetry.CommitDepDRAM},
		{Cycle: 10, Seq: 3, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 12, Seq: 3, Kind: telemetry.EvDispatch, Slice: -1},
		{Cycle: 14, Seq: 3, Kind: telemetry.EvBranchResolve, Slice: -1, Arg: 14, Arg2: telemetry.ResolveMispredict},
		{Cycle: 15, Seq: 3, Kind: telemetry.EvCommit, Slice: -1, Arg: 14, Arg2: telemetry.CommitDepBranch},
		{Cycle: 16, Seq: 4, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 19, Seq: 4, Kind: telemetry.EvDispatch, Slice: -1},
		{Cycle: 22, Seq: 4, Kind: telemetry.EvCommit, Slice: -1, Arg: 20, Arg2: telemetry.CommitDepSlice},
	}
	st, err := BuildCPIStack(evs, 24)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sum() != 24 {
		t.Fatalf("attributed %d of 24 cycles\n%s", st.Sum(), st.Render())
	}
	if st.Insts != 4 {
		t.Fatalf("insts = %d, want 4", st.Insts)
	}
	// Interval rules, cycle by cycle (frontLat = 1):
	//   cycle  0     -> #1 in front end (x < fetch+frontLat) -> fetch
	//   cycles 1,2   -> #1 post-dispatch, dep none           -> slice
	//   cycles 4-8   -> #2 post-dispatch, DRAM               -> dram
	//   cycle  10    -> #3 in front end                      -> fetch
	//   cycle  11    -> #3 renamed but not dispatched        -> window
	//   cycles 12-14 -> #3 post-dispatch, branch-resolution  -> branch
	//   cycles 16-18 -> #4 pre-dispatch in #3's shadow       -> branch
	//   cycles 19-21 -> #4 post-dispatch, slice              -> slice
	//   cycle  23    -> drain                                -> fetch
	checks := map[Component]int64{
		CompBase:   4, // commit cycles 3, 9, 15, 22
		CompFetch:  3,
		CompWindow: 1,
		CompSlice:  5,
		CompDRAM:   5,
		CompBranch: 6,
	}
	for comp, n := range checks {
		if st.Comp[comp] != n {
			t.Errorf("%s = %d cycles, want %d\n%s", comp.Label(), st.Comp[comp], n, st.Render())
		}
	}
}

// TestCPIStackLossyClamp feeds a stream whose fetch/dispatch events
// are missing (as in a stream that starts mid-run) and requires
// conservation to survive via the commit-cycle clamp.
func TestCPIStackLossyClamp(t *testing.T) {
	evs := []telemetry.Event{
		{Cycle: 5, Seq: 1, Kind: telemetry.EvCommit, Slice: -1, Arg: 5, Arg2: telemetry.CommitDepDCache},
		{Cycle: 9, Seq: 2, Kind: telemetry.EvCommit, Slice: -1, Arg: 9, Arg2: telemetry.CommitDepLSQ},
	}
	st, err := BuildCPIStack(evs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sum() != 12 {
		t.Fatalf("attributed %d of 12 cycles\n%s", st.Sum(), st.Render())
	}
	// Gap cycles before a clamped commit are all pre-fetch.
	if st.Comp[CompBase] != 2 {
		t.Errorf("base = %d, want 2", st.Comp[CompBase])
	}
}

// TestCPIStackRejectsShortTotal: a dump whose meta cycle count is
// shorter than its own commit stream is an error, not a stack that
// fails to sum.
func TestCPIStackRejectsShortTotal(t *testing.T) {
	evs := []telemetry.Event{
		{Cycle: 9, Seq: 1, Kind: telemetry.EvCommit, Slice: -1, Arg: 9, Arg2: telemetry.CommitDepNone},
	}
	if st, err := BuildCPIStack(evs, 9); err == nil {
		t.Fatalf("built a %d-cycle stack from a commit at cycle 9\n%s", st.Cycles, st.Render())
	}
}

// TestCPIStackSquashDropsRecord: a squashed seq must not leak its
// wrong-path record into a later commit with the same (reused) seq.
func TestCPIStackSquashDropsRecord(t *testing.T) {
	evs := []telemetry.Event{
		{Cycle: 0, Seq: 1, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 2, Seq: 1, Kind: telemetry.EvSquash, Slice: -1},
		// Reused seq 1 on the correct path.
		{Cycle: 4, Seq: 1, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 5, Seq: 1, Kind: telemetry.EvDispatch, Slice: -1},
		{Cycle: 7, Seq: 1, Kind: telemetry.EvCommit, Slice: -1, Arg: 6, Arg2: telemetry.CommitDepNone},
	}
	st, err := BuildCPIStack(evs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sum() != 8 || st.Insts != 1 {
		t.Fatalf("sum %d insts %d, want 8 and 1\n%s", st.Sum(), st.Insts, st.Render())
	}
	// Cycles 0-3 must route through the refetched record (fetchC=4), so
	// they are pre-fetch, not post-dispatch of the squashed ghost.
	if st.Comp[CompFetch] < 4 {
		t.Errorf("fetch = %d, want >= 4 (pre-refetch gap)\n%s", st.Comp[CompFetch], st.Render())
	}
}

// TestCriticalPathSyntheticChain rebuilds a three-instruction chain
// (producer slice ops -> consumer via recorded critical producer) and
// checks the walk follows the recorded edges.
func TestCriticalPathSyntheticChain(t *testing.T) {
	evs := []telemetry.Event{
		// #1: slices 0,1 carry chain, done at 3.
		{Cycle: 0, Seq: 1, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 1, Seq: 1, Kind: telemetry.EvSliceIssue, Slice: 0, Arg: 0},
		{Cycle: 1, Seq: 1, Kind: telemetry.EvSliceComplete, Slice: 0, Arg: 2},
		{Cycle: 2, Seq: 1, Kind: telemetry.EvSliceIssue, Slice: 1, Arg: -1},
		{Cycle: 2, Seq: 1, Kind: telemetry.EvSliceComplete, Slice: 1, Arg: 3},
		{Cycle: 3, Seq: 1, Kind: telemetry.EvCommit, Slice: -1, Arg: 3, Arg2: telemetry.CommitDepSlice},
		// #2: slice 0 waits on #1 (critArg = seq+1 = 2), slice 1 rides
		// its own carry chain; done at 6.
		{Cycle: 1, Seq: 2, Kind: telemetry.EvFetch, Slice: -1},
		{Cycle: 4, Seq: 2, Kind: telemetry.EvSliceIssue, Slice: 0, Arg: 2},
		{Cycle: 4, Seq: 2, Kind: telemetry.EvSliceComplete, Slice: 0, Arg: 5},
		{Cycle: 5, Seq: 2, Kind: telemetry.EvSliceIssue, Slice: 1, Arg: -1},
		{Cycle: 5, Seq: 2, Kind: telemetry.EvSliceComplete, Slice: 1, Arg: 6},
		{Cycle: 6, Seq: 2, Kind: telemetry.EvCommit, Slice: -1, Arg: 6, Arg2: telemetry.CommitDepSlice},
	}
	cp, err := BuildCriticalPath(evs)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Length != 6 {
		t.Fatalf("length = %d, want 6\n%s", cp.Length, cp.Render(0))
	}
	var sum int64
	for _, k := range cp.Kind {
		sum += k
	}
	if sum != cp.Length {
		t.Fatalf("kinds sum to %d, length %d\n%s", sum, cp.Length, cp.Render(0))
	}
	// The chain must include a slice edge (#2 <- #1) and a carry edge
	// (#1 s1 <- s0).
	if cp.Kind[EdgeSlice] == 0 || cp.Kind[EdgeCarry] == 0 {
		t.Fatalf("chain missed slice/carry edges:\n%s", cp.Render(0))
	}
	if cp.Steps[0].Seq != 2 {
		t.Fatalf("chain should end at #2:\n%s", cp.Render(0))
	}
}

// TestCriticalPathNoCommits: a stream with no commits has no path.
func TestCriticalPathNoCommits(t *testing.T) {
	evs := []telemetry.Event{
		{Cycle: 0, Seq: 1, Kind: telemetry.EvFetch, Slice: -1},
	}
	if _, err := BuildCriticalPath(evs); err != ErrNoCommits {
		t.Fatalf("err = %v, want ErrNoCommits", err)
	}
}

// TestWritePerfettoValidJSON runs the exporter over a synthetic stream
// and requires structurally valid Chrome trace-event JSON with the
// expected track metadata.
func TestWritePerfettoValidJSON(t *testing.T) {
	evs := []telemetry.Event{
		{Cycle: 0, Seq: 1, Kind: telemetry.EvFetch, Slice: -1, Arg: 0x400000},
		{Cycle: 2, Seq: 1, Kind: telemetry.EvDispatch, Slice: -1},
		{Cycle: 3, Seq: 1, Kind: telemetry.EvSliceIssue, Slice: 0, Arg: 0},
		{Cycle: 3, Seq: 1, Kind: telemetry.EvSliceComplete, Slice: 0, Arg: 4},
		{Cycle: 3, Seq: 1, Kind: telemetry.EvMemIssue, Slice: -1, Arg: 6},
		{Cycle: 5, Seq: 1, Kind: telemetry.EvBranchResolve, Slice: -1, Arg: 5, Arg2: telemetry.ResolveEarly},
		{Cycle: 6, Seq: 1, Kind: telemetry.EvCommit, Slice: -1, Arg: 6},
		{Cycle: 4, Seq: 2, Kind: telemetry.EvFetch, Slice: -1, Arg: 0x400004, Arg2: 1},
		{Cycle: 5, Seq: 2, Kind: telemetry.EvSquash, Slice: -1},
	}
	sp := NewSelfProfile()
	sp.Phase("unit")()
	var b bytes.Buffer
	if err := WritePerfetto(&b, evs, PerfettoOptions{Self: sp}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	out := b.String()
	for _, want := range []string{"process_name", "thread_name", "front end", "commit", "squash"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestPerfettoMaxEventsCap: the exporter truncates at MaxEvents
// without corrupting the JSON envelope.
func TestPerfettoMaxEventsCap(t *testing.T) {
	var evs []telemetry.Event
	for i := 0; i < 200; i++ {
		evs = append(evs,
			telemetry.Event{Cycle: int64(i), Seq: uint64(i + 1), Kind: telemetry.EvFetch, Slice: -1},
			telemetry.Event{Cycle: int64(i + 1), Seq: uint64(i + 1), Kind: telemetry.EvDispatch, Slice: -1},
			telemetry.Event{Cycle: int64(i + 3), Seq: uint64(i + 1), Kind: telemetry.EvCommit, Slice: -1, Arg: int64(i + 3)},
		)
	}
	var b bytes.Buffer
	if err := WritePerfetto(&b, evs, PerfettoOptions{MaxEvents: 50}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("truncated trace is invalid JSON: %v", err)
	}
}
