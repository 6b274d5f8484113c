// Package telemetry is the timing model's structured observability
// layer: a bounded, ring-buffered event stream plus per-cycle
// occupancy and stall-cause histograms.
//
// The timing core (internal/core) emits one fixed-size Event per
// pipeline occurrence — fetch, dispatch, slice-issue, slice-complete,
// replay, partial-match verify, branch resolution, memory issue,
// commit, squash — through the Collector interface. With a nil
// Collector the instrumentation reduces to one predictable branch per
// site, so the disabled path stays off the scheduler's hot path; with
// the standard Recorder attached, events land in a ring that grows on
// demand up to its bound and per-cycle samples fold into fixed-size
// histograms, so a run allocates in proportion to the events it keeps
// and a full ring allocates nothing.
//
// The package also provides the offline halves of the pipeline:
// JSONL export/import of event dumps (jsonl.go), an aggregated
// machine-readable Summary (summary.go), and the per-instruction
// slice-pipeline timeline renderer behind pok-prof (timeline.go).
package telemetry

// Kind enumerates the structured pipeline event taxonomy.
type Kind uint8

const (
	// EvFetch: an instruction entered the fetch buffer.
	// Arg = PC, Arg2 = 1 when fetched on the wrong path.
	EvFetch Kind = iota
	// EvDispatch: the instruction was renamed into the window.
	EvDispatch
	// EvSliceIssue: slice Slice won an issue slot and began execution.
	// Arg = the critical producer of the slice-op: seq+1 of the
	// latest-arriving register producer, -1 when the entry's own previous
	// slice (carry chain / in-order slice issue) gated it, 0 when every
	// operand was ready at dispatch. The offline critical-path extractor
	// (internal/profile) rebuilds the per-slice dependence DAG from this.
	// Arg2 = 1 when the op is full-width (Slice is then always 0).
	EvSliceIssue
	// EvSliceComplete: slice Slice's result becomes bypassable.
	// Arg = the cycle the result is available.
	EvSliceComplete
	// EvReplay: a slice-op issued speculatively and must replay.
	// Arg = earliest retry cycle (0 = retry when a slot frees),
	// Arg2 = replay cause (ReplayLoadLatency / ReplayPendingAddr).
	EvReplay
	// EvMemIssue: a load was sent to the memory system.
	// Arg = established completion cycle (or a large sentinel while
	// deferred), Arg2 = 1 when satisfied by store forwarding.
	EvMemIssue
	// EvPartialVerify: a partial-tag access classified its match.
	// Arg = the cache's partial-match class, Arg2 = 1 on way mispredict.
	EvPartialVerify
	// EvBranchResolve: a control instruction resolved.
	// Arg = resolution cycle, Arg2 = resolution flags
	// (ResolveEarly|ResolveMispredict).
	EvBranchResolve
	// EvCommit: the instruction retired architecturally.
	// Arg = the cycle the instruction's last pipeline obligation
	// completed (it was commit-ready from Arg onward and retired when it
	// reached the window head under the commit width), Arg2 = the
	// CommitDep* classification of that oldest-unresolved obligation.
	// The CPI-stack builder (internal/profile) attributes zero-commit
	// gap cycles to the component named by the next commit's Arg2.
	EvCommit
	// EvSquash: a wrong-path instruction was removed from the machine.
	EvSquash

	// NumKinds is the size of the taxonomy.
	NumKinds = int(EvSquash) + 1
)

// Replay causes (EvReplay.Arg2).
const (
	// ReplayLoadLatency: a producer load announced a hit but missed (or
	// was slower than the speculative wakeup assumed).
	ReplayLoadLatency = int64(iota)
	// ReplayPendingAddr: the producer is a partial-tag load whose
	// completion time is still unknown pending its full address.
	ReplayPendingAddr
	// ReplayInjected: the slice result was declared corrupt by a fault
	// injector (internal/check/inject); the verify stage caught it and
	// the slice-op replays, exactly like a hardware soft-error recovery.
	ReplayInjected
)

// Commit dependence classes (EvCommit.Arg2): which pipeline obligation
// of the committing instruction finished last. Computed by the core at
// commit from shared producer state so both schedulers classify
// identically; consumed by the CPI-stack builder to attribute
// zero-commit gap cycles.
const (
	// CommitDepNone: every obligation was satisfied as soon as the
	// instruction dispatched (single-cycle op, operands ready).
	CommitDepNone = int64(iota)
	// CommitDepSlice: the last obligation was slice execution — the op
	// waited on slice-dependence edges (operands, carry chain, in-order
	// slice issue) or on issue bandwidth.
	CommitDepSlice
	// CommitDepReplay: as CommitDepSlice, but at least one of the
	// entry's own slice-ops replayed, so replay recovery is the binding
	// cost.
	CommitDepReplay
	// CommitDepLSQ: a load whose completion was gated by load/store
	// queue disambiguation (held back, or satisfied by store forwarding).
	CommitDepLSQ
	// CommitDepDCache: a load that hit the D-cache; its completion time
	// is the cache access itself.
	CommitDepDCache
	// CommitDepWayMispredict: a load whose partial-tag way prediction
	// was wrong; completion waited for the full-address verification
	// replay (§5.2).
	CommitDepWayMispredict
	// CommitDepDRAM: a load that missed the L1 D-cache; completion
	// waited on the lower memory hierarchy.
	CommitDepDRAM
	// CommitDepBranch: a control instruction whose resolution was the
	// last obligation (§5 early branch resolution shrinks this).
	CommitDepBranch

	numCommitDeps = int(CommitDepBranch) + 1
)

// CommitDepName returns a stable short label for a CommitDep* class
// (used by CPI-stack rendering and the JSONL-facing tools).
func CommitDepName(dep int64) string {
	names := [numCommitDeps]string{
		"none", "slice", "replay", "lsq", "dcache", "way-mispredict",
		"dram", "branch",
	}
	if dep >= 0 && dep < int64(numCommitDeps) {
		return names[dep]
	}
	return "unknown"
}

// Branch resolution flags (EvBranchResolve.Arg2).
const (
	// ResolveMispredict marks the resolved branch as mispredicted.
	ResolveMispredict = int64(1) << iota
	// ResolveEarly marks a mispredict exposed by a partial comparison
	// before the full-width compare finished (paper §5).
	ResolveEarly
)

var kindNames = [NumKinds]string{
	EvFetch:         "fetch",
	EvDispatch:      "dispatch",
	EvSliceIssue:    "slice-issue",
	EvSliceComplete: "slice-complete",
	EvReplay:        "replay",
	EvMemIssue:      "mem-issue",
	EvPartialVerify: "partial-verify",
	EvBranchResolve: "branch-resolve",
	EvCommit:        "commit",
	EvSquash:        "squash",
}

// String returns the stable wire name of the kind (used by the JSONL
// dump and the golden event-stream tests).
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; ok reports whether name is a known
// event kind.
func KindFromString(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one fixed-size structured pipeline event. It carries no
// pointers and no strings so a ring of them is a single flat
// allocation and recording one is a copy.
type Event struct {
	Cycle int64  // cycle the event was emitted
	Seq   uint64 // dynamic instruction sequence number
	Arg   int64  // kind-specific payload (see Kind docs)
	Arg2  int64  // kind-specific payload (see Kind docs)
	Kind  Kind
	Slice int8 // slice index, -1 when not slice-scoped
}

// CycleSample is the per-cycle occupancy snapshot the core publishes
// once per simulated clock.
type CycleSample struct {
	Cycle  int64
	Window int // RUU entries in flight
	IQ     int // window entries still holding an issue-queue slot
	LSQ    int // load/store queue occupancy
	Issued int // issue slots consumed this cycle (all slices)
	Ports  int // D$ ports consumed this cycle
}

// Collector receives the structured event stream and the per-cycle
// samples. Implementations must not retain pointers into the core;
// both payload types are plain values.
//
// The core guards every emission with a cached boolean, so a nil
// Collector costs one branch per site and nothing else.
type Collector interface {
	// Event records one pipeline event.
	Event(ev Event)
	// CycleSample records the end-of-cycle occupancy snapshot.
	CycleSample(cs CycleSample)
	// Summary renders whatever the collector aggregated; collectors
	// that only forward events may return nil.
	Summary() *Summary
}
