package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pok/internal/profile"
	"pok/internal/stats"
	"pok/internal/telemetry"
)

// genStack builds a random CPI stack whose components sum to Cycles
// (the invariant BuildCPIStack guarantees by construction) and whose
// Config label matches its map key, as real snapshots carry.
func genStack(r *rand.Rand, cfg string) *profile.CPIStack {
	st := &profile.CPIStack{Config: cfg, Insts: uint64(r.Intn(10_000))}
	for i := range st.Comp {
		st.Comp[i] = int64(r.Intn(5_000))
		st.Cycles += st.Comp[i]
	}
	return st
}

func genHist(r *rand.Rand) *stats.Histogram {
	if r.Intn(4) == 0 {
		return nil
	}
	h := &stats.Histogram{Bins: make([]uint64, 1+r.Intn(16))}
	for i := range h.Bins {
		h.Bins[i] = uint64(r.Intn(100))
		h.Total += h.Bins[i]
		h.Sum += uint64(i) * h.Bins[i]
		if h.Bins[i] > 0 {
			h.Max = i
		}
	}
	return h
}

func genSummary(r *rand.Rand) *telemetry.Summary {
	if r.Intn(4) == 0 {
		return nil
	}
	s := &telemetry.Summary{
		CyclesSampled:     uint64(r.Intn(100_000)),
		EventsDropped:     uint64(r.Intn(3)),
		ReplayLoadLatency: uint64(r.Intn(50)),
		ReplayPendingAddr: uint64(r.Intn(50)),
		ResolvesEarly:     uint64(r.Intn(50)),
		ResolvesFull:      uint64(r.Intn(50)),
		WindowOcc:         genHist(r),
		IQOcc:             genHist(r),
		LSQOcc:            genHist(r),
		IssueUse:          genHist(r),
		PortUse:           genHist(r),
	}
	// nil or non-empty, never empty-non-nil: Merge's lazy map allocation
	// would otherwise distinguish the two orders.
	if n := r.Intn(4); n > 0 {
		s.Events = make(map[string]uint64, n)
		for _, k := range []string{"commit", "squash", "replay"}[:n] {
			s.Events[k] = uint64(r.Intn(1_000))
		}
	}
	return s
}

func genSnapshot(r *rand.Rand) *Snapshot {
	s := &Snapshot{
		Programs:        r.Intn(100),
		Runs:            r.Intn(100),
		Findings:        r.Intn(5),
		Insts:           uint64(r.Intn(1_000_000)),
		Cycles:          int64(r.Intn(1_000_000)),
		WallNanos:       int64(r.Intn(1_000_000)),
		Replays:         uint64(r.Intn(1_000)),
		RPCRetries:      int64(r.Intn(5)),
		TransportErrors: int64(r.Intn(5)),
		Telemetry:       genSummary(r),
	}
	if n := r.Intn(4); n > 0 {
		s.Stacks = make(map[string]*profile.CPIStack, n)
		for _, cfg := range []string{"simple4", "slice2", "slice4"}[:n] {
			s.Stacks[cfg] = genStack(r, cfg)
		}
	}
	return s
}

func merged(a, b *Snapshot) *Snapshot {
	m := a.Clone()
	m.Merge(b)
	return m
}

// TestMergeCommutative: a+b == b+a for random snapshots, so the
// coordinator's fold is independent of cell arrival order.
func TestMergeCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a, b := genSnapshot(r), genSnapshot(r)
		ab, ba := merged(a, b), merged(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("iter %d: merge not commutative:\na+b = %+v\nb+a = %+v", i, ab, ba)
		}
	}
}

// TestMergeAssociative: (a+b)+c == a+(b+c), so re-folds after requeues
// and partial-lease merges agree with one-shot folds.
func TestMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a, b, c := genSnapshot(r), genSnapshot(r), genSnapshot(r)
		left := merged(merged(a, b), c)
		right := merged(a, merged(b, c))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("iter %d: merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v",
				i, left, right)
		}
	}
}

// TestMergePreservesStackInvariant: per-config component cycles sum to
// the config's attributed total after arbitrary merges — the property
// the /metrics acceptance check scrapes for.
func TestMergePreservesStackInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	acc := &Snapshot{}
	var wantCycles int64
	for i := 0; i < 50; i++ {
		s := genSnapshot(r)
		wantCycles += s.Cycles
		acc.Merge(s)
	}
	if acc.Cycles != wantCycles {
		t.Fatalf("merged Cycles = %d, want %d", acc.Cycles, wantCycles)
	}
	for cfg, st := range acc.Stacks {
		if st.Sum() != st.Cycles {
			t.Fatalf("config %s: component sum %d != cycles %d", cfg, st.Sum(), st.Cycles)
		}
		if st.Config != cfg {
			t.Fatalf("config %s: merged stack label %q", cfg, st.Config)
		}
	}
}

// TestAddRun: runs fold their stack/summary into the per-config
// accumulators and the squash/drop counters come from the summary.
func TestAddRun(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	s := &Snapshot{}
	st1, st2 := genStack(r, "slice2"), genStack(r, "slice2")
	sum := &telemetry.Summary{
		Events:        map[string]uint64{"squash": 7, "commit": 100},
		EventsDropped: 2,
	}
	s.AddRun("slice2", 1000, st1.Cycles, 3, st1, sum, 2*time.Second)
	s.AddRun("slice2", 500, st2.Cycles, 1, st2, nil, time.Second)
	s.AddRun("slice4", 0, 0, 0, nil, nil, time.Second) // failed run: counts only

	if s.Runs != 3 || s.Insts != 1500 || s.Replays != 4 {
		t.Fatalf("runs=%d insts=%d replays=%d, want 3/1500/4", s.Runs, s.Insts, s.Replays)
	}
	if s.Squashes() != 7 || s.EventsDropped() != 2 {
		t.Fatalf("squashes=%d dropped=%d, want 7/2", s.Squashes(), s.EventsDropped())
	}
	if len(s.Stacks) != 1 {
		t.Fatalf("stacks = %v, want just slice2", s.Stacks)
	}
	got := s.Stacks["slice2"]
	if got.Cycles != st1.Cycles+st2.Cycles || got.Sum() != got.Cycles {
		t.Fatalf("slice2 stack cycles=%d sum=%d, want both %d",
			got.Cycles, got.Sum(), st1.Cycles+st2.Cycles)
	}
	if s.WallNanos != int64(4*time.Second) {
		t.Fatalf("wall = %d, want 4s", s.WallNanos)
	}
	if mps := s.MinstPerSec(); mps < 0.00037 || mps > 0.00038 {
		t.Fatalf("MinstPerSec = %v, want 1500 insts / 4s = 0.000375", mps)
	}
}

// TestCloneIndependent: mutating a clone never leaks into the source —
// the property that lets workers hand snapshots to in-flight RPC
// encoding while the soak loop keeps accumulating.
func TestCloneIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var orig *Snapshot
	for orig == nil || orig.Stacks == nil || orig.Telemetry == nil ||
		orig.Telemetry.WindowOcc == nil {
		orig = genSnapshot(r)
	}
	want := orig.Clone()
	cl := orig.Clone()
	cl.Runs++
	for _, st := range cl.Stacks {
		st.Cycles++
	}
	cl.Telemetry.WindowOcc.Bins[0]++
	cl.Telemetry.Events["commit"]++
	if !reflect.DeepEqual(orig, want) {
		t.Fatalf("mutating a clone changed the source:\ngot  %+v\nwant %+v", orig, want)
	}
	if (*Snapshot)(nil).Clone() != nil {
		t.Fatal("nil.Clone() != nil")
	}
}
