package telemetry

import (
	"fmt"
	"runtime"
	"testing"
)

// TestRingModel drives rings of several capacities against a reference
// that keeps the last capacity events in a plain slice, across the
// empty, just-below, exactly-full, just-wrapped and multiply-wrapped
// fills, including a ring that keeps no events and capacities either
// side of the initial backing size and of the largest bound allocated
// whole (which must be, while a larger one starts at the initial size).
func TestRingModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, initialRingCap, initialRingCap + 1, 5000,
		smallRingCap, smallRingCap + 1} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
			t.Run(fmt.Sprintf("cap%d/n%d", capacity, n), func(t *testing.T) {
				r := NewRing(capacity)
				want := capacity
				if capacity > smallRingCap {
					want = initialRingCap
				}
				if cap(r.buf) != want {
					t.Fatalf("new ring has room for %d events, want %d", cap(r.buf), want)
				}
				var ref []Event
				for i := 0; i < n; i++ {
					ev := Event{Cycle: int64(i), Seq: uint64(i), Kind: Kind(i % NumKinds), Slice: -1}
					r.Record(ev)
					ref = append(ref, ev)
					if len(ref) > capacity {
						ref = ref[1:]
					}
					if cap(r.buf) > capacity {
						t.Fatalf("after %d events cap(buf) = %d exceeds the bound %d", i+1, cap(r.buf), capacity)
					}
					if r.Len() != len(ref) {
						t.Fatalf("after %d events Len = %d, want %d", i+1, r.Len(), len(ref))
					}
				}
				if want := uint64(max(n-capacity, 0)); r.Dropped() != want {
					t.Fatalf("Dropped = %d, want %d", r.Dropped(), want)
				}
				got := r.Events()
				if len(got) != len(ref) {
					t.Fatalf("Events has %d entries, want %d", len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("event %d = %+v, want %+v", i, got[i], ref[i])
					}
				}
			})
		}
	}
}

// TestNewRecorderAllocBound guards against the ring being sized to its
// bound up front: a default Recorder must cost a small fixed amount,
// not DefaultRingCap events.
func TestNewRecorderAllocBound(t *testing.T) {
	const limit = 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := NewRecorder(RecorderConfig{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rec)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("NewRecorder allocated %d bytes, want < %d", got, limit)
	}
}

// TestRingFullRecordZeroAllocs: once the ring has reached its bound,
// recording overwrites in place.
func TestRingFullRecordZeroAllocs(t *testing.T) {
	r := NewRing(3 * initialRingCap)
	for i := 0; i < 3*initialRingCap; i++ {
		r.Record(Event{Seq: uint64(i)})
	}
	ev := Event{Kind: EvCommit, Slice: -1}
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Seq++
		r.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("Record on a full ring allocates %.1f allocs/op, want 0", allocs)
	}
}
