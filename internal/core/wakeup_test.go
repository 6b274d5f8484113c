package core

import (
	"fmt"
	"testing"

	"pok/internal/workload"
)

// TestWakeupCoherence holds the event-driven scheduler's slice-precise
// wakeup to its contract. A producer event invalidates and re-enqueues
// only the consumer slice-ops that read an output view it determined, so
// a missed rule would leave a stale memo or a lost wakeup behind. The
// machine is stepped one cycle at a time (no quiet-cycle skipping) and,
// after every cycle, every unstarted slice-op in the window must show:
//
//	(a) every valid memoized depsAvail equals a fresh evaluation, in
//	    both the speculative and the ground-truth view;
//	(b) the depsKnown bit test agrees with depsAvail(announce) < inf;
//	(c) a finite wake time outside the ready set is backed by a live
//	    wheel (or overflow) candidate carrying that wake time.
func TestWakeupCoherence(t *testing.T) {
	insts := uint64(20_000)
	if testing.Short() {
		insts = 4_000
	}
	configs := []Config{SimplePipelined(4), BitSliced(2), BitSliced(4), kitchenSinkConfig()}
	for _, bench := range workload.Names() {
		w := workload.MustGet(bench)
		for _, cfg := range configs {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/%s", bench, cfg.Name), func(t *testing.T) {
				t.Parallel()
				stepCoherent(t, w, cfg, insts)
			})
		}
	}
}

// stepCoherent runs w under cfg cycle by cycle for maxInsts committed
// instructions, checking the wakeup state after each cycle.
func stepCoherent(t *testing.T, w *workload.Workload, cfg Config, maxInsts uint64) {
	t.Helper()
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(prog, cfg, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if w.FastForward > 0 {
		if err := s.FastForward(w.FastForward); err != nil {
			t.Fatal(err)
		}
	}
	for !s.drained() {
		if _, err := s.cycle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.window.Len(); i++ {
			if err := checkWakeState(s, s.window.At(i)); err != nil {
				t.Fatalf("cycle %d: %v", s.now, err)
			}
		}
		s.now++
		if s.now > 2_000_000 {
			t.Fatal("run did not drain")
		}
	}
}

// checkWakeState verifies rules (a)-(c) of TestWakeupCoherence for the
// unstarted slice-ops of e.
func checkWakeState(s *Sim, e *entry) error {
	if !e.dispatched || e.committed || e.squashed {
		return nil
	}
	for sl := 0; sl < e.nSlices; sl++ {
		st := &e.slices[sl]
		if st.started {
			continue
		}
		for a, announce := range []bool{false, true} {
			if e.depsOK[sl][a] {
				if got, want := e.depsVal[sl][a], s.depsAvail(e, sl, announce); got != want {
					return fmt.Errorf("#%d slice %d announce=%v: memo %d, fresh depsAvail %d",
						e.seq, sl, announce, got, want)
				}
			}
		}
		wake := s.depsAvail(e, sl, true)
		if known := depsKnown(e, sl); known != (wake < inf) {
			return fmt.Errorf("#%d slice %d: depsKnown %v, depsAvail %d", e.seq, sl, known, wake)
		}
		if wake < inf && !st.inReady && !wheelHolds(&s.wh, e, sl, wake) {
			return fmt.Errorf("#%d slice %d: wake %d but no live candidate (lost wakeup)",
				e.seq, sl, wake)
		}
	}
	return nil
}

// wheelHolds reports whether the wheel holds a live candidate for slice
// sl of e due at wake. A wake at or past the horizon sits in the
// overflow list; a wake in the past was clamped into some later bucket
// at push time, so only then are all buckets searched.
func wheelHolds(w *wakeWheel, e *entry, sl int, wake int64) bool {
	match := func(cs []cand) bool {
		for _, c := range cs {
			if c.e == e && c.gen == e.gen && int(c.sl) == sl && c.wake == wake {
				return true
			}
		}
		return false
	}
	if match(w.overflow) || match(w.bucket[max(wake, w.base)&wheelMask]) {
		return true
	}
	if wake < w.base {
		for _, bk := range w.bucket {
			if match(bk) {
				return true
			}
		}
	}
	return false
}
