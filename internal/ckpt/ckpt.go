// Package ckpt is the architectural checkpoint layer: a versioned,
// checksummed snapshot format for the simulator's complete state —
// emulator memory pages (with dirty-page deltas between periodic full
// rebase snapshots), register file, instruction/cycle counters, and the
// warm microarchitectural state (branch predictor, BTB, cache tags and
// MRU way pointers, TLB) — so a run resumed from a checkpoint is
// bit-identical to one that was never interrupted.
//
// Files are written atomically (WriteAtomic: temp + fsync + rename +
// directory fsync), every section carries an FNV-64a content hash, and
// the decoder classifies damage with structured errors: a truncated
// tail (the crash-mid-write case, like the PR 8 fleet journal) is
// *TruncatedError and tolerated by falling back to an older snapshot;
// mid-file corruption or a version mismatch is refused with
// *CorruptError / *VersionError.
package ckpt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pok/internal/bpred"
	"pok/internal/cache"
	"pok/internal/emu"
)

// Version is the current checkpoint format version. The decoder refuses
// any other version with *VersionError — checkpoint files are exact
// machine state, so cross-version compatibility shims would silently
// break the bit-identical-resume guarantee.
const Version = 1

// Meta identifies a snapshot: which run it belongs to (benchmark,
// config, scheduler, emulator flavor), where in the run it was taken,
// and its position in a delta chain.
type Meta struct {
	Benchmark string
	Config    string
	Scheduler string // "event" | "legacy"
	Emulator  string // "fast" | "legacy"

	// Insts/Cycles locate the capture point: committed instructions and
	// the cycle counter at the quiescent drain boundary.
	Insts  uint64
	Cycles int64

	// ID sequences snapshots within one run (1-based). BaseID/BaseFile
	// link a delta snapshot to its parent: BaseID 0 marks a full
	// snapshot; otherwise BaseFile names the parent file (relative to
	// this file's directory) whose Meta.ID must equal BaseID.
	ID       uint64
	BaseID   uint64
	BaseFile string
}

// Snapshot is one complete architectural checkpoint. Emu carries the
// memory image (delta pages only when Meta.BaseID != 0); Bpred, Hier
// and DTLB the warm microarchitectural state; Core the timing core's
// opaque section (cycle counter, partial Result, fetch bookkeeping);
// Extra named opaque sections contributed by higher layers (injection
// stream positions, telemetry summary) without import cycles.
type Snapshot struct {
	Meta  Meta
	Emu   *emu.State
	Bpred *bpred.State
	Hier  *cache.HierarchyState
	DTLB  *cache.TLBState
	Core  []byte
	Extra map[string][]byte
}

// IsDelta reports whether the snapshot's memory image is a delta over a
// parent snapshot.
func (s *Snapshot) IsDelta() bool { return s.Meta.BaseID != 0 }

// VersionError reports a checkpoint written by a different format
// version. Refused: resuming across format versions cannot preserve
// bit-identical state.
type VersionError struct {
	Got  uint32
	Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: format version %d, want %d", e.Got, e.Want)
}

// CorruptError reports mid-file damage: a section whose content hash
// does not match, a bad magic number, an unparseable payload, or a
// broken delta chain. Refused — the state cannot be trusted.
type CorruptError struct {
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	if e.Section == "" {
		return "ckpt: corrupt checkpoint: " + e.Reason
	}
	return fmt.Sprintf("ckpt: corrupt checkpoint: section %s: %s", e.Section, e.Reason)
}

// TruncatedError reports a checkpoint that ends mid-structure — the
// expected shape of a crash during an (unlikely non-atomic) write or a
// partially copied file. Everything before the cut hashed clean, so the
// caller may fall back to an older snapshot; resuming from a truncated
// file is refused.
type TruncatedError struct {
	Section string
	Offset  int
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("ckpt: truncated checkpoint at byte %d (section %s)", e.Offset, e.Section)
}

// IsTruncated reports whether err is a tolerable truncated-tail error
// (as opposed to mid-file corruption, which must be refused).
func IsTruncated(err error) bool {
	var te *TruncatedError
	return errors.As(err, &te)
}

// Sink receives snapshots from a checkpointing run. WantFull is asked
// immediately before each capture: true means the snapshot must carry
// the full memory image (first snapshot, or a periodic rebase point);
// false permits a dirty-page delta against the previous snapshot.
//
// Write receives a snapshot that shares no memory with the running
// machine: its pages, predictor, cache and TLB arrays and opaque
// sections are fresh copies. A sink may therefore hold it, and encode
// it later or never, while the run goes on.
type Sink interface {
	WantFull() bool
	Write(*Snapshot) error
}

// DueSink is a Sink that decides when a periodic snapshot is worth
// capturing. A checkpointing run asks Due at every periodic mark once
// the pipeline has drained: false skips the capture and the Write (the
// drain itself always happens, since the cadence is part of the run's
// timing), and the emulator's dirty pages accumulate until the next
// capture, so a later delta still covers them. The final snapshot of a
// RequestStop is captured whatever Due says. A plain Sink captures
// every snapshot.
type DueSink interface {
	Sink
	Due() bool
}

// Watchdog triggers a graceful stop when the process heap exceeds a
// budget or a wall-clock deadline passes — the long-run safety net that
// turns an impending OOM or a batch-queue timeout into a final
// checkpoint and a partial result instead of a dead process.
type Watchdog struct {
	// MaxHeapBytes triggers at this live-heap size (0 = no heap budget).
	MaxHeapBytes uint64
	// Deadline triggers at this wall-clock time (zero = no deadline).
	Deadline time.Time
	// Poll is the check interval (0 = 1s).
	Poll time.Duration
	// Stop is invoked exactly once, off the simulation goroutine, with
	// a human-readable reason.
	Stop func(reason string)
}

// Start launches the watchdog goroutine and returns its cancel
// function. With no budget and no deadline it is a no-op.
func (w *Watchdog) Start() (cancel func()) {
	if w.MaxHeapBytes == 0 && w.Deadline.IsZero() {
		return func() {}
	}
	poll := w.Poll
	if poll <= 0 {
		poll = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(poll)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if !w.Deadline.IsZero() && time.Now().After(w.Deadline) {
					once.Do(func() { w.Stop("wall-clock deadline reached") })
					return
				}
				if w.MaxHeapBytes > 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > w.MaxHeapBytes {
						once.Do(func() {
							w.Stop(fmt.Sprintf("heap %d bytes over budget %d", ms.HeapAlloc, w.MaxHeapBytes))
						})
						return
					}
				}
			}
		}
	}()
	return func() { close(done) }
}
