package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"testing"

	"pok/internal/ckpt"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// The differential half of the checkpoint layer: a run resumed from any
// snapshot must be bit-identical — every Result counter, every snapshot
// it writes afterwards, every telemetry event — to an uninterrupted run
// with the same checkpoint cadence, on both schedulers and both
// emulator flavors.

// captureSink keeps every snapshot (always full, so each is
// self-contained and resumable) and can request a stop after the Nth
// write, modelling a SIGINT that lands exactly at a checkpoint boundary.
type captureSink struct {
	snaps  []*ckpt.Snapshot
	stopAt int // 1-based write index to stop after; 0 = never
	sim    *Sim
}

func (c *captureSink) WantFull() bool { return true }

func (c *captureSink) Write(s *ckpt.Snapshot) error {
	c.snaps = append(c.snaps, s)
	if c.stopAt > 0 && len(c.snaps) == c.stopAt && c.sim != nil {
		c.sim.RequestStop("test stop")
	}
	return nil
}

// runCkpt builds a sim, arms checkpointing with sink, and runs it.
func runCkpt(t *testing.T, w *workload.Workload, cfg Config, maxInsts, every uint64, sink ckpt.Sink) *Result {
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
	switch c := sink.(type) {
	case *captureSink:
		c.sim = s
	case *dueSink:
		c.sim = s
	}
	s.SetCheckpoint(every, sink, w.Name)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resumeCkpt restores from snap, re-arms the same cadence, and runs to
// completion.
func resumeCkpt(t *testing.T, snap *ckpt.Snapshot, cfg Config, maxInsts, every uint64, sink *captureSink) *Result {
	t.Helper()
	s, err := NewSimFromSnapshot(snap, cfg, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if sink != nil {
		sink.sim = s
	}
	s.SetCheckpoint(every, sink, snap.Meta.Benchmark)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResumeBitIdentical kills a checkpointing run at every snapshot and
// resumes it, across the scheduler × emulator matrix. The resumed run's
// Result and every snapshot it writes afterwards must be byte-identical
// to the uninterrupted reference with the same cadence.
func TestResumeBitIdentical(t *testing.T) {
	const maxInsts = 10_000
	const every = 2_500
	w := workload.MustGet("li")
	for _, sched := range []bool{false, true} {
		for _, legacyEmu := range []bool{false, true} {
			sched, legacyEmu := sched, legacyEmu
			name := fmt.Sprintf("sched=%v/emu=%v", schedName(sched), emuName(legacyEmu))
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := BitSliced(4)
				cfg.LegacyScheduler = sched
				cfg.LegacyEmulator = legacyEmu
				ref := &captureSink{}
				refRes := runCkpt(t, w, cfg, maxInsts, every, ref)
				if len(ref.snaps) == 0 {
					t.Fatal("reference run wrote no snapshots")
				}
				for i, snap := range ref.snaps {
					got := &captureSink{}
					res := resumeCkpt(t, snap, cfg, maxInsts, every, got)
					if *res != *refRes {
						t.Errorf("resume from snapshot %d (insts=%d): Result diverges\nref:\n%s\ngot:\n%s",
							i, snap.Meta.Insts, refRes.Summary(), res.Summary())
					}
					// Every snapshot the resumed run writes must be
					// byte-identical to the reference's corresponding one.
					want := ref.snaps[i+1:]
					if len(got.snaps) != len(want) {
						t.Errorf("resume from snapshot %d: wrote %d snapshots, reference wrote %d",
							i, len(got.snaps), len(want))
						continue
					}
					for j := range want {
						if string(ckpt.Encode(got.snaps[j])) != string(ckpt.Encode(want[j])) {
							t.Errorf("resume from snapshot %d: snapshot %d differs from reference", i, j)
						}
					}
				}
			})
		}
	}
}

func schedName(legacy bool) string {
	if legacy {
		return "legacy"
	}
	return "event"
}

func emuName(legacy bool) string {
	if legacy {
		return "legacy"
	}
	return "fast"
}

// TestResumeAfterStop models a SIGINT landing at a checkpoint boundary:
// the run stops with a partial Result, and resuming its last snapshot
// completes to the uninterrupted reference bit-for-bit.
func TestResumeAfterStop(t *testing.T) {
	const maxInsts = 10_000
	const every = 2_000
	w := workload.MustGet("gzip")
	cfg := BitSliced(2)

	ref := &captureSink{}
	refRes := runCkpt(t, w, cfg, maxInsts, every, ref)
	if len(ref.snaps) < 3 {
		t.Fatalf("need >= 3 snapshots, got %d", len(ref.snaps))
	}

	stop := &captureSink{stopAt: 2}
	partial := runCkpt(t, w, cfg, maxInsts, every, stop)
	if !partial.Stopped || partial.StopReason != "test stop" {
		t.Fatalf("stopped run not marked: %+v", partial.Stopped)
	}
	if partial.Insts != stop.snaps[1].Meta.Insts {
		t.Fatalf("partial result at %d insts, last snapshot at %d",
			partial.Insts, stop.snaps[1].Meta.Insts)
	}
	if string(ckpt.Encode(stop.snaps[1])) != string(ckpt.Encode(ref.snaps[1])) {
		t.Fatal("stop-boundary snapshot differs from the uninterrupted run's")
	}

	res := resumeCkpt(t, stop.snaps[1], cfg, maxInsts, every, &captureSink{})
	if *res != *refRes {
		t.Errorf("resume after stop diverges\nref:\n%s\ngot:\n%s", refRes.Summary(), res.Summary())
	}
}

// TestResumeFromDiskDeltaChain drives the on-disk path end to end:
// ckpt.Writer persists dirty-page deltas with periodic rebases, and
// LoadChain + NewSimFromSnapshot must reproduce the reference Result
// from the newest file — resolving a multi-link delta chain on the way.
func TestResumeFromDiskDeltaChain(t *testing.T) {
	const maxInsts = 12_000
	const every = 1_500
	w := workload.MustGet("go")
	cfg := BitSliced(4)

	ref := &captureSink{}
	refRes := runCkpt(t, w, cfg, maxInsts, every, ref)

	dir := t.TempDir()
	wr := &ckpt.Writer{Dir: dir, RebaseEvery: 4}
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
	s.SetCheckpoint(every, wr, w.Name)
	diskRes, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *diskRes != *refRes {
		t.Fatal("disk-sink run diverges from memory-sink run")
	}
	if wr.Count() < 6 {
		t.Fatalf("want >= 6 snapshots for a delta chain, got %d", wr.Count())
	}

	// Resume from every file in the directory, not just the newest: each
	// chain link must resolve to a resumable full image.
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pok"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != wr.Count() {
		t.Fatalf("found %d files, wrote %d", len(files), wr.Count())
	}
	for _, f := range files {
		snap, err := ckpt.LoadChain(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if snap.IsDelta() || snap.Emu.Partial {
			t.Fatalf("%s: LoadChain returned a delta", f)
		}
		res := resumeCkpt(t, snap, cfg, maxInsts, every, &captureSink{})
		if *res != *refRes {
			t.Errorf("%s: resume diverges\nref:\n%s\ngot:\n%s",
				f, refRes.Summary(), res.Summary())
		}
	}
}

// TestResumeTelemetryContinuity attaches a recorder on both sides of a
// kill: the resumed run's merged summary and the concatenation of the
// two event streams must equal the uninterrupted reference's.
func TestResumeTelemetryContinuity(t *testing.T) {
	const maxInsts = 6_000
	const every = 2_000
	const ringCap = 1 << 20
	w := workload.MustGet("li")
	cfg := BitSliced(4)

	run := func(sink *captureSink, snap *ckpt.Snapshot) (*Result, *telemetry.Recorder) {
		c := cfg
		rec := c.NewRecorder(ringCap)
		c.Collector = rec
		var s *Sim
		var err error
		if snap == nil {
			prog, perr := w.Program(w.DefaultScale)
			if perr != nil {
				t.Fatal(perr)
			}
			s, err = NewSim(prog, c, maxInsts)
			if err == nil && w.FastForward > 0 {
				err = s.FastForward(w.FastForward)
			}
		} else {
			s, err = NewSimFromSnapshot(snap, c, maxInsts)
		}
		if err != nil {
			t.Fatal(err)
		}
		sink.sim = s
		s.SetCheckpoint(every, sink, w.Name)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}

	refSink := &captureSink{}
	refRes, refRec := run(refSink, nil)
	if refRes.Telemetry == nil {
		t.Fatal("reference run has no telemetry")
	}

	stop := &captureSink{stopAt: 1}
	partial, partRec := run(stop, nil)
	if !partial.Stopped {
		t.Fatal("run did not stop")
	}
	res, resRec := run(&captureSink{}, stop.snaps[0])

	if !reflect.DeepEqual(res.Telemetry, refRes.Telemetry) {
		t.Errorf("merged telemetry summary diverges from reference")
	}
	noTel, refNoTel := *res, *refRes
	noTel.Telemetry, refNoTel.Telemetry = nil, nil
	if noTel != refNoTel {
		t.Errorf("Result (telemetry attached) diverges\nref:\n%s\ngot:\n%s",
			refRes.Summary(), res.Summary())
	}

	joined := append(append([]telemetry.Event(nil), partRec.Events()...), resRec.Events()...)
	refEvents := refRec.Events()
	if !reflect.DeepEqual(joined, refEvents) {
		t.Errorf("event streams diverge: ref %d events, joined %d (%d + %d)",
			len(refEvents), len(joined), len(partRec.Events()), len(resRec.Events()))
	}
}

// TestSnapshotConfigMismatchRefused: resuming under a different config,
// scheduler or emulator flavor must be refused, not silently produce a
// different machine.
func TestSnapshotConfigMismatchRefused(t *testing.T) {
	const maxInsts = 4_000
	w := workload.MustGet("li")
	cfg := BitSliced(4)
	sink := &captureSink{}
	runCkpt(t, w, cfg, maxInsts, 1_000, sink)
	if len(sink.snaps) == 0 {
		t.Fatal("no snapshots")
	}
	snap := sink.snaps[0]

	other := BitSliced(2)
	if _, err := NewSimFromSnapshot(snap, other, maxInsts); err == nil {
		t.Error("resume under a different config accepted")
	}
	badSched := cfg
	badSched.LegacyScheduler = true
	if _, err := NewSimFromSnapshot(snap, badSched, maxInsts); err == nil {
		t.Error("resume under a different scheduler accepted")
	}
	badEmu := cfg
	badEmu.LegacyEmulator = true
	if _, err := NewSimFromSnapshot(snap, badEmu, maxInsts); err == nil {
		t.Error("resume under a different emulator flavor accepted")
	}
}

// encodeSink holds every snapshot together with its encoding at capture
// time. The first write asks for a full image and every later one for a
// dirty-page delta, so a run exercises both shapes.
type encodeSink struct {
	snaps   []*ckpt.Snapshot
	encoded [][]byte
}

func (e *encodeSink) WantFull() bool { return len(e.snaps) == 0 }

func (e *encodeSink) Write(s *ckpt.Snapshot) error {
	e.snaps = append(e.snaps, s)
	e.encoded = append(e.encoded, ckpt.Encode(s))
	return nil
}

// runEncodeSink runs gzip on the slice-by-4 machine to completion with
// an encodeSink attached.
func runEncodeSink(t *testing.T) *encodeSink {
	t.Helper()
	sink := &encodeSink{}
	runCkpt(t, workload.MustGet("gzip"), BitSliced(4), 6_000, 2_000, sink)
	if len(sink.snaps) < 2 {
		t.Fatalf("want a full and a delta snapshot, got %d snapshots", len(sink.snaps))
	}
	return sink
}

// TestEncodeGolden pins ckpt.Encode's output on real snapshots, one full
// and one delta: the fnv64a of each encoding must match the digests
// taken before the encoder last changed. A mismatch while the golden
// Result table still holds means the checkpoint format moved, which
// needs a ckpt.Version bump, not a new digest.
func TestEncodeGolden(t *testing.T) {
	sink := runEncodeSink(t)
	want := []uint64{0xde61f3e972d98bd6, 0xa617df1d0e8de207}
	for i, w := range want {
		if sink.snaps[i].Emu.Partial != (i > 0) {
			t.Fatalf("snapshot %d: partial = %v", i, sink.snaps[i].Emu.Partial)
		}
		h := fnv.New64a()
		h.Write(sink.encoded[i])
		if got := h.Sum64(); got != w {
			t.Errorf("snapshot %d (%d bytes): fnv64a %#x, want %#x", i, len(sink.encoded[i]), got, w)
		}
	}
}

// TestSnapshotImmutable pins the ckpt.Sink contract the fleet worker
// relies on when it holds a snapshot and encodes it only on send: a
// written snapshot shares no memory with the running machine, so after
// the run has moved on and finished, it still encodes to the bytes it
// had at capture.
func TestSnapshotImmutable(t *testing.T) {
	sink := runEncodeSink(t)
	for i, s := range sink.snaps {
		if !bytes.Equal(ckpt.Encode(s), sink.encoded[i]) {
			t.Errorf("snapshot %d at %d insts changed after capture", i, s.Meta.Insts)
		}
	}
}

// dueSink is a ckpt.DueSink that answers Due with due, counts how often
// it was asked, and can request a stop on the Nth ask.
type dueSink struct {
	due    bool
	asked  int
	stopAt int // 1-based ask to request a stop on; 0 = never
	sim    *Sim
	snaps  []*ckpt.Snapshot
}

func (d *dueSink) WantFull() bool { return true }

func (d *dueSink) Due() bool {
	d.asked++
	if d.stopAt > 0 && d.asked == d.stopAt {
		d.sim.RequestStop("test stop")
	}
	return d.due
}

func (d *dueSink) Write(s *ckpt.Snapshot) error {
	d.snaps = append(d.snaps, s)
	return nil
}

// TestDueSinkSkipsCapture: a sink that never finds a snapshot due is
// still asked at every periodic drain, receives nothing, and leaves the
// run's Result bit-identical to one that captures every snapshot at the
// same cadence; the drain, not the capture, is what shapes timing. A
// stop requested while a skipped drain is asked still ends the run with
// a final snapshot.
func TestDueSinkSkipsCapture(t *testing.T) {
	const maxInsts, every = 12_000, 1_500
	w := workload.MustGet("gzip")
	for _, cfg := range []Config{BitSliced(4), SimplePipelined(2)} {
		t.Run(cfg.Name, func(t *testing.T) {
			all := &dueSink{due: true}
			want := runCkpt(t, w, cfg, maxInsts, every, all)
			none := &dueSink{}
			got := runCkpt(t, w, cfg, maxInsts, every, none)
			if len(all.snaps) < 2 || all.asked != len(all.snaps) {
				t.Fatalf("every-snapshot sink was asked %d times and got %d snapshots", all.asked, len(all.snaps))
			}
			if none.asked != all.asked || len(none.snaps) != 0 {
				t.Fatalf("never-due sink was asked %d of %d times and got %d snapshots",
					none.asked, all.asked, len(none.snaps))
			}
			if a, b := resultDigest(t, want), resultDigest(t, got); a != b {
				t.Fatalf("Result with no captures differs from every-capture run:\n%s\n%s",
					want.Summary(), got.Summary())
			}

			stop := &dueSink{stopAt: 2}
			res := runCkpt(t, w, cfg, maxInsts, every, stop)
			if !res.Stopped || len(stop.snaps) != 1 {
				t.Fatalf("stopped=%v with %d snapshots, want a stop with one final snapshot",
					res.Stopped, len(stop.snaps))
			}
			if snap := stop.snaps[0]; snap.Meta.Insts != res.Insts || snap.Meta.Insts <= 2*every {
				t.Errorf("final snapshot at %d insts, run stopped at %d, stop asked past %d",
					snap.Meta.Insts, res.Insts, 2*every)
			}
		})
	}
}
